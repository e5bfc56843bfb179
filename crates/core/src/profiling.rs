//! Built-in kernel profiling: the library's replacement for the paper's
//! gprof (Table I: per-kernel share of run time) and OmpP (Table II: load
//! imbalance relative to the whole program).

use std::time::{Duration, Instant};

/// The nine computational kernels of Section III-B in Algorithm 1 order,
/// plus the fused collide–stream sweep that replaces kernels 5+6 under
/// [`crate::config::KernelPlan::Fused`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelId {
    BendingForce,
    StretchingForce,
    ElasticForce,
    SpreadForce,
    Collision,
    Stream,
    UpdateVelocity,
    MoveFibers,
    /// Kernel 9. The cube solver swaps its buffers instead of copying, so
    /// there this slot stays at 0 s (as do kernels 5 and 6, which it runs
    /// only as the fused sweep).
    CopyDistributions,
    FusedCollideStream,
}

impl KernelId {
    /// Number of kernel slots (profiling array size).
    pub const COUNT: usize = 10;

    /// All kernels, the Algorithm 1 nine first, then the fused sweep.
    pub const ALL: [KernelId; KernelId::COUNT] = [
        KernelId::BendingForce,
        KernelId::StretchingForce,
        KernelId::ElasticForce,
        KernelId::SpreadForce,
        KernelId::Collision,
        KernelId::Stream,
        KernelId::UpdateVelocity,
        KernelId::MoveFibers,
        KernelId::CopyDistributions,
        KernelId::FusedCollideStream,
    ];

    /// Index 0..[`KernelId::COUNT`] (position in [`KernelId::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            KernelId::BendingForce => 0,
            KernelId::StretchingForce => 1,
            KernelId::ElasticForce => 2,
            KernelId::SpreadForce => 3,
            KernelId::Collision => 4,
            KernelId::Stream => 5,
            KernelId::UpdateVelocity => 6,
            KernelId::MoveFibers => 7,
            KernelId::CopyDistributions => 8,
            KernelId::FusedCollideStream => 9,
        }
    }

    /// The paper's kernel number (1-based, Algorithm 1); the fused sweep
    /// reports as 10 (it stands in for kernels 5 and 6).
    pub fn paper_number(self) -> usize {
        self.index() + 1
    }

    /// The function name used in the paper.
    pub fn paper_name(self) -> &'static str {
        match self {
            KernelId::BendingForce => "compute_bending_force_in_fibers",
            KernelId::StretchingForce => "compute_stretching_force_in_fibers",
            KernelId::ElasticForce => "compute_elastic_force_in_fibers",
            KernelId::SpreadForce => "spread_force_from_fibers_to_fluid",
            KernelId::Collision => "compute_fluid_collision",
            KernelId::Stream => "stream_fluid_velocity_distribution",
            KernelId::UpdateVelocity => "update_fluid_velocity",
            KernelId::MoveFibers => "move_fibers",
            KernelId::CopyDistributions => "copy_fluid_velocity_distribution",
            KernelId::FusedCollideStream => "fused_collide_stream (kernels 5+6)",
        }
    }
}

/// Accumulated per-kernel wall time — the gprof replacement.
#[derive(Clone, Debug, Default)]
pub struct KernelProfile {
    totals: [Duration; KernelId::COUNT],
    calls: [u64; KernelId::COUNT],
}

impl KernelProfile {
    /// Empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one execution of `kernel`.
    pub fn record(&mut self, kernel: KernelId, elapsed: Duration) {
        self.totals[kernel.index()] += elapsed;
        self.calls[kernel.index()] += 1;
    }

    /// Times `f` and charges it to `kernel`, returning its result.
    #[inline]
    pub fn time<T>(&mut self, kernel: KernelId, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(kernel, t0.elapsed());
        out
    }

    /// Total time of one kernel.
    pub fn total(&self, kernel: KernelId) -> Duration {
        self.totals[kernel.index()]
    }

    /// Call count of one kernel.
    pub fn calls(&self, kernel: KernelId) -> u64 {
        self.calls[kernel.index()]
    }

    /// Sum over all kernels.
    pub fn grand_total(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// Per-kernel totals in seconds, [`KernelId::ALL`] order (telemetry
    /// export).
    pub fn totals_seconds(&self) -> [f64; KernelId::COUNT] {
        std::array::from_fn(|i| self.totals[i].as_secs_f64())
    }

    /// Kernels sorted by descending share of total time, with their
    /// percentage — the rows of Table I.
    pub fn ranked(&self) -> Vec<(KernelId, Duration, f64)> {
        let total = self.grand_total().as_secs_f64().max(1e-12);
        let mut rows: Vec<_> = KernelId::ALL
            .iter()
            .map(|&k| {
                (
                    k,
                    self.total(k),
                    100.0 * self.total(k).as_secs_f64() / total,
                )
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }

    /// Renders the Table I layout.
    pub fn table(&self) -> String {
        let mut out = String::from("Kernel | Kernel Name                          | % of Total\n");
        out.push_str("-------+--------------------------------------+-----------\n");
        for (k, _, pct) in self.ranked() {
            out.push_str(&format!(
                "{:>5}) | {:<36} | {:>8.2}%\n",
                k.paper_number(),
                k.paper_name(),
                pct
            ));
        }
        out.push_str(&format!(
            "total execution time = {:.3} s\n",
            self.grand_total().as_secs_f64()
        ));
        out
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &KernelProfile) {
        for i in 0..KernelId::COUNT {
            self.totals[i] += other.totals[i];
            self.calls[i] += other.calls[i];
        }
    }
}

/// Per-thread, per-parallel-region busy times — the OmpP replacement for
/// measuring load imbalance.
///
/// For each parallel region instance (one kernel invocation across all
/// threads), the imbalance time is `Σ_t (max_busy − busy_t) / n_threads`:
/// the average time a thread spends waiting at the region's closing
/// barrier. The Table II metric is that total relative to wall-clock time.
#[derive(Clone, Debug)]
pub struct ImbalanceTracker {
    n_threads: usize,
    /// Per-kernel accumulated busy time per thread.
    busy: Vec<[f64; KernelId::COUNT]>,
    /// Per-kernel accumulated imbalance (average wait) time.
    imbalance: [f64; KernelId::COUNT],
    /// Per-kernel accumulated max-thread (critical path) time.
    critical: [f64; KernelId::COUNT],
    /// Per-thread accumulated wait time `Σ (max_busy − busy_t)` over all
    /// recorded regions (each thread's time at closing barriers).
    wait_by_thread: Vec<f64>,
    /// Number of parallel-region instances recorded.
    regions: u64,
}

impl ImbalanceTracker {
    /// Tracker for `n_threads` threads.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0);
        Self {
            n_threads,
            busy: vec![[0.0; KernelId::COUNT]; n_threads],
            imbalance: [0.0; KernelId::COUNT],
            critical: [0.0; KernelId::COUNT],
            wait_by_thread: vec![0.0; n_threads],
            regions: 0,
        }
    }

    /// Number of threads being tracked.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Records one parallel region: `busy[t]` is the busy seconds of
    /// thread `t` in this instance of `kernel`.
    pub fn record_region(&mut self, kernel: KernelId, busy: &[f64]) {
        assert_eq!(busy.len(), self.n_threads);
        let max = busy.iter().copied().fold(0.0, f64::max);
        let wait: f64 = busy.iter().map(|b| max - b).sum::<f64>() / self.n_threads as f64;
        let k = kernel.index();
        self.imbalance[k] += wait;
        self.critical[k] += max;
        for (t, &b) in busy.iter().enumerate() {
            self.busy[t][k] += b;
            self.wait_by_thread[t] += max - b;
        }
        self.regions += 1;
    }

    /// Per-thread accumulated busy seconds per kernel (telemetry export).
    pub fn busy_by_thread(&self) -> &[[f64; KernelId::COUNT]] {
        &self.busy
    }

    /// Per-thread accumulated wait seconds at region-closing barriers.
    pub fn wait_by_thread(&self) -> &[f64] {
        &self.wait_by_thread
    }

    /// Number of parallel-region instances recorded so far.
    pub fn regions(&self) -> u64 {
        self.regions
    }

    /// Total imbalance (average wait) time across all kernels, seconds.
    pub fn total_imbalance(&self) -> f64 {
        self.imbalance.iter().sum()
    }

    /// Total critical-path time across all kernels, seconds.
    pub fn total_critical(&self) -> f64 {
        self.critical.iter().sum()
    }

    /// The Table II metric: imbalance as a percentage of the program's
    /// parallel-region time.
    pub fn imbalance_percent(&self) -> f64 {
        let c = self.total_critical();
        if c <= 0.0 {
            0.0
        } else {
            100.0 * self.total_imbalance() / c
        }
    }

    /// Per-kernel imbalance percentages (diagnostics beyond the paper).
    pub fn per_kernel_percent(&self) -> Vec<(KernelId, f64)> {
        KernelId::ALL
            .iter()
            .map(|&k| {
                let i = k.index();
                let pct = if self.critical[i] > 0.0 {
                    100.0 * self.imbalance[i] / self.critical[i]
                } else {
                    0.0
                };
                (k, pct)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_ids_cover_paper_numbers() {
        for (i, k) in KernelId::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(k.paper_number(), i + 1);
        }
        assert_eq!(KernelId::Collision.paper_number(), 5);
        assert_eq!(KernelId::CopyDistributions.paper_number(), 9);
        assert_eq!(KernelId::Collision.paper_name(), "compute_fluid_collision");
        assert_eq!(KernelId::COUNT, KernelId::ALL.len());
        assert_eq!(KernelId::FusedCollideStream.index(), 9);
    }

    #[test]
    fn profile_accumulates_and_ranks() {
        let mut p = KernelProfile::new();
        p.record(KernelId::Collision, Duration::from_millis(730));
        p.record(KernelId::UpdateVelocity, Duration::from_millis(126));
        p.record(KernelId::CopyDistributions, Duration::from_millis(59));
        p.record(KernelId::Stream, Duration::from_millis(54));
        let rows = p.ranked();
        assert_eq!(rows[0].0, KernelId::Collision);
        assert!(rows[0].2 > 70.0, "collision share {}", rows[0].2);
        assert_eq!(rows[1].0, KernelId::UpdateVelocity);
        assert_eq!(p.calls(KernelId::Collision), 1);
        let table = p.table();
        assert!(table.contains("compute_fluid_collision"));
    }

    #[test]
    fn time_closure_returns_value() {
        let mut p = KernelProfile::new();
        let v = p.time(KernelId::Stream, || 40 + 2);
        assert_eq!(v, 42);
        assert_eq!(p.calls(KernelId::Stream), 1);
    }

    #[test]
    fn merge_adds_profiles() {
        let mut a = KernelProfile::new();
        a.record(KernelId::Collision, Duration::from_secs(1));
        let mut b = KernelProfile::new();
        b.record(KernelId::Collision, Duration::from_secs(2));
        b.record(KernelId::Stream, Duration::from_secs(1));
        a.merge(&b);
        assert_eq!(a.total(KernelId::Collision), Duration::from_secs(3));
        assert_eq!(a.calls(KernelId::Collision), 2);
        assert_eq!(a.total(KernelId::Stream), Duration::from_secs(1));
    }

    #[test]
    fn perfectly_balanced_region_has_zero_imbalance() {
        let mut t = ImbalanceTracker::new(4);
        t.record_region(KernelId::Collision, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(t.total_imbalance(), 0.0);
        assert_eq!(t.imbalance_percent(), 0.0);
    }

    #[test]
    fn single_thread_never_imbalanced() {
        let mut t = ImbalanceTracker::new(1);
        t.record_region(KernelId::Collision, &[3.0]);
        assert_eq!(t.imbalance_percent(), 0.0);
    }

    #[test]
    fn skewed_region_measures_wait_share() {
        let mut t = ImbalanceTracker::new(2);
        // Thread 0 busy 2 s, thread 1 busy 1 s: waits are (0, 1), average
        // 0.5 s against a 2 s critical path → 25%.
        t.record_region(KernelId::Collision, &[2.0, 1.0]);
        assert!((t.total_imbalance() - 0.5).abs() < 1e-12);
        assert!((t.imbalance_percent() - 25.0).abs() < 1e-9);
        // Per-thread view: thread 0 never waited, thread 1 waited 1 s.
        assert_eq!(t.wait_by_thread(), &[0.0, 1.0]);
        assert_eq!(t.busy_by_thread()[0][KernelId::Collision.index()], 2.0);
        assert_eq!(t.regions(), 1);
    }

    #[test]
    fn imbalance_relative_to_whole_program() {
        let mut t = ImbalanceTracker::new(2);
        t.record_region(KernelId::Collision, &[2.0, 1.0]); // 0.5 wait, 2 crit
        t.record_region(KernelId::Stream, &[3.0, 3.0]); // balanced, 3 crit
                                                        // 0.5 / 5.0 = 10%.
        assert!((t.imbalance_percent() - 10.0).abs() < 1e-9);
        let per = t.per_kernel_percent();
        assert!((per[KernelId::Collision.index()].1 - 25.0).abs() < 1e-9);
        assert_eq!(per[KernelId::Stream.index()].1, 0.0);
    }
}
