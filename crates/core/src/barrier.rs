//! A centralized spinning barrier with generation counting (the classic
//! sense-reversing design, see *Rust Atomics and Locks* ch. 9 for the
//! memory-ordering reasoning). Algorithm 4 executes three of these per time
//! step; for fine-grained HPC phases a spinning barrier beats a parking
//! barrier, which the solver also supports for comparison (the barrier
//! ablation benchmark measures the difference).
//!
//! Both flavours support **poisoning**: a worker that panics marks the
//! barrier dead before unwinding, and every sibling blocked (or about to
//! block) in `wait_checked` returns [`BarrierPoisoned`] instead of
//! spinning forever on a rendezvous that can no longer complete. A
//! poisoned barrier stays poisoned.

use crate::sync_shim::{spin_wait, yield_wait, AtomicUsize, Ordering};

/// A sibling thread panicked: the rendezvous can never complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarrierPoisoned;

impl std::fmt::Display for BarrierPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "barrier poisoned: a participating thread panicked")
    }
}

impl std::error::Error for BarrierPoisoned {}

/// Spinning barrier for a fixed set of `n` threads.
///
/// Correctness: each arriving thread increments `count` with `AcqRel`; the
/// RMW chain makes every earlier thread's writes visible to the last
/// arriver, which publishes them to the waiters through the `Release`
/// increment of `generation` that each waiter `Acquire`-loads. Thus all
/// writes before the barrier happen-before all reads after it, for every
/// thread pair.
pub struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    /// 0 = healthy, 1 = poisoned. Checked on entry and inside the spin
    /// loop so a panicking sibling releases every waiter.
    poison: AtomicUsize,
}

impl SpinBarrier {
    /// Barrier for `n` threads.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one thread");
        Self {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poison: AtomicUsize::new(0),
        }
    }

    /// Number of participating threads.
    pub fn n_threads(&self) -> usize {
        self.n
    }

    /// Marks the barrier permanently dead, releasing all current and
    /// future waiters with [`BarrierPoisoned`]. Called by a panicking
    /// worker *before* it unwinds past its barrier discipline.
    pub fn poison(&self) {
        self.poison.store(1, Ordering::Release);
    }

    /// True once any participant has poisoned the barrier.
    pub fn is_poisoned(&self) -> bool {
        self.poison.load(Ordering::Acquire) != 0
    }

    /// Blocks (spinning) until all `n` threads have called `wait_checked`
    /// for the current generation. Returns `Ok(true)` on exactly one
    /// thread per generation (the "leader", the last arriver).
    ///
    /// A poisoned barrier returns `Err(BarrierPoisoned)` — on entry and
    /// from inside the spin loop, so no thread is left spinning on a
    /// rendezvous a dead sibling can never join.
    pub fn wait_checked(&self) -> Result<bool, BarrierPoisoned> {
        if self.is_poisoned() {
            return Err(BarrierPoisoned);
        }
        let gen = self.generation.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            Ok(true)
        } else {
            let mut spins = 0u32;
            loop {
                // Poison first, generation last: the generation probe must
                // be the final visible operation before the spin hint, so
                // that (under the loom model, where every atomic access is
                // a scheduling point) a release of the barrier landing
                // between the probe and the park still wakes this waiter.
                if self.is_poisoned() {
                    return Err(BarrierPoisoned);
                }
                if self.generation.load(Ordering::Acquire) != gen {
                    break;
                }
                spins += 1;
                if spins < 64 {
                    spin_wait();
                } else {
                    // Be polite on oversubscribed machines: after a short
                    // spin, yield the time slice so the remaining threads
                    // can run (essential when threads > cores, which is how
                    // the scaling harnesses run on small machines).
                    yield_wait();
                }
            }
            Ok(false)
        }
    }
}

/// Parking barrier (mutex + condvar) with the same poisoning protocol as
/// [`SpinBarrier`]. Replaces `std::sync::Barrier`, which cannot be
/// poisoned and therefore hangs forever when a participant dies.
pub struct ParkingBarrier {
    n: usize,
    state: std::sync::Mutex<ParkState>,
    cv: std::sync::Condvar,
}

struct ParkState {
    count: usize,
    generation: u64,
    poisoned: bool,
}

impl ParkingBarrier {
    /// Barrier for `n` threads.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one thread");
        Self {
            n,
            state: std::sync::Mutex::new(ParkState {
                count: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: std::sync::Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ParkState> {
        // The barrier's own poison flag is the failure channel; a
        // lock-poisoning panic inside this module can't leave the state
        // torn (all mutations are single assignments).
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Marks the barrier permanently dead and wakes every parked waiter.
    pub fn poison(&self) {
        self.lock().poisoned = true;
        self.cv.notify_all();
    }

    /// Parks until all `n` threads arrive; `Err(BarrierPoisoned)` if the
    /// barrier is (or becomes) poisoned.
    pub fn wait_checked(&self) -> Result<bool, BarrierPoisoned> {
        let mut s = self.lock();
        if s.poisoned {
            return Err(BarrierPoisoned);
        }
        s.count += 1;
        if s.count == self.n {
            s.count = 0;
            s.generation += 1;
            self.cv.notify_all();
            return Ok(true);
        }
        let gen = s.generation;
        loop {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
            if s.poisoned {
                return Err(BarrierPoisoned);
            }
            if s.generation != gen {
                return Ok(false);
            }
        }
    }
}

/// The barrier flavours the cube solver can synchronise with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BarrierKind {
    /// [`SpinBarrier`] (default; spin-then-yield).
    #[default]
    Spin,
    /// [`ParkingBarrier`] (parks the thread in the OS).
    Std,
}

/// Either barrier behind one `wait_checked()` interface.
pub enum PhaseBarrier {
    Spin(SpinBarrier),
    Std(ParkingBarrier),
}

impl PhaseBarrier {
    /// Builds the requested flavour for `n` threads.
    pub fn new(kind: BarrierKind, n: usize) -> Self {
        match kind {
            BarrierKind::Spin => PhaseBarrier::Spin(SpinBarrier::new(n)),
            BarrierKind::Std => PhaseBarrier::Std(ParkingBarrier::new(n)),
        }
    }

    /// Marks the barrier permanently dead, releasing every waiter with
    /// [`BarrierPoisoned`].
    pub fn poison(&self) {
        match self {
            PhaseBarrier::Spin(b) => b.poison(),
            PhaseBarrier::Std(b) => b.poison(),
        }
    }

    /// Waits for all threads; returns `Ok(true)` on one leader thread and
    /// `Err(BarrierPoisoned)` if the barrier is poisoned.
    pub fn wait_checked(&self) -> Result<bool, BarrierPoisoned> {
        match self {
            PhaseBarrier::Spin(b) => b.wait_checked(),
            PhaseBarrier::Std(b) => b.wait_checked(),
        }
    }

    /// [`PhaseBarrier::wait_checked`] plus the time this thread spent
    /// inside the wait — the telemetry probe for the paper's
    /// three-barriers-per-step overhead. The timing is per-caller: the
    /// last arriver (the leader) measures ~0, the first arriver measures
    /// the full straggler gap.
    pub fn wait_timed_checked(&self) -> Result<(bool, std::time::Duration), BarrierPoisoned> {
        let t0 = std::time::Instant::now();
        let leader = self.wait_checked()?;
        Ok((leader, t0.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn single_thread_is_always_leader() {
        let b = SpinBarrier::new(1);
        for _ in 0..5 {
            assert_eq!(b.wait_checked(), Ok(true));
        }
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        let b = SpinBarrier::new(4);
        let leaders = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        if b.wait_checked().unwrap() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn barrier_publishes_writes() {
        // Each round, every thread writes its slot before the barrier and
        // checks everyone's slot after it — any missed synchronisation
        // shows up as a stale read.
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        let b = SpinBarrier::new(THREADS);
        // Plain (non-atomic would be UB here) relaxed atomics as the data;
        // the *ordering* must come from the barrier alone.
        let slots: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let slots = &slots;
                let b = &b;
                s.spawn(move || {
                    for round in 1..=ROUNDS as u64 {
                        slots[t].store(round, Ordering::Relaxed);
                        b.wait_checked().unwrap();
                        for (i, slot) in slots.iter().enumerate() {
                            let v = slot.load(Ordering::Relaxed);
                            assert!(v >= round, "thread {t} saw stale slot {i}: {v} < {round}");
                        }
                        b.wait_checked().unwrap(); // end-of-round barrier before next write
                    }
                });
            }
        });
    }

    #[test]
    fn phase_barrier_std_flavour_works() {
        let b = PhaseBarrier::new(BarrierKind::Std, 3);
        let leaders = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..10 {
                        if b.wait_checked().unwrap() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn wait_timed_reports_leader_and_duration() {
        use std::time::Instant;
        let b = PhaseBarrier::new(BarrierKind::Spin, 2);
        // Each thread records the instant it arrives and returns it with
        // its leader flag and measured wait. Whichever thread arrives
        // first, its wait covers the gap to the other's arrival.
        let arrive = || {
            let at = Instant::now();
            let (leader, waited) = b.wait_timed_checked().unwrap();
            (leader, waited, at)
        };
        let (a, c) = std::thread::scope(|s| {
            let other = s.spawn(arrive);
            // Usually makes the spawned thread the first arriver; the
            // assertions hold for either order.
            std::thread::sleep(std::time::Duration::from_millis(5));
            let mine = arrive();
            (mine, other.join().unwrap())
        });
        assert!(a.0 != c.0, "exactly one leader: {a:?}, {c:?}");
        let ((_, waited, first_at), (_, _, leader_at)) = if a.0 { (c, a) } else { (a, c) };
        let gap = leader_at.saturating_duration_since(first_at);
        assert!(
            waited >= gap,
            "the first arriver waited {waited:?}, less than the {gap:?} between arrivals"
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        SpinBarrier::new(0);
    }

    #[test]
    fn poison_releases_spinning_waiter() {
        let b = SpinBarrier::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| b.wait_checked());
            // Let the waiter enter the spin loop, then kill the barrier
            // instead of ever arriving (as a panicking sibling would).
            std::thread::sleep(std::time::Duration::from_millis(10));
            b.poison();
            assert_eq!(waiter.join().unwrap(), Err(BarrierPoisoned));
        });
        // The barrier stays dead for all future arrivals.
        assert_eq!(b.wait_checked(), Err(BarrierPoisoned));
        assert!(b.is_poisoned());
    }

    #[test]
    fn poison_releases_parked_waiter() {
        let b = ParkingBarrier::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| b.wait_checked());
            std::thread::sleep(std::time::Duration::from_millis(10));
            b.poison();
            assert_eq!(waiter.join().unwrap(), Err(BarrierPoisoned));
        });
        assert_eq!(b.wait_checked(), Err(BarrierPoisoned));
    }

    #[test]
    fn phase_barrier_poison_is_an_error_not_a_hang() {
        for kind in [BarrierKind::Spin, BarrierKind::Std] {
            let b = PhaseBarrier::new(kind, 3);
            b.poison();
            assert_eq!(b.wait_checked(), Err(BarrierPoisoned));
            assert!(b.wait_timed_checked().is_err());
        }
    }
}
