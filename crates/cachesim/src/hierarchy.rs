//! Two-level cache hierarchy (L1 → L2 → memory), reporting the per-level
//! miss rates the paper measured with PAPI.

use crate::cache::{Cache, CacheConfig};

/// L1 + L2 hierarchy for one core's access stream. L2 is looked up only on
/// L1 misses, matching how PAPI's `L2_DCM / L2_DCA` ratio is defined.
///
/// The L2 carries an optional sequential stream prefetcher: real AMD L2s
/// prefetch streaming access patterns, which is why the paper's
/// streaming-dominated workload still shows only ~26% L2 misses. It keeps
/// a FIFO of 16 stream heads (each demand-missed line and the last line of
/// each prefetch burst); a demand miss on line `L` fetches
/// `L+1..=L+prefetch_depth` only when `L−1` is a head, so a stream trains
/// on its first miss and scattered misses fetch nothing. Prefetch installs
/// do not count as demand accesses; [`Hierarchy::prefetches`] counts the
/// ones that fetched a line from memory.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    pub l1: Cache,
    pub l2: Cache,
    /// Lines prefetched ahead on an L2 demand miss (0 disables).
    pub prefetch_depth: usize,
    /// Lines the prefetcher fetched from memory: installs of lines that
    /// were not already resident in L2.
    pub prefetches: u64,
    /// Stream-head line numbers, replaced oldest first (`u64::MAX` is
    /// empty: no line `L` has `L−1` equal to it).
    heads: [u64; STREAM_HEADS],
    /// Slot the next head replaces.
    next_head: usize,
}

/// Stream heads the prefetcher tracks.
const STREAM_HEADS: usize = 16;

impl Hierarchy {
    /// Builds a hierarchy from the two level configs (no prefetching).
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        Self {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            prefetch_depth: 0,
            prefetches: 0,
            heads: [u64::MAX; STREAM_HEADS],
            next_head: 0,
        }
    }

    /// The paper's `thog` machine as seen by one core, with the stream
    /// prefetcher on (depth 4). With more than one active core per L2
    /// (`thog` shares each 2 MB L2 between two cores), pass
    /// `l2_sharers = 2` to model the halved effective capacity.
    pub fn thog(l2_sharers: usize) -> Self {
        let mut h = Self::new(
            CacheConfig::thog_l1(),
            CacheConfig::thog_l2().shared_by(l2_sharers),
        );
        h.prefetch_depth = 4;
        h
    }

    /// Same geometry with the prefetcher disabled (for the ablation).
    pub fn thog_no_prefetch(l2_sharers: usize) -> Self {
        let mut h = Self::thog(l2_sharers);
        h.prefetch_depth = 0;
        h
    }

    /// One memory access at byte address `addr`.
    #[inline]
    pub fn access(&mut self, addr: u64) {
        if !self.l1.access(addr) && !self.l2.access(addr) && self.prefetch_depth > 0 {
            let line_bytes = self.l2.config().line_bytes as u64;
            let line = addr / line_bytes;
            if line > 0 && self.heads.contains(&(line - 1)) {
                let depth = self.prefetch_depth as u64;
                for l in line + 1..=line + depth {
                    if self.l2.install(l * line_bytes) {
                        self.prefetches += 1;
                    }
                }
                self.push_head(line + depth);
            }
            self.push_head(line);
        }
    }

    fn push_head(&mut self, line: u64) {
        self.heads[self.next_head] = line;
        self.next_head = (self.next_head + 1) % STREAM_HEADS;
    }

    /// L1 data miss rate (misses / accesses), as a percentage.
    pub fn l1_miss_percent(&self) -> f64 {
        100.0 * self.l1.miss_rate()
    }

    /// L2 data miss rate (L2 misses / L2 accesses), as a percentage.
    pub fn l2_miss_percent(&self) -> f64 {
        100.0 * self.l2.miss_rate()
    }

    /// Lines fetched from memory so far: L2 demand misses plus the lines
    /// the prefetcher installed.
    pub fn dram_lines(&self) -> u64 {
        self.l2.misses + self.prefetches
    }

    /// Resets both levels.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.prefetches = 0;
        self.heads = [u64::MAX; STREAM_HEADS];
        self.next_head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_sees_only_l1_misses() {
        let mut h = Hierarchy::new(
            CacheConfig {
                size_bytes: 512,
                ways: 2,
                line_bytes: 64,
            },
            CacheConfig {
                size_bytes: 4096,
                ways: 4,
                line_bytes: 64,
            },
        );
        h.access(0);
        h.access(0);
        h.access(8);
        assert_eq!(h.l1.accesses(), 3);
        assert_eq!(h.l2.accesses(), 1, "only the cold miss reached L2");
    }

    #[test]
    fn medium_working_set_hits_l2_not_l1() {
        let mut h = Hierarchy::new(
            CacheConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 64,
            },
            CacheConfig {
                size_bytes: 64 * 1024,
                ways: 8,
                line_bytes: 64,
            },
        );
        // 8 KB working set: thrashes the 1 KB L1 but fits L2. After the
        // cold sweep every L2 lookup hits, so the L2 miss rate decays
        // toward zero with the number of sweeps.
        for _round in 0..50 {
            for i in 0..1024u64 {
                h.access(i * 8);
            }
        }
        assert!(h.l1_miss_percent() > 10.0, "L1 {}", h.l1_miss_percent());
        assert!(h.l2_miss_percent() < 3.0, "L2 {}", h.l2_miss_percent());
    }

    #[test]
    fn prefetcher_rescues_streaming_workload() {
        let cfgs = (
            CacheConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 64,
            },
            CacheConfig {
                size_bytes: 16 * 1024,
                ways: 4,
                line_bytes: 64,
            },
        );
        let mut plain = Hierarchy::new(cfgs.0, cfgs.1);
        let mut pf = Hierarchy::new(cfgs.0, cfgs.1);
        pf.prefetch_depth = 4;
        // A pure streaming sweep much larger than both levels.
        for i in 0..64 * 1024u64 {
            plain.access(i * 8);
            pf.access(i * 8);
        }
        assert!(
            plain.l2_miss_percent() > 90.0,
            "{}",
            plain.l2_miss_percent()
        );
        assert!(pf.l2_miss_percent() < 25.0, "{}", pf.l2_miss_percent());
        assert!(pf.prefetches > 0);
    }

    #[test]
    fn huge_working_set_misses_both() {
        let mut h = Hierarchy::new(
            CacheConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 64,
            },
            CacheConfig {
                size_bytes: 16 * 1024,
                ways: 4,
                line_bytes: 64,
            },
        );
        for _round in 0..3 {
            for i in 0..32 * 1024u64 {
                h.access(i * 8);
            }
        }
        assert!(h.l2_miss_percent() > 90.0, "L2 {}", h.l2_miss_percent());
    }

    /// A cold sequential pass over `n` lines fetches each line from memory
    /// exactly once, whether by a demand miss or by the prefetcher. Line 0
    /// trains the stream; from line 1 on, every demand miss fetches the
    /// next four lines (with `n − 1` a multiple of depth + 1, no prefetch
    /// runs past the end). Demand misses alone would show a fifth of them.
    #[test]
    fn sequential_pass_fetches_every_line_once() {
        let n = 10_001u64;
        let mut h = Hierarchy::thog(1);
        for addr in (0..n * 64).step_by(8) {
            h.access(addr);
        }
        assert_eq!(h.dram_lines(), n);
        assert_eq!(h.l2.misses, 1 + (n - 1) / 5);
        // A second pass finds every line in L2: nothing more is fetched.
        for addr in (0..n * 64).step_by(8) {
            h.access(addr);
        }
        assert_eq!(h.dram_lines(), n);
    }

    /// Touching one line per 4 KiB never presents a line whose predecessor
    /// is a stream head, so nothing is prefetched.
    #[test]
    fn strided_pass_prefetches_nothing() {
        let mut h = Hierarchy::thog(1);
        for addr in (0..1024 * 4096).step_by(4096) {
            h.access(addr);
        }
        assert_eq!(h.l2.misses, 1024);
        assert_eq!(h.prefetches, 0);
        assert_eq!(h.dram_lines(), 1024);
    }

    #[test]
    fn thog_sharing_halves_l2() {
        let full = Hierarchy::thog(1);
        let half = Hierarchy::thog(2);
        assert_eq!(full.l2.config().size_bytes, 2 * half.l2.config().size_bytes);
        assert_eq!(full.l1.config(), half.l1.config());
    }
}
