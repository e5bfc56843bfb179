//! A set-associative cache with true-LRU replacement — the building block
//! of the two-level hierarchy used to reproduce the paper's PAPI
//! measurements (Table II).

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Validates the geometry.
    pub fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.ways >= 1);
        assert!(
            self.size_bytes % (self.ways * self.line_bytes) == 0,
            "capacity must be a whole number of sets"
        );
        assert!(
            self.num_sets().is_power_of_two(),
            "set count must be a power of two"
        );
    }

    /// The L1 data cache of the paper's `thog` machine: 16 KB per core
    /// (64-byte lines, 4-way).
    pub fn thog_l1() -> Self {
        Self {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// The L2 of `thog`: 2 MB shared by two cores (64-byte lines, 16-way).
    pub fn thog_l2() -> Self {
        Self {
            size_bytes: 2 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Halves the effective capacity (a core sharing the cache with an
    /// equally active neighbour) while keeping line size and sets/ways
    /// consistent.
    pub fn shared_by(&self, sharers: usize) -> Self {
        assert!(
            sharers >= 1 && self.ways % sharers == 0,
            "cannot split {} ways by {sharers}",
            self.ways
        );
        Self {
            size_bytes: self.size_bytes / sharers,
            ways: self.ways / sharers,
            line_bytes: self.line_bytes,
        }
    }
}

/// One set-associative LRU cache level with hit/miss counters.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    set_shift: u32,
    set_mask: u64,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// Monotonic per-access stamps for true LRU.
    stamps: Vec<u64>,
    clock: u64,
    pub hits: u64,
    pub misses: u64,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let sets = cfg.num_sets();
        Self {
            cfg,
            set_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            tags: vec![u64::MAX; sets * cfg.ways],
            stamps: vec![0; sets * cfg.ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Configuration of this level.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Performs one access at byte address `addr`; returns `true` on hit.
    /// On miss the line is installed, evicting the LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        self.clock += 1;
        let base = set * self.cfg.ways;
        let ways = &mut self.tags[base..base + self.cfg.ways];
        // Hit?
        for (w, t) in ways.iter().enumerate() {
            if *t == tag {
                self.stamps[base + w] = self.clock;
                self.hits += 1;
                return true;
            }
        }
        // Miss: evict LRU.
        self.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.cfg.ways {
            let s = self.stamps[base + w];
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if s < oldest {
                oldest = s;
                victim = w;
            }
        }
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Installs a line without counting it as a demand access (prefetch).
    /// No-op if the line is already resident (its LRU stamp is refreshed).
    /// Returns `true` when the line was absent, i.e. when installing it
    /// fetched a line from the next level.
    pub fn install(&mut self, addr: u64) -> bool {
        let line = addr >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        self.clock += 1;
        let base = set * self.cfg.ways;
        for w in 0..self.cfg.ways {
            if self.tags[base + w] == tag {
                self.stamps[base + w] = self.clock;
                return false;
            }
        }
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.cfg.ways {
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.stamps[base + w] < oldest {
                oldest = self.stamps[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        true
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in [0, 1]; 0 when never accessed.
    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry() {
        let cfg = CacheConfig::thog_l1();
        cfg.validate();
        assert_eq!(cfg.num_sets(), 64);
        let l2 = CacheConfig::thog_l2();
        l2.validate();
        assert_eq!(l2.num_sets(), 2048);
        let half = l2.shared_by(2);
        assert_eq!(half.size_bytes, 1024 * 1024);
        half.validate();
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000), "cold miss");
        assert!(c.access(0x1000), "second access hits");
        assert!(c.access(0x1038), "same line hits");
        assert!(!c.access(0x1040), "next line misses");
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets*line = 256 B).
        c.access(0x0000);
        c.access(0x0100);
        assert!(c.access(0x0000), "both ways resident");
        // Insert a third: evicts 0x0100 (LRU after the re-touch of 0x0000).
        c.access(0x0200);
        assert!(c.access(0x0000), "recently used line survives");
        assert!(!c.access(0x0100), "LRU line was evicted");
    }

    #[test]
    fn sequential_stream_miss_rate_is_line_granular() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        });
        // 8-byte sequential accesses: one miss per 64-byte line → 12.5%.
        for i in 0..100_000u64 {
            c.access(i * 8);
        }
        assert!((c.miss_rate() - 0.125).abs() < 0.001, "{}", c.miss_rate());
    }

    #[test]
    fn working_set_that_fits_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        });
        // 8 KB working set, swept repeatedly.
        for _round in 0..10 {
            for i in 0..1024u64 {
                c.access(i * 8);
            }
        }
        // Only the first sweep misses: 128 lines / 10240 accesses.
        assert!(c.miss_rate() < 0.02, "{}", c.miss_rate());
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        });
        // 64 KB working set swept repeatedly with LRU → every line evicted
        // before reuse → miss per line every sweep.
        for _round in 0..5 {
            for i in 0..8192u64 {
                c.access(i * 8);
            }
        }
        assert!(c.miss_rate() > 0.12, "{}", c.miss_rate());
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        c.reset();
        assert_eq!(c.accesses(), 0);
        assert!(!c.access(0), "cold after reset");
    }

    #[test]
    fn lru_property_holds_under_random_access() {
        // Model check: replay a random trace against a reference LRU
        // implementation (vector of recently-used line tags per set).
        use std::collections::VecDeque;
        let cfg = CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        };
        let mut cache = Cache::new(cfg);
        let sets = cfg.num_sets();
        let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); sets];
        let mut rng = 0x12345678u64;
        for _ in 0..20_000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (rng >> 16) % 8192; // 128 lines over 8 sets
            let line = addr >> 6;
            let set = (line as usize) % sets;
            let expected_hit = model[set].contains(&line);
            let got_hit = cache.access(addr);
            assert_eq!(got_hit, expected_hit, "addr {addr:#x}");
            // Update the reference LRU.
            if let Some(p) = model[set].iter().position(|&l| l == line) {
                model[set].remove(p);
            }
            model[set].push_front(line);
            model[set].truncate(cfg.ways);
        }
        assert!(
            cache.hits > 0 && cache.misses > 0,
            "trace must exercise both paths"
        );
    }

    #[test]
    fn conflict_misses_in_low_associativity() {
        // Direct-mapped: two lines in the same set always conflict.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 1,
            line_bytes: 64,
        });
        for _ in 0..10 {
            c.access(0x0000);
            c.access(0x0100); // same set (4 sets → stride 256)
        }
        assert_eq!(c.hits, 0, "ping-pong never hits in direct-mapped");
    }
}
