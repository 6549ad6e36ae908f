//! Set-associative caches and the two-level memory hierarchy.

use crate::config::{BaselineConfig, CacheConfig};

/// A set-associative cache with LRU replacement.
///
/// Only tags are tracked (the simulator is trace driven and never needs data).
/// Tags and LRU stamps live in flat arrays indexed `set * assoc + way`, and the
/// set and tag come from a shift and a mask (set count and line size are
/// powers of two, which [`BaselineConfig::validate`] enforces).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    assoc: usize,
    /// log2 of the line size.
    line_shift: u32,
    /// log2 of the set count.
    set_shift: u32,
    /// `tags[set * assoc + way]`; [`INVALID_TAG`] marks an empty way.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    stamp: u64,
    accesses: u64,
    misses: u64,
}

/// Tag of an invalid way. Real tags are line numbers shifted right by the set
/// bits, so they never reach it.
const INVALID_TAG: u64 = u64::MAX;

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the set count or the line size is not a power of two.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two() && cfg.line_bytes.is_power_of_two(),
            "cache set count ({sets}) and line size ({}) must be powers of two",
            cfg.line_bytes
        );
        let ways = sets * cfg.assoc as usize;
        Cache {
            cfg,
            assoc: cfg.assoc as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            tags: vec![INVALID_TAG; ways],
            stamps: vec![0; ways],
            stamp: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// The first way index of `addr`'s set, and its tag.
    fn base_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line & ((1 << self.set_shift) - 1)) as usize;
        let tag = line >> self.set_shift;
        debug_assert_ne!(tag, INVALID_TAG);
        (set * self.assoc, tag)
    }

    /// Accesses `addr`, allocating the line on a miss. Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        self.accesses += 1;
        let (base, tag) = self.base_and_tag(addr);
        let ways = &self.tags[base..base + self.assoc];
        if let Some(way) = ways.iter().position(|&t| t == tag) {
            self.stamps[base + way] = self.stamp;
            return true;
        }
        self.misses += 1;
        // Choose the first invalid way if present, otherwise the first LRU way.
        let victim = ways
            .iter()
            .position(|&t| t == INVALID_TAG)
            .unwrap_or_else(|| {
                self.stamps[base..base + self.assoc]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| **s)
                    .map(|(i, _)| i)
                    .expect("cache must have at least one way")
            });
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.stamp;
        false
    }

    /// Checks whether `addr` is resident without updating any state.
    pub fn contains(&self, addr: u64) -> bool {
        let (base, tag) = self.base_and_tag(addr);
        self.tags[base..base + self.assoc].contains(&tag)
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }
}

/// Where a memory access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// L1 hit.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Miss in both levels, served by main memory.
    Memory,
}

/// Statistics of one cache level plus the L2/memory traffic it generated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 instruction-cache accesses and misses.
    pub l1i: (u64, u64),
    /// L1 data-cache accesses and misses.
    pub l1d: (u64, u64),
    /// L2 accesses and misses.
    pub l2: (u64, u64),
}

/// The two-level memory hierarchy of the paper's machine: split 64 KB L1 caches and a
/// unified 512 KB L2 in front of a flat 100-cycle memory.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l2_latency_ps: u64,
    mem_latency_ps: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by `cfg`.
    pub fn new(cfg: &BaselineConfig) -> Self {
        MemoryHierarchy {
            l1i: Cache::new(cfg.icache),
            l1d: Cache::new(cfg.dcache),
            l2: Cache::new(cfg.l2),
            l2_latency_ps: cfg.l2_latency_ps(),
            mem_latency_ps: cfg.mem_latency_ps(),
        }
    }

    /// Performs an instruction fetch at `addr`.
    pub fn fetch(&mut self, addr: u64) -> AccessOutcome {
        if self.l1i.access(addr) {
            AccessOutcome::L1
        } else if self.l2.access(addr) {
            AccessOutcome::L2
        } else {
            AccessOutcome::Memory
        }
    }

    /// Performs a data access at `addr`.
    pub fn data(&mut self, addr: u64) -> AccessOutcome {
        if self.l1d.access(addr) {
            AccessOutcome::L1
        } else if self.l2.access(addr) {
            AccessOutcome::L2
        } else {
            AccessOutcome::Memory
        }
    }

    /// Extra latency, in picoseconds, added beyond the pipelined L1 access for the
    /// given outcome.
    pub fn extra_latency_ps(&self, outcome: AccessOutcome) -> u64 {
        match outcome {
            AccessOutcome::L1 => 0,
            AccessOutcome::L2 => self.l2_latency_ps,
            AccessOutcome::Memory => self.l2_latency_ps + self.mem_latency_ps,
        }
    }

    /// Whether this outcome left the L1.
    pub fn is_l2_access(outcome: AccessOutcome) -> bool {
        outcome != AccessOutcome::L1
    }

    /// Current statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: (self.l1i.accesses(), self.l1i.misses()),
            l1d: (self.l1d.accesses(), self.l1d.misses()),
            l2: (self.l2.accesses(), self.l2.misses()),
        }
    }

    /// L1 data-cache miss rate.
    pub fn l1d_miss_rate(&self) -> f64 {
        self.l1d.miss_rate()
    }

    /// L1 instruction-cache miss rate.
    pub fn l1i_miss_rate(&self) -> f64 {
        self.l1i.miss_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 bytes.
        Cache::new(CacheConfig::new(512, 2, 64))
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1010), "same line, different offset");
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Three lines mapping to the same set (set stride = 4 lines * 64B = 256B).
        let a = 0x0000;
        let b = 0x0400;
        let d = 0x0800;
        assert!(!c.access(a));
        assert!(!c.access(b));
        // Touch `a` so `b` becomes LRU.
        assert!(c.access(a));
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a), "a should still be resident");
        assert!(!c.access(b), "b should have been evicted");
    }

    #[test]
    fn flat_layout_keeps_lru_victim_order_in_a_four_way_set() {
        // 2 sets x 4 ways x 64B lines; lines 0x80 apart share set 0.
        let mut c = Cache::new(CacheConfig::new(512, 4, 64));
        let line = |i: u64| i * 0x80;
        for i in 0..4 {
            assert!(!c.access(line(i)), "cold fill of way {i}");
        }
        // Recency order, oldest first: 1, 3, 0, 2.
        assert!(c.access(line(1)));
        assert!(c.access(line(3)));
        assert!(c.access(line(0)));
        assert!(c.access(line(2)));
        // Filling past capacity evicts in exactly that order.
        let mut resident = vec![0, 1, 2, 3];
        for (new, evicted) in [(4, 1), (5, 3), (6, 0), (7, 2)] {
            assert!(!c.access(line(new)));
            assert!(
                !c.contains(line(evicted)),
                "line {evicted} is the LRU victim"
            );
            resident.retain(|&r| r != evicted);
            resident.push(new);
            for &r in &resident {
                assert!(c.contains(line(r)), "line {r} stays resident");
            }
        }
        // The other set was never touched.
        assert!(!c.contains(0x40));
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut c = small_cache();
        // 64 distinct lines in a 8-line cache: after warm-up, still mostly misses.
        for round in 0..4 {
            for i in 0..64u64 {
                c.access(i * 64);
            }
            let _ = round;
        }
        assert!(c.miss_rate() > 0.9);
    }

    #[test]
    fn small_working_set_fits() {
        let mut c = small_cache();
        for _ in 0..16 {
            for i in 0..4u64 {
                c.access(i * 64);
            }
        }
        assert!(c.miss_rate() < 0.1);
    }

    #[test]
    fn contains_does_not_allocate() {
        let mut c = small_cache();
        assert!(!c.contains(0x40));
        c.access(0x40);
        assert!(c.contains(0x40));
        assert_eq!(c.accesses(), 1);
    }

    #[test]
    fn hierarchy_latencies_reflect_outcomes() {
        let cfg = BaselineConfig::paper_default();
        let mut h = MemoryHierarchy::new(&cfg);
        let first = h.data(0xdead_0000);
        assert_eq!(first, AccessOutcome::Memory);
        let second = h.data(0xdead_0000);
        assert_eq!(second, AccessOutcome::L1);
        assert_eq!(h.extra_latency_ps(AccessOutcome::L1), 0);
        assert!(h.extra_latency_ps(AccessOutcome::Memory) > h.extra_latency_ps(AccessOutcome::L2));
        assert_eq!(
            h.extra_latency_ps(AccessOutcome::Memory),
            cfg.l2_latency_ps() + cfg.mem_latency_ps()
        );
    }

    #[test]
    fn l2_catches_l1_victims() {
        let cfg = BaselineConfig::paper_default();
        let mut h = MemoryHierarchy::new(&cfg);
        // Touch a working set bigger than L1 (64KB) but smaller than L2 (512KB).
        let lines = 4096u64; // 256 KB
        for _ in 0..3 {
            for i in 0..lines {
                h.data(0x1000_0000 + i * 64);
            }
        }
        let stats = h.stats();
        assert!(stats.l1d.1 > 0, "L1 should miss");
        let l2_miss_rate = stats.l2.1 as f64 / stats.l2.0 as f64;
        assert!(
            l2_miss_rate < 0.5,
            "L2 should absorb most L1 misses, rate {l2_miss_rate}"
        );
    }
}
