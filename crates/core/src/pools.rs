//! Pool-based, two-phase register renaming (paper §3.4–3.5).

use crate::config::PoolConfig;
use flywheel_isa::{ArchReg, StaticInst, NUM_ARCH_REGS};
use flywheel_uarch::{PhysReg, PhysRegFile, Rename, RenameOutcome, SrcList};

/// Statistics of the pool renamer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Successful renames.
    pub renames: u64,
    /// Rename attempts that stalled because the destination register's pool was
    /// exhausted.
    pub pool_stalls: u64,
    /// Register redistributions performed.
    pub redistributions: u64,
}

/// The Flywheel register allocation mechanism: every architected register owns a
/// private pool of physical registers used as a circular buffer.
///
/// The first renaming phase (Register Rename) assigns the next entry of the
/// destination register's pool; the second phase (Register Update) maps the logical
/// entry to the physical register file. For simulation purposes the two phases are
/// folded into one call that returns final physical identifiers — the extra pipeline
/// stage of the Register Update phase is modelled by the pipeline configuration, not
/// here.
///
/// The pool sizes adapt at run time: every `redistribution_interval` cycles the
/// per-register stall counters are examined and entries are moved from cold registers
/// to the bottleneck registers (the dynamic scheme of reference \[12\] in §3.5). A
/// redistribution costs `redistribution_cost` cycles and invalidates the Execution
/// Cache, which the pipeline driver enacts.
#[derive(Debug, Clone)]
pub struct PoolRenamer {
    cfg: PoolConfig,
    /// Pool size per architected register.
    pool_size: Vec<u32>,
    /// Physical base offset of each pool (recomputed at redistribution).
    pool_base: Vec<u32>,
    /// Next entry (logical id) to allocate within each pool.
    cursor: Vec<u32>,
    /// Writes currently in flight per architected register.
    inflight: Vec<u32>,
    /// Current mapping of each architected register (physical id).
    mapping: Vec<PhysReg>,
    /// Stall counters since the last redistribution check.
    stall_counts: Vec<u64>,
    rename_counts: Vec<u64>,
    stats: PoolStats,
}

impl PoolRenamer {
    /// Creates the renamer with pools of equal size.
    ///
    /// # Panics
    ///
    /// Panics if the configuration provides fewer than two entries per register.
    pub fn new(cfg: PoolConfig) -> Self {
        let per_pool = cfg.total_phys_regs / NUM_ARCH_REGS as u32;
        assert!(
            per_pool >= 2,
            "each pool needs at least two physical registers"
        );
        let pool_size = vec![per_pool; NUM_ARCH_REGS];
        let mut renamer = PoolRenamer {
            cfg,
            pool_size,
            pool_base: vec![0; NUM_ARCH_REGS],
            cursor: vec![0; NUM_ARCH_REGS],
            inflight: vec![0; NUM_ARCH_REGS],
            mapping: vec![0; NUM_ARCH_REGS],
            stall_counts: vec![0; NUM_ARCH_REGS],
            rename_counts: vec![0; NUM_ARCH_REGS],
            stats: PoolStats::default(),
        };
        renamer.recompute_bases();
        renamer
    }

    fn recompute_bases(&mut self) {
        let mut base = 0;
        for i in 0..NUM_ARCH_REGS {
            self.pool_base[i] = base;
            base += self.pool_size[i];
            self.cursor[i] = 0;
            self.mapping[i] = self.pool_base[i] as PhysReg;
        }
        debug_assert!(base <= self.cfg.total_phys_regs);
    }

    /// Pool size currently assigned to `reg`.
    pub fn pool_size(&self, reg: ArchReg) -> u32 {
        self.pool_size[reg.flat_index()]
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Current physical mapping of `reg`.
    pub fn mapping(&self, reg: ArchReg) -> PhysReg {
        self.mapping[reg.flat_index()]
    }

    /// Whether a new in-flight write to `reg` could be renamed right now without
    /// stalling.
    pub fn can_allocate(&self, reg: ArchReg) -> bool {
        let idx = reg.flat_index();
        self.inflight[idx] + 1 < self.pool_size[idx]
    }
}

impl Rename for PoolRenamer {
    /// Renames `inst`, allocating the next pool entry for its destination.
    ///
    /// Returns `None` (leaving all state unchanged) when the destination pool has no
    /// free entry — i.e. when the number of in-flight writes to that architected
    /// register equals its pool size minus one (one entry always holds the last
    /// committed value).
    fn rename(&mut self, inst: &StaticInst, prf: &mut PhysRegFile) -> Option<RenameOutcome> {
        let mut srcs = SrcList::default();
        if let Some(s) = inst.src1() {
            srcs.push(self.mapping[s.flat_index()]);
        }
        if let Some(s) = inst.src2() {
            srcs.push(self.mapping[s.flat_index()]);
        }
        let (dst, prev, dst_arch) = if let Some(d) = inst.dst() {
            let idx = d.flat_index();
            self.rename_counts[idx] += 1;
            if self.inflight[idx] + 1 >= self.pool_size[idx] {
                self.stall_counts[idx] += 1;
                self.stats.pool_stalls += 1;
                return None;
            }
            let size = self.pool_size[idx];
            let slot = (self.cursor[idx] + 1) % size;
            self.cursor[idx] = slot;
            let phys = (self.pool_base[idx] + slot) as PhysReg;
            let prev = self.mapping[idx];
            self.mapping[idx] = phys;
            self.inflight[idx] += 1;
            prf.mark_pending(phys);
            (Some(phys), Some(prev), Some(d))
        } else {
            (None, None, None)
        };
        self.stats.renames += 1;
        Some(RenameOutcome {
            srcs,
            dst,
            prev,
            dst_arch,
        })
    }

    /// Releases the pool entry when the instruction retires.
    fn commit(&mut self, outcome: &RenameOutcome) {
        if let Some(arch) = outcome.dst_arch {
            let idx = arch.flat_index();
            debug_assert!(self.inflight[idx] > 0);
            self.inflight[idx] -= 1;
        }
    }

    /// Undoes a rename during mispredict recovery (youngest first).
    fn squash(&mut self, outcome: &RenameOutcome) {
        if let (Some(arch), Some(prev)) = (outcome.dst_arch, outcome.prev) {
            let idx = arch.flat_index();
            debug_assert!(self.inflight[idx] > 0);
            self.inflight[idx] -= 1;
            self.mapping[idx] = prev;
            let size = self.pool_size[idx];
            self.cursor[idx] = (self.cursor[idx] + size - 1) % size;
        }
    }

    /// Always `false`: a failed pool rename counts a pool stall, so every
    /// attempt is machine activity the idle bound must not skip.
    fn blocks(&self, _inst: &StaticInst) -> bool {
        false
    }
}

impl PoolRenamer {
    /// Checks the redistribution counters. Returns `true` when a redistribution was
    /// performed; the caller must charge `redistribution_cost` cycles and invalidate
    /// the Execution Cache.
    ///
    /// Must only be called when no instruction is in flight (the pipeline driver
    /// calls it at a quiescent point after draining).
    pub fn maybe_redistribute(&mut self) -> bool {
        let mut bottlenecks = Vec::new();
        let mut cold = Vec::new();
        for i in 0..NUM_ARCH_REGS {
            let renames = self.rename_counts[i].max(1);
            let stall_rate = self.stall_counts[i] as f64 / renames as f64;
            if stall_rate > self.cfg.bottleneck_threshold && self.stall_counts[i] > 4 {
                bottlenecks.push(i);
            } else if self.rename_counts[i] < 4 && self.pool_size[i] > 2 {
                cold.push(i);
            }
        }
        self.stall_counts.iter_mut().for_each(|c| *c = 0);
        self.rename_counts.iter_mut().for_each(|c| *c = 0);
        if bottlenecks.is_empty() || cold.is_empty() {
            return false;
        }
        // Move one entry from each cold register to a bottleneck register,
        // round-robin, without exceeding the total budget.
        let mut moved = false;
        let mut cold_iter = cold.into_iter().cycle();
        for (n, b) in bottlenecks.iter().enumerate() {
            if n >= 16 {
                break;
            }
            // Find a donor that still has entries to give.
            let mut donor = None;
            for _ in 0..NUM_ARCH_REGS {
                let c = cold_iter.next().expect("cycle iterator never ends");
                if self.pool_size[c] > 2 && c != *b {
                    donor = Some(c);
                    break;
                }
            }
            if let Some(d) = donor {
                self.pool_size[d] -= 1;
                self.pool_size[*b] += 1;
                moved = true;
            }
        }
        if moved {
            self.stats.redistributions += 1;
            self.recompute_bases();
        }
        moved
    }

    /// Fraction of architected registers whose pool currently holds more than four
    /// entries (the paper reports 10–15 % in steady state).
    pub fn fraction_with_extra_entries(&self) -> f64 {
        let n = self.pool_size.iter().filter(|&&s| s > 4).count();
        n as f64 / NUM_ARCH_REGS as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flywheel_isa::ArchReg;

    fn alu(dst: u8, src: u8) -> StaticInst {
        StaticInst::alu(ArchReg::int(dst), ArchReg::int(src), None)
    }

    fn renamer() -> (PoolRenamer, PhysRegFile) {
        let cfg = PoolConfig::paper();
        (PoolRenamer::new(cfg), PhysRegFile::new(cfg.total_phys_regs))
    }

    #[test]
    fn default_pools_hold_eight_entries() {
        let (r, _) = renamer();
        assert_eq!(r.pool_size(ArchReg::int(5)), 8);
        assert_eq!(r.pool_size(ArchReg::fp(5)), 8);
    }

    #[test]
    fn rename_allocates_within_the_destination_pool() {
        let (mut r, mut prf) = renamer();
        let base_mapping = r.mapping(ArchReg::int(3));
        let out = r.rename(&alu(3, 3), &mut prf).unwrap();
        assert_eq!(out.srcs.as_slice(), &[base_mapping]);
        let dst = out.dst.unwrap();
        assert_ne!(dst, base_mapping);
        // The new mapping stays within register 3's pool (8 consecutive ids).
        assert!(dst >= base_mapping && dst < base_mapping + 8);
    }

    #[test]
    fn pool_exhaustion_stalls_only_that_register() {
        let (mut r, mut prf) = renamer();
        // 7 in-flight writes to r4 fill the pool (one entry keeps the committed
        // value).
        for _ in 0..7 {
            assert!(r.rename(&alu(4, 4), &mut prf).is_some());
        }
        assert!(
            r.rename(&alu(4, 4), &mut prf).is_none(),
            "pool must be exhausted"
        );
        assert!(
            r.rename(&alu(5, 4), &mut prf).is_some(),
            "other pools are unaffected"
        );
        assert!(r.stats().pool_stalls >= 1);
    }

    #[test]
    fn commit_frees_pool_entries() {
        let (mut r, mut prf) = renamer();
        let mut outcomes = Vec::new();
        for _ in 0..7 {
            outcomes.push(r.rename(&alu(6, 6), &mut prf).unwrap());
        }
        assert!(r.rename(&alu(6, 6), &mut prf).is_none());
        r.commit(&outcomes[0]);
        assert!(r.rename(&alu(6, 6), &mut prf).is_some());
    }

    #[test]
    fn squash_restores_mapping_and_capacity() {
        let (mut r, mut prf) = renamer();
        let before = r.mapping(ArchReg::int(9));
        let o1 = r.rename(&alu(9, 1), &mut prf).unwrap();
        let o2 = r.rename(&alu(9, 2), &mut prf).unwrap();
        r.squash(&o2);
        r.squash(&o1);
        assert_eq!(r.mapping(ArchReg::int(9)), before);
        // Full capacity available again.
        for _ in 0..7 {
            assert!(r.rename(&alu(9, 9), &mut prf).is_some());
        }
    }

    #[test]
    fn redistribution_moves_entries_to_bottleneck_registers() {
        let (mut r, mut prf) = renamer();
        // Hammer register 2 so it stalls, leave most others untouched.
        let mut outstanding = std::collections::VecDeque::new();
        for _ in 0..600 {
            match r.rename(&alu(2, 2), &mut prf) {
                Some(o) => outstanding.push_back(o),
                None => {
                    // Retire the oldest to make room (models the ROB draining).
                    if let Some(o) = outstanding.pop_front() {
                        r.commit(&o);
                    }
                }
            }
        }
        while let Some(o) = outstanding.pop_front() {
            r.commit(&o);
        }
        assert!(
            r.maybe_redistribute(),
            "register 2 should be detected as a bottleneck"
        );
        assert!(r.pool_size(ArchReg::int(2)) > 8);
        assert_eq!(r.stats().redistributions, 1);
        // Total physical registers is conserved.
        let total: u32 = (0..NUM_ARCH_REGS)
            .map(|i| r.pool_size(ArchReg::from_flat_index(i)))
            .sum();
        assert!(total <= PoolConfig::paper().total_phys_regs);
        assert!(r.fraction_with_extra_entries() > 0.0);
    }

    #[test]
    fn redistribution_without_pressure_is_a_no_op() {
        let (mut r, mut prf) = renamer();
        for i in 1..20u8 {
            let o = r.rename(&alu(i, i), &mut prf).unwrap();
            r.commit(&o);
        }
        assert!(!r.maybe_redistribute());
        assert_eq!(r.stats().redistributions, 0);
    }

    #[test]
    fn stores_and_branches_do_not_consume_pool_entries() {
        let (mut r, mut prf) = renamer();
        let store = StaticInst::store(ArchReg::int(1), ArchReg::int(2));
        for _ in 0..100 {
            assert!(r.rename(&store, &mut prf).is_some());
        }
    }
}
