//! The Execution Cache: issue-order trace storage for pre-scheduled execution
//! (paper §3.3).

use crate::config::EcConfig;
use flywheel_isa::{Pc, StaticInst};
use std::collections::HashMap;
use std::rc::Rc;

/// One instruction recorded in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordedInst {
    /// PC of the instruction (used to match the replayed stream against the actual
    /// execution).
    pub pc: Pc,
    /// The static instruction (operands in architected terms; physical addresses are
    /// regenerated by the Register Update stage at replay).
    pub stat: StaticInst,
    /// Issue Unit this instruction belongs to: all instructions sharing a unit were
    /// issued in the same cycle during trace creation and are re-issued together.
    pub unit: u32,
}

/// A completed trace stored in the Execution Cache.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// PC of the first instruction (the tag-array key).
    pub start_pc: Pc,
    /// Instructions in program order.
    pub insts: Vec<RecordedInst>,
    /// Number of issue units.
    pub units: u32,
}

impl Trace {
    /// Number of instructions in the trace.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Number of data-array blocks the trace occupies for `block_insts`-instruction
    /// blocks.
    pub fn blocks(&self, block_insts: u32) -> u64 {
        (self.len() as u64).div_ceil(block_insts as u64)
    }
}

/// Builds one trace during trace-creation mode (the Fill Buffer plus trace-assembly
/// logic of Figure 7).
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    start_pc: Pc,
    /// Recorded instructions together with their program-order key (the dynamic
    /// sequence number at creation time, used only for sorting at `finish`).
    insts: Vec<(u64, RecordedInst)>,
    current_unit: u32,
    unit_open: bool,
}

impl TraceBuilder {
    /// Starts building a trace whose first instruction lives at `start_pc`.
    pub fn new(start_pc: Pc) -> Self {
        TraceBuilder {
            start_pc,
            insts: Vec::new(),
            current_unit: 0,
            unit_open: false,
        }
    }

    /// The PC the trace will be tagged with.
    pub fn start_pc(&self) -> Pc {
        self.start_pc
    }

    /// Number of instructions recorded so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Closes the current issue unit; the next recorded instruction opens a new one.
    /// Called once per execution-core cycle after issue.
    pub fn close_unit(&mut self) {
        if self.unit_open {
            self.current_unit += 1;
            self.unit_open = false;
        }
    }

    /// Records one issued instruction into the currently open issue unit.
    ///
    /// `program_order` is the dynamic sequence number of the instruction at creation
    /// time; it is only used to restore program order when the trace is finalized
    /// (the hardware keeps this information implicitly in the ROB).
    pub fn record(&mut self, program_order: u64, pc: Pc, stat: StaticInst) {
        self.unit_open = true;
        self.insts.push((
            program_order,
            RecordedInst {
                pc,
                stat,
                unit: self.current_unit,
            },
        ));
    }

    /// Finalizes the trace: instructions are stored in program order, each tagged
    /// with the issue unit it was scheduled into during creation. The issue-order
    /// grouping is exactly what the data array stores; program order is what the
    /// replay logic needs to match the trace against the actual instruction stream.
    pub fn finish(mut self) -> Trace {
        self.close_unit();
        let units = self.current_unit.max(1);
        let mut insts = self.insts;
        // Sizes of each issue unit in schedule order.
        let mut unit_sizes = vec![0usize; units as usize];
        for (_, inst) in &insts {
            unit_sizes[inst.unit as usize] += 1;
        }
        insts.sort_unstable_by_key(|(order, _)| *order);
        // Re-tag the program-ordered instructions with contiguous issue units whose
        // sizes match the recorded schedule. This keeps the replay cost (one unit per
        // cycle) equal to the creation-time schedule length while letting the replay
        // logic walk the trace strictly in program order.
        let mut retagged = Vec::with_capacity(insts.len());
        let mut unit = 0u32;
        let mut left_in_unit = unit_sizes.first().copied().unwrap_or(0);
        for (_, mut inst) in insts {
            while left_in_unit == 0 && (unit as usize) + 1 < unit_sizes.len() {
                unit += 1;
                left_in_unit = unit_sizes[unit as usize];
            }
            inst.unit = unit;
            left_in_unit = left_in_unit.saturating_sub(1);
            retagged.push(inst);
        }
        Trace {
            start_pc: self.start_pc,
            insts: retagged,
            units,
        }
    }
}

/// Execution Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EcStats {
    /// Trace look-ups performed.
    pub lookups: u64,
    /// Look-ups that found a trace starting at the requested PC.
    pub hits: u64,
    /// Traces stored.
    pub traces_stored: u64,
    /// Traces evicted for capacity.
    pub evictions: u64,
    /// Data-array blocks written.
    pub blocks_written: u64,
}

impl EcStats {
    /// Look-up hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// The Execution Cache: a tag array mapping start PCs to traces and a data array
/// holding blocks of pre-scheduled Issue Units.
///
/// Capacity is managed in instruction slots (`size_bytes / bytes_per_inst`); adding a
/// trace beyond capacity evicts the least recently used traces. A trace with the same
/// start PC as an existing one replaces it (the newer schedule wins).
///
/// Traces are shared: a hit hands out the stored [`Rc`], so starting a replay
/// never copies the recorded instructions.
#[derive(Debug, Clone)]
pub struct ExecutionCache {
    cfg: EcConfig,
    traces: HashMap<Pc, (Rc<Trace>, u64)>,
    used_slots: u64,
    access_stamp: u64,
    stats: EcStats,
}

impl ExecutionCache {
    /// Creates an empty Execution Cache.
    pub fn new(cfg: EcConfig) -> Self {
        ExecutionCache {
            cfg,
            traces: HashMap::new(),
            used_slots: 0,
            access_stamp: 0,
            stats: EcStats::default(),
        }
    }

    /// The configuration of this cache.
    pub fn config(&self) -> EcConfig {
        self.cfg
    }

    /// Current statistics.
    pub fn stats(&self) -> EcStats {
        self.stats
    }

    /// Fraction of the data-array slots currently holding instructions.
    pub fn utilization(&self) -> f64 {
        self.used_slots as f64 / self.cfg.capacity_insts() as f64
    }

    /// Number of traces currently stored.
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    fn slots_for(&self, trace: &Trace) -> u64 {
        trace.blocks(self.cfg.block_insts) * self.cfg.block_insts as u64
    }

    /// Looks up a trace starting at `pc`, refreshing its LRU stamp on a hit.
    pub fn lookup(&mut self, pc: Pc) -> Option<&Rc<Trace>> {
        self.stats.lookups += 1;
        self.access_stamp += 1;
        let (trace, stamp) = self.traces.get_mut(&pc)?;
        *stamp = self.access_stamp;
        self.stats.hits += 1;
        Some(trace)
    }

    /// Checks for a trace at `pc` without counting a look-up (used by tests and by
    /// the harness for reporting).
    pub fn peek(&self, pc: Pc) -> Option<&Trace> {
        self.traces.get(&pc).map(|(t, _)| &**t)
    }

    /// Inserts a finished trace, evicting older traces if the data array is full.
    /// Returns the number of data-array blocks written.
    pub fn insert(&mut self, trace: Trace) -> u64 {
        if trace.is_empty() {
            return 0;
        }
        let blocks = trace.blocks(self.cfg.block_insts);
        let slots = self.slots_for(&trace);
        if slots > self.cfg.capacity_insts() {
            // A single trace larger than the whole array is never stored.
            return 0;
        }
        // Replace any existing trace at the same start PC.
        if let Some((old, _)) = self.traces.remove(&trace.start_pc) {
            self.used_slots -= self.slots_for(&old);
        }
        // Evict LRU traces until the new one fits.
        while self.used_slots + slots > self.cfg.capacity_insts() {
            let Some((&victim_pc, _)) = self.traces.iter().min_by_key(|(_, (_, stamp))| *stamp)
            else {
                break;
            };
            let (victim, _) = self.traces.remove(&victim_pc).expect("victim exists");
            self.used_slots -= self.slots_for(&victim);
            self.stats.evictions += 1;
        }
        self.access_stamp += 1;
        self.used_slots += slots;
        self.stats.traces_stored += 1;
        self.stats.blocks_written += blocks;
        self.traces
            .insert(trace.start_pc, (Rc::new(trace), self.access_stamp));
        blocks
    }

    /// Removes the trace starting at `pc`, if present. Used when a replay diverges
    /// from the recorded path: the schedule no longer reflects the program's
    /// behaviour and the slot is better spent on a freshly built trace.
    pub fn remove(&mut self, pc: Pc) {
        if let Some((old, _)) = self.traces.remove(&pc) {
            self.used_slots -= self.slots_for(&old);
        }
    }

    /// Invalidates every stored trace (required after a register redistribution,
    /// §3.5).
    pub fn invalidate_all(&mut self) {
        self.traces.clear();
        self.used_slots = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flywheel_isa::ArchReg;

    fn inst() -> StaticInst {
        StaticInst::alu(ArchReg::int(1), ArchReg::int(2), None)
    }

    fn trace_at(pc: u64, len: usize) -> Trace {
        let mut b = TraceBuilder::new(Pc::new(pc));
        for i in 0..len {
            b.record(i as u64, Pc::new(pc + 4 * i as u64), inst());
            if i % 3 == 2 {
                b.close_unit();
            }
        }
        b.finish()
    }

    #[test]
    fn builder_groups_instructions_into_units() {
        let t = trace_at(0x1000, 7);
        assert_eq!(t.len(), 7);
        assert_eq!(t.units, 3);
        assert_eq!(t.insts[0].unit, 0);
        assert_eq!(t.insts[3].unit, 1);
        assert_eq!(t.insts[6].unit, 2);
        assert_eq!(t.blocks(8), 1);
        assert_eq!(trace_at(0x1000, 17).blocks(8), 3);
    }

    #[test]
    fn lookup_hits_after_insert() {
        let mut ec = ExecutionCache::new(EcConfig::paper());
        assert!(ec.lookup(Pc::new(0x1000)).is_none());
        ec.insert(trace_at(0x1000, 20));
        assert!(ec.lookup(Pc::new(0x1000)).is_some());
        assert!(ec.lookup(Pc::new(0x2000)).is_none());
        let s = ec.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.hits, 1);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn same_start_pc_replaces_the_old_trace() {
        let mut ec = ExecutionCache::new(EcConfig::paper());
        ec.insert(trace_at(0x1000, 30));
        let used = ec.utilization();
        ec.insert(trace_at(0x1000, 10));
        assert!(
            ec.utilization() < used,
            "shorter replacement should shrink usage"
        );
        assert_eq!(ec.trace_count(), 1);
        assert_eq!(ec.peek(Pc::new(0x1000)).unwrap().len(), 10);
    }

    #[test]
    fn capacity_is_bounded_and_lru_evicts() {
        let mut cfg = EcConfig::paper();
        cfg.size_bytes = 64 * 8; // 64 instruction slots
        let mut ec = ExecutionCache::new(cfg);
        ec.insert(trace_at(0x1000, 24));
        ec.insert(trace_at(0x2000, 24));
        // Touch the first trace so the second becomes LRU.
        assert!(ec.lookup(Pc::new(0x1000)).is_some());
        ec.insert(trace_at(0x3000, 24));
        assert!(
            ec.peek(Pc::new(0x1000)).is_some(),
            "recently used trace survives"
        );
        assert!(ec.peek(Pc::new(0x2000)).is_none(), "LRU trace evicted");
        assert!(ec.stats().evictions >= 1);
        assert!(ec.utilization() <= 1.0);
    }

    #[test]
    fn oversized_traces_are_rejected() {
        let mut cfg = EcConfig::paper();
        cfg.size_bytes = 16 * 8;
        let mut ec = ExecutionCache::new(cfg);
        assert_eq!(ec.insert(trace_at(0x1000, 100)), 0);
        assert_eq!(ec.trace_count(), 0);
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let mut ec = ExecutionCache::new(EcConfig::paper());
        ec.insert(trace_at(0x1000, 10));
        ec.insert(trace_at(0x2000, 10));
        ec.invalidate_all();
        assert_eq!(ec.trace_count(), 0);
        assert_eq!(ec.utilization(), 0.0);
        assert!(ec.lookup(Pc::new(0x1000)).is_none());
    }

    #[test]
    fn empty_traces_are_not_stored() {
        let mut ec = ExecutionCache::new(EcConfig::paper());
        let b = TraceBuilder::new(Pc::new(0x1000));
        assert_eq!(ec.insert(b.finish()), 0);
        assert_eq!(ec.trace_count(), 0);
    }
}
