//! Property test of [`IssueScheduler`]'s store-blocked load parking against a
//! naive model.
//!
//! The scheduler keeps released loads that an older unresolved store blocks on
//! a parked list, and moves them back to the ready list when the stores ahead
//! of them resolve ([`IssueScheduler::issue_store`]). Both kernels rely on
//! three properties, checked here after every step of seeded random dispatch,
//! wake, issue, retire and squash sequences driven through the public API of
//! [`IssueScheduler`], [`StoreIndex`], [`InflightTable`] and [`PhysRegFile`]:
//!
//! * the ready list is exactly the released (woken, operands due) entries that
//!   are not store-blocked, in program order;
//! * the parked list is exactly the released store-blocked loads, in program
//!   order;
//! * a store issued mid-scan puts the loads it unblocks behind the scan
//!   position, so a scan that re-reads the ready length still visits them.

use flywheel_isa::{ArchReg, DynInst, MemAccess, OpClass, Pc, StaticInst};
use flywheel_rng::SimRng;
use flywheel_uarch::{
    EntryState, InflightEntry, InflightTable, IssueScheduler, PhysReg, PhysRegFile, StoreIndex,
};

/// Physical registers; allocated round-robin above the always-ready ones, so a
/// register is only reused long after its producer left the window.
const PHYS_REGS: usize = 4096;
/// Registers below this hold architected state and are always ready.
const ARCH_READY: PhysReg = 8;

/// The model's view of one dispatched instruction.
struct Inst {
    seq: u64,
    op: OpClass,
    dst: Option<PhysReg>,
    /// Sources whose producer had not issued at dispatch and has not since.
    pending: Vec<PhysReg>,
    /// Cycle by which every source that has issued delivers its value.
    ready_cycle: u64,
    released: bool,
    issued: bool,
}

/// The naive reference: every dispatched instruction in program order, with a
/// per-register scoreboard, and "blocked" recomputed from scratch each time.
struct Model {
    insts: Vec<Inst>,
    ready_at: Vec<u64>,
    wakeup_extra: u64,
}

impl Model {
    fn get(&self, seq: u64) -> &Inst {
        let pos = self.insts.binary_search_by_key(&seq, |i| i.seq).unwrap();
        &self.insts[pos]
    }

    fn get_mut(&mut self, seq: u64) -> &mut Inst {
        let pos = self.insts.binary_search_by_key(&seq, |i| i.seq).unwrap();
        &mut self.insts[pos]
    }

    /// Whether an older store has not issued (resolved its address) yet.
    fn blocked(&self, inst: &Inst) -> bool {
        inst.op == OpClass::Load
            && self
                .insts
                .iter()
                .any(|i| i.op == OpClass::Store && !i.issued && i.seq < inst.seq)
    }

    /// The released, unissued entries split into (ready, parked).
    fn expected(&self) -> (Vec<u64>, Vec<u64>) {
        let (parked, ready): (Vec<&Inst>, Vec<&Inst>) = self
            .insts
            .iter()
            .filter(|i| i.released && !i.issued)
            .partition(|i| self.blocked(i));
        (
            ready.iter().map(|i| i.seq).collect(),
            parked.iter().map(|i| i.seq).collect(),
        )
    }

    fn parked(&self) -> Vec<u64> {
        self.expected().1
    }

    fn release(&mut self, cycle: u64) {
        let extra = self.wakeup_extra;
        for i in &mut self.insts {
            if !i.issued && i.pending.is_empty() && i.ready_cycle + extra <= cycle {
                i.released = true;
            }
        }
    }

    fn wake(&mut self, reg: PhysReg, at: u64) {
        self.ready_at[reg as usize] = at;
        for i in &mut self.insts {
            let before = i.pending.len();
            i.pending.retain(|&r| r != reg);
            if i.pending.len() != before {
                i.ready_cycle = i.ready_cycle.max(at);
            }
        }
    }
}

fn dyn_inst(seq: u64, op: OpClass) -> DynInst {
    let (r1, r2) = (ArchReg::int(1), ArchReg::int(2));
    let (stat, mem) = match op {
        OpClass::Load => (
            StaticInst::load(r1, r2),
            Some(MemAccess::new(0x8000 + seq * 8, 8)),
        ),
        OpClass::Store => (
            StaticInst::store(r1, r2),
            Some(MemAccess::new(0x8000 + seq * 8, 8)),
        ),
        _ => (StaticInst::alu(r1, r2, None), None),
    };
    DynInst {
        seq,
        pc: Pc::new(0x4000 + seq * 4),
        stat,
        taken: false,
        next_pc: Pc::new(0x4000 + seq * 4 + 4),
        mem,
    }
}

fn check_lists(sched: &IssueScheduler, model: &Model, step: usize) {
    let (ready, parked) = model.expected();
    let actual: Vec<u64> = (0..sched.ready_len()).map(|i| sched.ready_seq(i)).collect();
    assert_eq!(actual, ready, "ready list at step {step}");
    assert_eq!(
        sched.parked(),
        parked.as_slice(),
        "parked list at step {step}"
    );
}

/// How often the campaign exercised the parking paths.
#[derive(Default)]
struct Coverage {
    parked: usize,
    unblocked_mid_scan: usize,
}

/// One fuzz campaign of `steps` back-end cycles.
fn campaign(seed: u64, wakeup_extra: u64, steps: usize, max_live: usize) -> Coverage {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut table = InflightTable::with_capacity(64);
    let mut prf = PhysRegFile::new(PHYS_REGS as u32);
    let mut sched = IssueScheduler::new(PHYS_REGS, wakeup_extra);
    let mut stores = StoreIndex::new();
    let mut model = Model {
        insts: Vec::new(),
        ready_at: vec![0; PHYS_REGS],
        wakeup_extra,
    };
    let mut coverage = Coverage::default();
    let mut next_seq = 100u64;
    let mut next_reg = ARCH_READY;

    for step in 0..steps {
        let cycle = step as u64 + 1;

        // Release entries whose operands have arrived.
        sched.release_due(&table, &stores, cycle);
        model.release(cycle);
        check_lists(&sched, &model, step);
        coverage.parked += sched.parked().len();

        // Issue scan: issue a random subset of the ready list, re-reading its
        // length on every step, as the kernels do.
        if rng.range_u64(0, 100) < 70 {
            let mut issued = Vec::new();
            let mut visited = Vec::new();
            let mut must_visit = Vec::new();
            let mut wakes = Vec::new();
            let mut i = 0;
            while i < sched.ready_len() {
                let seq = sched.ready_seq(i);
                i += 1;
                visited.push(seq);
                assert!(
                    !model.blocked(model.get(seq)),
                    "store-blocked load {seq} on the ready list at step {step}"
                );
                if !rng.bool() {
                    continue;
                }
                let entry = &mut table[seq];
                entry.state = EntryState::Issued;
                entry.in_iw = false;
                let (op, dst) = (entry.d.stat.op(), entry.rename.dst);
                if let Some(dst) = dst {
                    let at = cycle + rng.range_inclusive_u64(0, 12);
                    prf.mark_ready(dst, at);
                    sched.defer_wake(dst, at);
                    wakes.push((dst, at));
                }
                let parked_before = model.parked();
                model.get_mut(seq).issued = true;
                if op == OpClass::Store {
                    sched.issue_store(&mut stores, seq, (0x8000 + seq * 8) & !63);
                    let parked_after = model.parked();
                    assert_eq!(sched.parked(), parked_after.as_slice(), "step {step}");
                    for load in parked_before {
                        if parked_after.contains(&load) {
                            continue;
                        }
                        // Unblocked mid-scan: it must sit behind the scan
                        // position, where the rest of this scan will see it.
                        let pos = (0..sched.ready_len())
                            .find(|&k| sched.ready_seq(k) == load)
                            .expect("an unblocked load returns to the ready list");
                        assert!(pos >= i, "load {load} merged before the scan position");
                        must_visit.push(load);
                        coverage.unblocked_mid_scan += 1;
                    }
                }
                issued.push(seq);
            }
            for load in must_visit {
                assert!(visited.contains(&load), "scan missed unblocked load {load}");
            }
            sched.remove_issued(&issued);
            sched.drain_wakes(&mut table);
            for (reg, at) in wakes {
                model.wake(reg, at);
            }
            check_lists(&sched, &model, step);
        }

        // Dispatch a burst of loads, stores and ALU operations.
        if rng.range_u64(0, 100) < 60 {
            for _ in 0..rng.range_inclusive_u64(1, 4) {
                if model.insts.len() >= max_live {
                    break;
                }
                let seq = next_seq;
                next_seq += 1;
                let op = match rng.range_u64(0, 100) {
                    0..=34 => OpClass::Load,
                    35..=59 => OpClass::Store,
                    _ => OpClass::IntAlu,
                };
                // Sources: architected registers or recent live producers.
                let producers: Vec<PhysReg> = model
                    .insts
                    .iter()
                    .rev()
                    .take(8)
                    .filter_map(|i| i.dst)
                    .collect();
                let mut srcs = Vec::new();
                for _ in 0..rng.range_inclusive_u64(1, 2) {
                    let k = rng.range_usize(0, producers.len() + 2);
                    srcs.push(match producers.get(k) {
                        Some(&reg) => reg,
                        None => rng.range_u64(0, ARCH_READY as u64) as PhysReg,
                    });
                }
                let dst = (op != OpClass::Store).then(|| {
                    let reg = next_reg;
                    next_reg = if next_reg as usize + 1 == PHYS_REGS {
                        ARCH_READY
                    } else {
                        next_reg + 1
                    };
                    reg
                });

                let mut entry = InflightEntry::new_frontend(dyn_inst(seq, op), 0, false);
                entry.rename.srcs = srcs.iter().copied().collect();
                entry.rename.dst = dst;
                entry.state = EntryState::Waiting;
                entry.in_iw = true;
                table.insert(entry);
                sched.on_dispatch(&mut table, seq, &prf);
                if op == OpClass::Store {
                    stores.on_dispatch_store(seq);
                }

                let pending = srcs
                    .iter()
                    .copied()
                    .filter(|&r| model.ready_at[r as usize] == u64::MAX)
                    .collect();
                let ready_cycle = srcs
                    .iter()
                    .map(|&r| model.ready_at[r as usize])
                    .filter(|&at| at != u64::MAX)
                    .max()
                    .unwrap_or(0);
                if let Some(dst) = dst {
                    prf.mark_pending(dst);
                    model.ready_at[dst as usize] = u64::MAX;
                }
                model.insts.push(Inst {
                    seq,
                    op,
                    dst,
                    pending,
                    ready_cycle,
                    released: false,
                    issued: false,
                });
            }
            check_lists(&sched, &model, step);
        }

        // Retire issued instructions from the window head.
        if rng.range_u64(0, 100) < 40 {
            for _ in 0..rng.range_inclusive_u64(1, 4) {
                let Some(head) = model.insts.first() else {
                    break;
                };
                if !head.issued {
                    break;
                }
                let (seq, op) = (head.seq, head.op);
                table.remove(seq).expect("retiring entry present");
                if op == OpClass::Store {
                    stores.on_store_retire(seq);
                }
                model.insts.remove(0);
            }
            check_lists(&sched, &model, step);
        }

        // Squash everything younger than a random live instruction.
        if rng.range_u64(0, 100) < 6 && !model.insts.is_empty() {
            let k = rng.range_usize(0, model.insts.len());
            let branch = model.insts[k].seq;
            sched.squash_after(branch);
            stores.squash_after(branch);
            while model.insts.last().is_some_and(|i| i.seq > branch) {
                let inst = model.insts.pop().unwrap();
                table.remove(inst.seq).expect("squashed entry present");
            }
            check_lists(&sched, &model, step);
        }
    }
    coverage
}

#[test]
fn parked_and_ready_lists_match_the_naive_model() {
    for seed in 1..=6 {
        let coverage = campaign(seed, seed % 2, 3_000, 48);
        assert!(coverage.parked > 0, "seed {seed} never parked a load");
        assert!(
            coverage.unblocked_mid_scan > 0,
            "seed {seed} never unblocked a load mid-scan"
        );
    }
}

#[test]
fn wide_windows_with_long_store_chains_stay_equivalent() {
    // A larger window holds more stores in flight at once, so loads stay
    // parked behind chains of unresolved stores for longer.
    for seed in [31, 32] {
        campaign(seed, 0, 2_000, 160);
    }
}
