//! The kernel skeleton both machines run on: one out-of-order engine clocked
//! in a front-end and a back-end domain.
//!
//! [`Kernel`] owns the state the baseline and the Flywheel machine share and
//! writes their common stages once: the run loop with its warm-up boundary,
//! no-progress guard, watchdog poll and telemetry taps; the edge arithmetic;
//! the idle fast-forward; fetch, dispatch, complete, squash, retire and the
//! Issue Window scan; execution latencies; and the measurement deltas. A
//! [`Machine`] supplies only what differs, through hooks the skeleton calls
//! at fixed points of each edge. Hooks are statically dispatched (the kernel
//! is generic over the machine and its [`Rename`]r), so the per-cycle path
//! carries no virtual calls. [`crate::BaselineSim`] overrides no hook;
//! `flywheel_core::FlywheelSim` adds Execution Cache replay, pool renaming,
//! the Register Update checkpoint, redistribution and the DVFS governor.

use crate::bpred::{BpredStats, GsharePredictor};
use crate::cache::{AccessOutcome, HierarchyStats, MemoryHierarchy};
use crate::config::BaselineConfig;
use crate::fu::FunctionalUnits;
use crate::inflight::{
    CompletionQueue, EntryState, InflightEntry, InflightTable, IssueScheduler, StoreIndex,
};
use crate::regs::{PhysRegFile, Rename};
use crate::stats::{SimBudget, SimResult};
use crate::telemetry::TelemetryRecorder;
use flywheel_isa::{DynInst, OpClass, Pc, StaticInst};
use flywheel_power::{EnergyAccumulator, MachineKind, PowerConfig, PowerModel, Unit};
use flywheel_timing::LsqDomainPlan;
use std::collections::VecDeque;

/// Back-end cycles without a retirement after which the run loop declares the
/// machine stuck and panics. The idle fast-forward never jumps past that
/// point, so the guard fires exactly one cycle past the window.
/// `BaselineConfig::validate` keeps memory latencies well inside it.
pub const NO_PROGRESS_WINDOW: u64 = 500_000;

/// The oracle instruction stream: the program's dynamic path, with one
/// instruction of look-ahead and a queue of instructions handed back
/// undispatched (the Flywheel returns its front-end queue when it switches to
/// trace replay).
pub struct Oracle<I> {
    trace: I,
    peeked: Option<DynInst>,
    pushback: VecDeque<DynInst>,
    /// Whether the underlying stream has run dry.
    pub done: bool,
}

impl<I: Iterator<Item = DynInst>> Oracle<I> {
    /// Takes the next instruction.
    pub fn pull(&mut self) -> Option<DynInst> {
        if let Some(d) = self.pushback.pop_front() {
            return Some(d);
        }
        if let Some(d) = self.peeked.take() {
            return Some(d);
        }
        let d = self.trace.next();
        self.done |= d.is_none();
        d
    }

    /// The next instruction, without taking it.
    pub fn peek(&mut self) -> Option<&DynInst> {
        if !self.pushback.is_empty() {
            return self.pushback.front();
        }
        if self.peeked.is_none() {
            self.peeked = self.trace.next();
            self.done |= self.peeked.is_none();
        }
        self.peeked.as_ref()
    }

    /// Hands `d` back so that it is the next instruction pulled.
    pub fn push_front(&mut self, d: DynInst) {
        self.pushback.push_front(d);
    }
}

/// What a machine adds to the shared [`Kernel`]. Every hook defaults to the
/// baseline machine's behaviour, which adds nothing.
pub trait Machine<R: Rename, I: Iterator<Item = DynInst>> {
    /// Whether the front end is clock gated: it neither dispatches nor
    /// fetches, its clock is charged as gated, and the Issue Window only
    /// drains.
    fn frontend_gated(&self) -> bool {
        false
    }

    /// Whether dispatch may proceed this edge at all.
    fn dispatch_allowed(&self, _k: &Kernel<R, I>) -> bool {
        true
    }

    /// Whether the back end may issue this edge.
    fn issue_allowed(&self, _k: &Kernel<R, I>) -> bool {
        true
    }

    /// Called for the front-end queue head at `pc` once it passed the
    /// structural checks, before it renames. Returning `false` ends dispatch
    /// for this edge.
    fn before_rename(&mut self, _k: &mut Kernel<R, I>, _pc: Pc) -> bool {
        true
    }

    /// Called after `seq` dispatched.
    fn on_dispatch(&mut self, _k: &mut Kernel<R, I>, _seq: u64, _pc: Pc) {}

    /// Called for each instruction the Issue Window scan issues.
    fn on_issue(&mut self, _seq: u64, _pc: Pc, _stat: StaticInst) {}

    /// Called after the Issue Window scan on every edge that may issue.
    fn after_issue(&mut self, _k: &mut Kernel<R, I>) {}

    /// A mispredicted branch completed at `now`. Wrong-path fetch is not
    /// modelled: by default the kernel squashes younger work and redirects
    /// fetch.
    fn on_mispredict(&mut self, k: &mut Kernel<R, I>, branch_seq: u64, now: u64) {
        k.resolve_mispredict(branch_seq);
        k.redirect_fetch(now);
    }

    /// Called when `seq` retires.
    fn on_retire(&mut self, _k: &mut Kernel<R, I>, _seq: u64) {}

    /// Called at the top of every back-end edge, before time advances.
    fn begin_backend_edge(&mut self, _k: &mut Kernel<R, I>) {}

    /// `n` back-end edges of `period_ps` each have elapsed, ticked or
    /// fast-forwarded.
    fn backend_edges(&mut self, _n: u64, _period_ps: u64) {}

    /// Called at the end of every back-end edge.
    fn end_backend_edge(&mut self, _k: &mut Kernel<R, I>) {}

    /// The machine's own terms of the idle bound (the earliest time any
    /// state can change): the earliest time one of its gates can open
    /// (`u64::MAX` for none), or `None` when its next state change cannot be
    /// bounded.
    fn next_event_ps(&self, _k: &Kernel<R, I>) -> Option<u64> {
        Some(u64::MAX)
    }

    /// Measurement begins (the warm-up boundary).
    fn begin_measurement(&mut self, _k: &mut Kernel<R, I>) {}

    /// Emits the machine's telemetry after each step.
    fn telemetry(&mut self, _k: &Kernel<R, I>, _t: &mut TelemetryRecorder) {}

    /// The machine's own state for the no-progress guard's message.
    fn dump(&self) -> String {
        String::new()
    }
}

#[derive(Debug, Clone)]
struct MeasureSnapshot {
    retired: u64,
    squashed: u64,
    be_cycles: u64,
    fe_cycles: u64,
    time_ps: u64,
    bpred: BpredStats,
    caches: HierarchyStats,
}

/// The shared out-of-order engine: all state both machines keep, and the
/// stages they share. The per-cycle loop is allocation-free and
/// event-indexed (see `ARCHITECTURE.md`, "Hot-path design").
pub struct Kernel<R, I> {
    pub(crate) cfg: BaselineConfig,
    /// The oracle instruction stream.
    pub oracle: Oracle<I>,
    hierarchy: MemoryHierarchy,
    /// Branch predictor.
    pub bpred: GsharePredictor,
    /// Register renamer.
    pub renamer: R,
    /// Physical register scoreboard.
    pub prf: PhysRegFile,
    fus: FunctionalUnits,
    /// In-flight instructions by sequence number.
    pub inflight: InflightTable,
    /// Fetched instructions waiting to dispatch, in program order.
    pub frontend_q: VecDeque<u64>,
    /// Reorder buffer, in program order.
    pub rob: VecDeque<u64>,
    /// Issue Window occupancy.
    pub iw_len: usize,
    /// Load/store queue, in program order.
    pub lsq: VecDeque<u64>,
    /// Executing instructions keyed by completion cycle; stale (squashed)
    /// entries are validated out on pop.
    completions: CompletionQueue,
    /// Wake-up and ready lists of the Issue Window.
    pub sched: IssueScheduler,
    stores: StoreIndex,
    finished_scratch: Vec<(u64, u64)>,
    issued_scratch: Vec<u64>,
    /// The mispredicted branch fetch waits on.
    pub fetch_blocked_on_branch: Option<u64>,
    /// Time from which fetch may resume (after a line fill or a redirect).
    fetch_resume_at_ps: u64,
    fe_period_ps: u64,
    /// Period of the Issue Window's clock, the baseline clock: dispatch
    /// synchronises to it and Issue Window instructions execute on it.
    pub iw_period_ps: u64,
    /// The back-end period in force (the Flywheel sets it with its mode and
    /// its DVFS governor).
    pub be_period_ps: u64,
    /// Optional third clock domain for the LSQ + D-cache pipeline (the
    /// multi-domain machine). `None` leaves the memory path synchronous with
    /// the execution core.
    pub(crate) lsq_domain: Option<LsqDomainPlan>,
    /// Time of the next front-end edge.
    fe_time_ps: u64,
    /// Time of the next back-end edge.
    pub be_time_ps: u64,
    /// Front-end edges processed.
    pub fe_cycles: u64,
    /// Back-end edges processed.
    pub be_cycles: u64,
    power_model: PowerModel,
    kind: MachineKind,
    /// Energy events (restarted when measurement begins).
    pub energy: EnergyAccumulator,
    retired: u64,
    retire_limit: u64,
    squashed: u64,
    /// Back-end cycle of the last retirement.
    last_progress_cycle: u64,
    /// Whether the edge being processed changed any machine state (gates
    /// the idle fast-forward).
    pub tick_activity: bool,
    measure_start: Option<MeasureSnapshot>,
}

/// The functional-unit energy event of an operation.
#[inline]
pub fn fu_energy_unit(op: OpClass) -> Unit {
    match op {
        OpClass::IntMul | OpClass::IntDiv => Unit::FuIntMulDiv,
        OpClass::FpAdd => Unit::FuFpAdd,
        OpClass::FpMul | OpClass::FpDiv => Unit::FuFpMulDiv,
        _ => Unit::FuIntAlu,
    }
}

impl<R: Rename, I: Iterator<Item = DynInst>> Kernel<R, I> {
    /// A kernel for the machine `cfg` renaming through `renamer`, charging
    /// energy to a `kind` account under the power model of `power`, and
    /// consuming instructions from `trace`. The configuration must already
    /// be validated.
    pub fn new(
        cfg: BaselineConfig,
        renamer: R,
        power: PowerConfig,
        kind: MachineKind,
        trace: I,
    ) -> Self {
        let fe_period_ps = cfg.clocks.frontend_period_ps;
        let iw_period_ps = cfg.clocks.baseline_period_ps;
        let inflight_capacity =
            (cfg.rob_entries + cfg.front_end_stages * cfg.fetch_width + cfg.fetch_width) as usize;
        Kernel {
            oracle: Oracle {
                trace,
                peeked: None,
                pushback: VecDeque::new(),
                done: false,
            },
            hierarchy: MemoryHierarchy::new(&cfg),
            bpred: GsharePredictor::new(cfg.bpred),
            renamer,
            prf: PhysRegFile::new(cfg.phys_regs),
            fus: FunctionalUnits::new(cfg.fus),
            inflight: InflightTable::with_capacity(inflight_capacity),
            frontend_q: VecDeque::new(),
            rob: VecDeque::new(),
            iw_len: 0,
            lsq: VecDeque::new(),
            completions: CompletionQueue::new(),
            sched: IssueScheduler::new(cfg.phys_regs as usize, u64::from(cfg.pipelined_wakeup)),
            stores: StoreIndex::new(),
            finished_scratch: Vec::new(),
            issued_scratch: Vec::new(),
            fetch_blocked_on_branch: None,
            fetch_resume_at_ps: 0,
            fe_period_ps,
            iw_period_ps,
            be_period_ps: iw_period_ps,
            lsq_domain: None,
            fe_time_ps: fe_period_ps,
            be_time_ps: iw_period_ps,
            fe_cycles: 0,
            be_cycles: 0,
            power_model: PowerModel::new(power),
            kind,
            energy: EnergyAccumulator::new(kind),
            retired: 0,
            retire_limit: u64::MAX,
            squashed: 0,
            last_progress_cycle: 0,
            tick_activity: false,
            measure_start: None,
            cfg,
        }
    }

    /// Runs machine `m` for `budget` and returns the measured result; its
    /// `gated_frontend_fraction` is left for the machine to fill in.
    pub fn run<M: Machine<R, I>>(&mut self, m: &mut M, budget: SimBudget) -> SimResult {
        let warm_target = budget.warmup_instructions;
        let total_target = budget.total();
        // Cap retirement at the warm-up boundary first so that measurement
        // starts at an exact instruction count, then at the total budget.
        self.retire_limit = warm_target.max(1);
        let mut watchdog = crate::watchdog::armed();
        let mut telemetry = crate::telemetry::armed();
        while self.retired < total_target && !(self.oracle.done && self.inflight.is_empty()) {
            if self.measure_start.is_none() && self.retired >= warm_target {
                self.begin_measurement(m);
                self.retire_limit = total_target;
            }
            self.step(m);
            if self.be_cycles - self.last_progress_cycle > NO_PROGRESS_WINDOW {
                self.no_progress(m);
            }
            if let Some(wd) = watchdog.as_mut() {
                wd.poll(self.be_cycles);
            }
            if let Some(t) = telemetry.as_mut() {
                m.telemetry(self, t);
                t.sample_occupancy(
                    self.be_cycles,
                    self.iw_len,
                    self.rob.len(),
                    self.frontend_q.len(),
                    self.lsq.len(),
                );
            }
        }
        if let Some(t) = telemetry.as_mut() {
            t.finish(self.be_cycles, self.fe_cycles);
        }
        if self.measure_start.is_none() {
            self.begin_measurement(m);
        }
        self.finish()
    }

    /// The no-progress guard: a plain panic (not a watchdog timeout) whose
    /// message carries the trip cycle and the machine's state.
    #[cold]
    #[inline(never)]
    fn no_progress<M: Machine<R, I>>(&mut self, m: &M) -> ! {
        let machine = m.dump();
        let next_pc = match self.oracle.peek() {
            Some(d) => d.pc.to_string(),
            None => "none".to_owned(),
        };
        panic!(
            "no retirement progress for {NO_PROGRESS_WINDOW} back-end cycles: tripped at cycle {}, \
             last retirement at cycle {} (retired {}, rob {}, iw {}, frontend {}, lsq {}; fetch \
             resumes at {} ps, blocked on branch {:?}, next oracle pc {next_pc}{machine}); this \
             indicates a simulator bug",
            self.be_cycles,
            self.last_progress_cycle,
            self.retired,
            self.rob.len(),
            self.iw_len,
            self.frontend_q.len(),
            self.lsq.len(),
            self.fetch_resume_at_ps,
            self.fetch_blocked_on_branch,
        );
    }

    /// Advances the machine by one clock edge (whichever domain fires next).
    ///
    /// After a fully idle edge the machine fast-forwards: it computes the
    /// earliest future time at which any state can change and bulk-advances
    /// both clock domains over the provably idle edges in between, so
    /// memory-stall cycles cost a few event-queue peeks instead of a full
    /// tick each.
    fn step<M: Machine<R, I>>(&mut self, m: &mut M) {
        self.tick_activity = false;
        if self.be_time_ps <= self.fe_time_ps {
            self.tick_backend(m);
        } else {
            self.tick_frontend(m);
        }
        if !self.tick_activity {
            self.fast_forward(m);
        }
    }

    /// The back-end edge time at which cycle `c` executes (the edge at
    /// `be_time_ps` runs cycle `be_cycles + 1`). The back-end period is
    /// constant across any idle stretch being bounded: a change of period is
    /// tick activity.
    pub fn be_cycle_time_ps(&self, c: u64) -> u64 {
        if c <= self.be_cycles + 1 {
            self.be_time_ps
        } else {
            self.be_time_ps
                .saturating_add((c - self.be_cycles - 1).saturating_mul(self.be_period_ps))
        }
    }

    /// The first back-end edge at or after time `ps`.
    fn be_edge_at_or_after(&self, ps: u64) -> u64 {
        if ps <= self.be_time_ps {
            self.be_time_ps
        } else {
            self.be_time_ps + (ps - self.be_time_ps).div_ceil(self.be_period_ps) * self.be_period_ps
        }
    }

    /// The first front-end edge at or after time `ps`.
    fn fe_edge_at_or_after(&self, ps: u64) -> u64 {
        if ps <= self.fe_time_ps {
            self.fe_time_ps
        } else {
            self.fe_time_ps + (ps - self.fe_time_ps).div_ceil(self.fe_period_ps) * self.fe_period_ps
        }
    }

    /// Time of the most recent edge processed in either domain.
    pub fn now_ps(&self) -> u64 {
        (self.be_time_ps.saturating_sub(self.be_period_ps))
            .max(self.fe_time_ps.saturating_sub(self.fe_period_ps))
    }

    fn wakeup_extra(&self) -> u64 {
        u64::from(self.cfg.pipelined_wakeup)
    }

    /// Whether fetch may run once its resume time arrives: it is not
    /// waiting on a branch, the stream has instructions, and the front-end
    /// queue has room.
    fn fetch_may_resume(&self) -> bool {
        let queue_cap = (self.cfg.front_end_stages * self.cfg.fetch_width) as usize;
        self.fetch_blocked_on_branch.is_none()
            && !self.oracle.done
            && self.frontend_q.len() < queue_cap
    }

    /// A conservative lower bound on the next time any machine state can
    /// change, or `None` when no event is safely boundable (then the machine
    /// single-steps).
    ///
    /// Every state change of an idle machine is driven by one of: a scheduled
    /// completion, a woken instruction's operand arrival, a dispatched
    /// instruction leaving the front-end pipeline, fetch resuming after a
    /// miss or redirect, or a machine gate opening. Chains bottom out in one
    /// of those (a parked consumer's producer is issued or itself parked; a
    /// blocked load's store is dispatched or woken), so the minimum below can
    /// only fire early, never late, which keeps fast-forwarding bit-identical
    /// to single-stepped execution.
    fn next_event_ps<M: Machine<R, I>>(&self, m: &M) -> Option<u64> {
        // A completed ROB head retires at the next back-end edge, or is gated
        // only by the retire limit, which the run loop may lift between steps.
        if let Some(&head) = self.rob.front() {
            if self.inflight[head].state == EntryState::Completed {
                return None;
            }
        }
        let mut t = m.next_event_ps(self)?;
        if let Some(c) = self.completions.next_due() {
            t = t.min(self.be_cycle_time_ps(c));
        }
        if let Some(c) = self.sched.next_due() {
            t = t.min(self.be_cycle_time_ps(c));
        }
        let wakeup_extra = self.wakeup_extra();
        for i in 0..self.sched.ready_len() {
            let seq = self.sched.ready_seq(i);
            let Some(e) = self.inflight.get(seq) else {
                continue;
            };
            // A load behind an older unresolved store wakes through that
            // store's own events (it is dispatched, woken or completing).
            // The scheduler parks such loads off the ready list.
            let blocked = e.d.stat.op() == OpClass::Load && self.stores.blocks_load(seq);
            debug_assert!(!blocked, "store-blocked load {seq} on the ready list");
            if blocked {
                continue;
            }
            let arrive = self.be_cycle_time_ps(e.ready_cycle.saturating_add(wakeup_extra));
            t = t.min(arrive.max(self.be_edge_at_or_after(e.visible_at_ps)));
        }
        if !m.frontend_gated() {
            // Dispatch of the front-end queue head (a dispatch gate can only
            // open, never close, without tick activity, and its opening is a
            // machine event).
            if let Some(&head) = self.frontend_q.front().filter(|_| m.dispatch_allowed(self)) {
                let e = &self.inflight[head];
                if e.dispatch_ready_ps > self.fe_time_ps {
                    t = t.min(self.fe_edge_at_or_after(e.dispatch_ready_ps));
                } else {
                    // Ready now: it dispatches at the next front-end edge
                    // unless provably blocked on a back-end structure whose
                    // release is covered by the back-end events above.
                    let is_mem = e.d.stat.op().is_mem();
                    let blocked = self.rob.len() >= self.cfg.rob_entries as usize
                        || self.iw_len >= self.cfg.iw_entries as usize
                        || (is_mem && self.lsq.len() >= self.cfg.lsq_entries as usize)
                        || self.renamer.blocks(&e.d.stat);
                    if !blocked {
                        t = t.min(self.fe_time_ps);
                    }
                }
            }
            // Fetch resuming (after an I-cache fill or a redirect).
            if self.fetch_may_resume() {
                t = t.min(self.fe_edge_at_or_after(self.fetch_resume_at_ps));
            }
        }
        // Never jump past the no-progress guard's firing point.
        t = t.min(self.be_cycle_time_ps(self.last_progress_cycle + NO_PROGRESS_WINDOW + 1));
        (t != u64::MAX).then_some(t)
    }

    /// Bulk-advances both clock domains over the edges strictly before the
    /// next possible event, charging exactly the per-cycle bookkeeping those
    /// idle edges would have performed (clock energy, the machine's per-edge
    /// charges, and the Issue Window wake-up/select energy of an occupied
    /// window).
    fn fast_forward<M: Machine<R, I>>(&mut self, m: &mut M) {
        let Some(t) = self.next_event_ps(m) else {
            return;
        };
        if self.fe_time_ps < t {
            let n = (t - 1 - self.fe_time_ps) / self.fe_period_ps + 1;
            self.fe_cycles += n;
            self.fe_time_ps += n * self.fe_period_ps;
            self.energy.tick_frontend_n(m.frontend_gated(), n);
        }
        if self.be_time_ps < t {
            let period = self.be_period_ps;
            let n = (t - 1 - self.be_time_ps) / period + 1;
            self.be_cycles += n;
            self.be_time_ps += n * period;
            m.backend_edges(n, period);
            self.energy.tick_backend_n(n);
            // The skipped cycles lie entirely on one side of the issue gate
            // (its opening is a machine event); only cycles that may issue
            // pay the per-cycle energy of an occupied Issue Window.
            if self.iw_len > 0 && m.issue_allowed(self) {
                self.energy.record(Unit::IssueWindowWakeup, n);
                self.energy.record(Unit::IssueWindowSelect, n);
            }
        }
    }

    fn begin_measurement<M: Machine<R, I>>(&mut self, m: &mut M) {
        self.energy = EnergyAccumulator::new(self.kind);
        m.begin_measurement(self);
        self.measure_start = Some(MeasureSnapshot {
            retired: self.retired,
            squashed: self.squashed,
            be_cycles: self.be_cycles,
            fe_cycles: self.fe_cycles,
            time_ps: self.now_ps(),
            bpred: self.bpred.stats(),
            caches: self.hierarchy.stats(),
        });
    }

    fn finish(&mut self) -> SimResult {
        let start = self
            .measure_start
            .clone()
            .expect("measurement must have started");
        let elapsed_ps = self.now_ps().saturating_sub(start.time_ps).max(1);
        let bp = self.bpred.stats();
        let ch = self.hierarchy.stats();
        SimResult {
            instructions: self.retired - start.retired,
            be_cycles: self.be_cycles - start.be_cycles,
            fe_cycles: self.fe_cycles - start.fe_cycles,
            elapsed_ps,
            squashed: self.squashed - start.squashed,
            bpred: BpredStats {
                cond_predictions: bp.cond_predictions - start.bpred.cond_predictions,
                cond_mispredicts: bp.cond_mispredicts - start.bpred.cond_mispredicts,
                target_mispredicts: bp.target_mispredicts - start.bpred.target_mispredicts,
                total_ctrl: bp.total_ctrl - start.bpred.total_ctrl,
            },
            caches: HierarchyStats {
                l1i: (ch.l1i.0 - start.caches.l1i.0, ch.l1i.1 - start.caches.l1i.1),
                l1d: (ch.l1d.0 - start.caches.l1d.0, ch.l1d.1 - start.caches.l1d.1),
                l2: (ch.l2.0 - start.caches.l2.0, ch.l2.1 - start.caches.l2.1),
            },
            energy: self.energy.finish(&self.power_model, elapsed_ps),
            gated_frontend_fraction: 0.0,
        }
    }

    // ------------------------------------------------------------------ front end

    fn tick_frontend<M: Machine<R, I>>(&mut self, m: &mut M) {
        let now = self.fe_time_ps;
        self.fe_cycles += 1;
        self.fe_time_ps += self.fe_period_ps;
        let gated = m.frontend_gated();
        self.energy.tick_frontend(gated);
        if gated {
            return;
        }
        self.dispatch(m, now);
        if now >= self.fetch_resume_at_ps && self.fetch_may_resume() {
            // A fetch attempt always changes state: it inserts instructions,
            // starts a line fill, or exhausts the trace.
            self.tick_activity = true;
            self.fetch(now);
        }
    }

    fn dispatch<M: Machine<R, I>>(&mut self, m: &mut M, now: u64) {
        if !m.dispatch_allowed(self) {
            return;
        }
        let sync_ps = self.cfg.sync_latency_be_cycles as u64 * self.iw_period_ps;
        let mut dispatched = 0;
        while dispatched < self.cfg.dispatch_width {
            let Some(&seq) = self.frontend_q.front() else {
                break;
            };
            let (ready, op, stat, pc) = {
                let e = &self.inflight[seq];
                (e.dispatch_ready_ps <= now, e.d.stat.op(), e.d.stat, e.d.pc)
            };
            let is_mem = op.is_mem();
            if !ready
                || self.rob.len() >= self.cfg.rob_entries as usize
                || self.iw_len >= self.cfg.iw_entries as usize
                || (is_mem && self.lsq.len() >= self.cfg.lsq_entries as usize)
            {
                break;
            }
            if !m.before_rename(self, pc) {
                return;
            }
            let Some(rename) = self.renamer.rename(&stat, &mut self.prf) else {
                break;
            };
            self.frontend_q.pop_front();
            {
                let entry = &mut self.inflight[seq];
                entry.rename = rename;
                entry.state = EntryState::Waiting;
                entry.visible_at_ps = now + sync_ps;
                entry.in_iw = true;
            }
            self.rob.push_back(seq);
            self.iw_len += 1;
            self.sched.on_dispatch(&mut self.inflight, seq, &self.prf);
            if is_mem {
                self.lsq.push_back(seq);
                if op == OpClass::Store {
                    self.stores.on_dispatch_store(seq);
                }
            }
            m.on_dispatch(self, seq, pc);
            self.energy.record(Unit::Rename, 1);
            self.energy.record(Unit::IssueWindowInsert, 1);
            self.energy.record(Unit::Rob, 1);
            dispatched += 1;
            self.tick_activity = true;
        }
    }

    fn fetch(&mut self, now: u64) {
        let Some(first_pc) = self.oracle.peek().map(|d| d.pc) else {
            return;
        };

        // I-cache access for the fetch group.
        self.energy.record(Unit::ICache, 1);
        self.energy.record(Unit::BranchPredictor, 1);
        let outcome = self.hierarchy.fetch(first_pc.addr());
        if outcome != AccessOutcome::L1 {
            if outcome == AccessOutcome::Memory {
                self.energy.record(Unit::L2, 1);
            }
            // The line is being filled; fetch retries once it arrives.
            self.fetch_resume_at_ps = now + self.hierarchy.extra_latency_ps(outcome);
            return;
        }

        let fetch_width = self.cfg.fetch_width as usize;
        let group_room = fetch_width - first_pc.fetch_group_offset(fetch_width);
        let dispatch_delay = self.cfg.front_end_stages as u64 * self.fe_period_ps;
        for _ in 0..group_room {
            let Some(d) = self.oracle.pull() else {
                break;
            };
            let seq = d.seq;
            let correct = self.bpred.predict(&d);
            let redirects = d.redirects_fetch();
            self.energy.record(Unit::Decode, 1);
            self.inflight.insert(InflightEntry::new_frontend(
                d,
                now + dispatch_delay,
                !correct,
            ));
            self.frontend_q.push_back(seq);
            if !correct {
                // Wrong-path fetch is not modelled: fetch stalls until the
                // branch resolves and redirects the front end.
                self.fetch_blocked_on_branch = Some(seq);
                break;
            }
            if redirects {
                // A correctly predicted taken control transfer ends the
                // fetch group; fetch continues at the target next cycle.
                break;
            }
        }
    }

    /// Redirects fetch at `at_ps`: the new PC reaches the fetch stage one
    /// front-end cycle later, plus the mixed-clock FIFO latency when the
    /// domains differ.
    pub fn redirect_fetch(&mut self, at_ps: u64) {
        let redirect_delay = self.fe_period_ps * (1 + self.cfg.redirect_sync_fe_cycles) as u64;
        self.fetch_resume_at_ps = self.fetch_resume_at_ps.max(at_ps + redirect_delay);
    }

    // ------------------------------------------------------------------ back end

    fn tick_backend<M: Machine<R, I>>(&mut self, m: &mut M) {
        m.begin_backend_edge(self);
        let now = self.be_time_ps;
        let period = self.be_period_ps;
        self.be_cycles += 1;
        self.be_time_ps += period;
        m.backend_edges(1, period);
        self.energy.tick_backend();
        self.fus.begin_cycle();

        self.complete(m, now);
        self.retire(m);
        if m.issue_allowed(self) {
            // An occupied Issue Window pays wake-up/select energy every
            // cycle: judged after the scan while it feeds the back end, and
            // before it while it only drains behind a gated front end. An
            // empty window has nothing to scan.
            let occupied = self.iw_len > 0;
            if occupied {
                self.issue_window(m, now);
            }
            if self.iw_len > 0 || (occupied && m.frontend_gated()) {
                self.energy.record(Unit::IssueWindowWakeup, 1);
                self.energy.record(Unit::IssueWindowSelect, 1);
            }
            m.after_issue(self);
        }
        m.end_backend_edge(self);
    }

    fn complete<M: Machine<R, I>>(&mut self, m: &mut M, now: u64) {
        let cycle = self.be_cycles;
        // Drain the due prefix of the completion queue; the per-cycle cost
        // when nothing finishes (the common case during a memory stall) is
        // one peek.
        self.finished_scratch.clear();
        while let Some((at, seq)) = self.completions.pop_due(cycle) {
            self.finished_scratch.push((seq, at));
        }
        if self.finished_scratch.is_empty() {
            return;
        }
        self.tick_activity = true;
        // Process in program order, so a mispredict squashes the younger
        // completions of its cycle before they are seen.
        self.finished_scratch.sort_unstable();
        for i in 0..self.finished_scratch.len() {
            let (seq, at) = self.finished_scratch[i];
            // An earlier completion in this very cycle may have squashed this
            // entry during mispredict recovery, and a squashed + re-issued
            // instruction (trace-replay hand-backs re-fetch the same sequence
            // numbers) leaves stale queue entries whose deadline no longer
            // matches the live schedule.
            let Some(e) = self.inflight.get_mut(seq) else {
                continue;
            };
            if e.state != EntryState::Issued || e.complete_at != at {
                continue;
            }
            e.state = EntryState::Completed;
            let (has_dst, mispredicted) = (e.rename.dst.is_some(), e.mispredicted);
            if has_dst {
                self.energy.record(Unit::RegFileWrite, 1);
            }
            self.energy.record(Unit::ResultBus, 1);
            if mispredicted {
                m.on_mispredict(self, seq, now);
            }
        }
    }

    /// Mispredict recovery: squashes everything younger than `branch_seq`,
    /// youngest first (restoring the rename map), and releases fetch from the
    /// branch. Squashed executing instructions leave stale completion-queue
    /// entries, which `complete` validates against the live table on pop.
    pub fn resolve_mispredict(&mut self, branch_seq: u64) {
        while let Some(&tail) = self.rob.back() {
            if tail <= branch_seq {
                break;
            }
            self.rob.pop_back();
            let entry = self
                .inflight
                .remove(tail)
                .expect("squashed entry must exist");
            if entry.in_iw {
                self.iw_len -= 1;
            }
            self.renamer.squash(&entry.rename);
            self.note_squashed(tail);
        }
        while let Some(&seq) = self.frontend_q.back() {
            if seq <= branch_seq {
                break;
            }
            self.frontend_q.pop_back();
            self.inflight.remove(seq);
            self.note_squashed(seq);
        }
        while self.lsq.back().is_some_and(|&s| s > branch_seq) {
            self.lsq.pop_back();
        }
        self.sched.squash_after(branch_seq);
        self.stores.squash_after(branch_seq);
        if self.fetch_blocked_on_branch == Some(branch_seq) {
            self.fetch_blocked_on_branch = None;
        }
    }

    /// Counts a squashed instruction. A younger mispredicted branch can be
    /// squashed by an older one resolving in the same cycle; leaving fetch
    /// blocked on the dead instruction would stall the front end forever.
    fn note_squashed(&mut self, seq: u64) {
        self.squashed += 1;
        if self.fetch_blocked_on_branch == Some(seq) {
            self.fetch_blocked_on_branch = None;
        }
    }

    fn retire<M: Machine<R, I>>(&mut self, m: &mut M) {
        let mut n = 0;
        while n < self.cfg.commit_width && self.retired < self.retire_limit {
            let Some(&head) = self.rob.front() else { break };
            if self.inflight[head].state != EntryState::Completed {
                break;
            }
            self.rob.pop_front();
            let entry = self
                .inflight
                .remove(head)
                .expect("retiring entry must exist");
            self.renamer.commit(&entry.rename);
            let op = entry.d.stat.op();
            if op.is_mem() {
                // The ROB head is the oldest in-flight instruction, so a
                // retiring memory instruction is always the LSQ head.
                debug_assert_eq!(self.lsq.front(), Some(&head));
                self.lsq.pop_front();
                if op == OpClass::Store {
                    self.stores.on_store_retire(head);
                }
            }
            m.on_retire(self, head);
            self.energy.record(Unit::Retire, 1);
            self.retired += 1;
            self.last_progress_cycle = self.be_cycles;
            self.tick_activity = true;
            n += 1;
        }
    }

    /// Wake-up/Select over the Issue Window: issues up to `issue_width`
    /// woken entries whose operands have arrived.
    fn issue_window<M: Machine<R, I>>(&mut self, m: &mut M, now: u64) {
        let cycle = self.be_cycles;
        let wakeup_extra = self.wakeup_extra();
        let mut issued_count = 0;
        self.issued_scratch.clear();
        self.sched.release_due(&self.inflight, &self.stores, cycle);

        // Scan only woken entries whose operands have arrived (all sources
        // produced and their values due), oldest first. A store issued
        // mid-scan returns the loads it blocked to the list behind the scan
        // position, so the length is re-read on every step.
        let mut i = 0;
        while i < self.sched.ready_len() {
            if issued_count >= self.cfg.issue_width {
                break;
            }
            let seq = self.sched.ready_seq(i);
            i += 1;
            let (op, srcs_len, visible_at, ready_cycle, mem_addr, pc, stat) = {
                let e = &self.inflight[seq];
                (
                    e.d.stat.op(),
                    e.rename.srcs.len(),
                    e.visible_at_ps,
                    e.ready_cycle,
                    e.d.mem.map(|m| m.addr),
                    e.d.pc,
                    e.d.stat,
                )
            };
            if visible_at > now {
                continue;
            }
            if ready_cycle.saturating_add(wakeup_extra) > cycle {
                continue;
            }
            if !self.fus.can_issue(op) {
                continue;
            }
            let blocked = op == OpClass::Load && self.stores.blocks_load(seq);
            debug_assert!(!blocked, "store-blocked load {seq} on the ready list");
            if blocked {
                continue;
            }
            assert!(self.fus.try_issue(op));
            let exec_cycles = self.execution_latency(seq, op, mem_addr, self.iw_period_ps);
            self.start_execution(seq, exec_cycles);
            self.iw_len -= 1;
            m.on_issue(seq, pc, stat);
            self.energy.record(Unit::RegFileRead, srcs_len as u64);
            self.energy.record(fu_energy_unit(op), 1);
            if op.is_mem() {
                self.energy.record(Unit::Lsq, 1);
            }
            self.issued_scratch.push(seq);
            issued_count += 1;
        }
        if issued_count > 0 {
            self.tick_activity = true;
        }
        self.sched.remove_issued(&self.issued_scratch);
        self.sched.drain_wakes(&mut self.inflight);
    }

    /// Starts executing the in-flight instruction `seq` this cycle for
    /// `exec_cycles`: schedules its result for consumers and its completion,
    /// and resolves a store's address.
    pub fn start_execution(&mut self, seq: u64, exec_cycles: u64) {
        let cycle = self.be_cycles;
        let wakeup_ready = cycle + exec_cycles;
        let complete_at = cycle + self.cfg.reg_read_cycles as u64 + exec_cycles;
        let (op, line) = {
            let e = &mut self.inflight[seq];
            e.state = EntryState::Issued;
            e.complete_at = complete_at;
            e.in_iw = false;
            if let Some(dst) = e.rename.dst {
                self.prf.mark_ready(dst, wakeup_ready);
                self.sched.defer_wake(dst, wakeup_ready);
            }
            (e.d.stat.op(), e.d.mem.map(|m| m.addr & !63))
        };
        if op == OpClass::Store {
            let line = line.expect("stores carry an address");
            self.sched.issue_store(&mut self.stores, seq, line);
        }
        self.completions.push(complete_at, seq);
    }

    /// Execution latency in back-end cycles of period `period_ps` for an
    /// instruction issued this cycle.
    pub fn execution_latency(
        &mut self,
        seq: u64,
        op: OpClass,
        mem_addr: Option<u64>,
        period_ps: u64,
    ) -> u64 {
        let base = op.base_latency() as u64;
        match op {
            OpClass::Load => {
                let addr = mem_addr.expect("loads carry an address");
                if self.stores.forwards_to(seq, addr & !63) {
                    // Store-to-load forwarding inside the LSQ. When the LSQ
                    // is its own clock domain the load still pays the
                    // crossing into the queue and back.
                    return match self.lsq_domain {
                        Some(d) => base + 2 * d.sync_cycles as u64,
                        None => base,
                    };
                }
                self.energy.record(Unit::DCache, 1);
                let outcome = self.hierarchy.data(addr);
                if outcome != AccessOutcome::L1 {
                    self.energy.record(Unit::L2, 1);
                }
                let extra_ps = self.hierarchy.extra_latency_ps(outcome);
                match self.lsq_domain {
                    // Multi-domain machine: the L1 access pipeline runs in
                    // the faster LSQ/D-cache domain, the L2/memory portion is
                    // wall-clock constant, and the total is quantized back to
                    // the execution-core clock after a synchronizer crossing
                    // in each direction.
                    Some(d) => {
                        let lsq_ps = self.cfg.l1_hit_cycles as u64 * d.period_ps + extra_ps;
                        base + 2 * d.sync_cycles as u64 + lsq_ps.div_ceil(period_ps)
                    }
                    None => base + self.cfg.l1_hit_cycles as u64 + extra_ps.div_ceil(period_ps),
                }
            }
            OpClass::Store => {
                // The store's data is written at retirement; the D-cache
                // access is charged here for energy purposes and the latency
                // only covers address generation.
                self.energy.record(Unit::DCache, 1);
                let addr = mem_addr.expect("stores carry an address");
                let outcome = self.hierarchy.data(addr);
                if outcome != AccessOutcome::L1 {
                    self.energy.record(Unit::L2, 1);
                }
                base
            }
            _ => base,
        }
    }
}
