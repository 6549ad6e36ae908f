//! The Flywheel pipeline: trace-creation and trace-execution modes.

use crate::config::{DvfsConfig, DvfsPolicy, FlywheelConfig};
use crate::ec::{ExecutionCache, Trace, TraceBuilder};
use crate::pools::PoolRenamer;
use crate::stats::{FlywheelResult, FlywheelStats};
use flywheel_isa::{DynInst, Pc, StaticInst};
use flywheel_power::{MachineKind, Unit};
use flywheel_uarch::kernel::{fu_energy_unit, Kernel, Machine};
use flywheel_uarch::telemetry::TelemetryRecorder;
use flywheel_uarch::{InflightEntry, Rename, SimBudget};
use std::rc::Rc;

/// Operating mode of the machine (paper §3).
#[derive(Debug)]
enum Mode {
    /// Instructions flow through the normal front end; issued groups are recorded
    /// into the Execution Cache.
    Creation,
    /// The front end is clock gated; the trace being replayed from the
    /// Execution Cache feeds the execution core at the fast back-end clock.
    Execution(Replay),
}

/// State of the DVFS governor (the DVFS-managed Flywheel machine).
#[derive(Debug, Clone)]
struct DvfsState {
    policy: DvfsPolicy,
    /// Back-end cycle at (or after) which the governor evaluates next.
    next_eval_cycle: u64,
    /// Per-mode time snapshots at the previous evaluation.
    last_exec_mode_ps: u64,
    last_creation_mode_ps: u64,
    /// Currently governed trace-execution back-end speed-up, in percent.
    current_pct: u32,
    /// Number of clock retunes performed.
    retunes: u64,
}

/// State of an in-progress trace replay.
#[derive(Debug)]
struct Replay {
    /// The trace being replayed, shared with the Execution Cache.
    trace: Rc<Trace>,
    /// Oracle instructions matched (program-order aligned with `trace.insts`).
    pulled: Vec<DynInst>,
    /// Set once the actual instruction stream departs from the recorded path.
    diverged: bool,
    /// Next program-order index to send to the execution core.
    next_idx: usize,
    /// Back-end cycle at which the first issue unit may leave the fill buffer.
    ready_at_cycle: u64,
    /// Instructions consumed so far (for data-array block accounting).
    consumed: u64,
}

impl Replay {
    fn new(trace: Rc<Trace>, ready_at_cycle: u64) -> Self {
        Replay {
            trace,
            pulled: Vec::new(),
            diverged: false,
            next_idx: 0,
            ready_at_cycle,
            consumed: 0,
        }
    }

    /// End (exclusive) of the recorded issue unit that starts at `next_idx`.
    fn unit_end(&self) -> usize {
        let insts = &self.trace.insts;
        let unit = insts[self.next_idx].unit;
        let mut end = self.next_idx;
        while end < insts.len() && insts[end].unit == unit {
            end += 1;
        }
        end
    }
}

/// The Flywheel machine: the paper's proposed microarchitecture, combining the
/// Dual-Clock Issue Window, the two-phase pool-based register renaming and the
/// Execution Cache with pre-scheduled execution.
///
/// With [`FlywheelConfig::execution_cache`] disabled this degenerates into the
/// "Register Allocation" machine of Figure 11 (dual-clock front end and new renaming,
/// no alternative execution path).
///
/// It runs on the same allocation-free kernel skeleton as the baseline
/// machine ([`flywheel_uarch::kernel`]), adding trace replay, the Register
/// Update checkpoint, pool redistribution and the optional DVFS governor
/// through the skeleton's hooks.
///
/// ```
/// use flywheel_core::{FlywheelConfig, FlywheelSim};
/// use flywheel_timing::TechNode;
/// use flywheel_uarch::SimBudget;
/// use flywheel_workloads::{Benchmark, RecordedTrace};
///
/// let budget = SimBudget::new(1_000, 5_000);
/// let program = Benchmark::Micro.synthesize(1);
/// // Both machine models replay the same recorded stream; fresh cursors restart
/// // it from the beginning at zero cost.
/// let trace = RecordedTrace::record(&program, 1, RecordedTrace::capture_len_for(budget.total()));
/// let mut sim = FlywheelSim::new(FlywheelConfig::paper_iso_clock(TechNode::N130), trace.cursor());
/// let result = sim.run(budget);
/// assert_eq!(result.sim.instructions, 5_000);
/// ```
pub struct FlywheelSim<I: Iterator<Item = DynInst>> {
    kernel: Kernel<PoolRenamer, I>,
    fly: Flywheel,
}

/// What the Flywheel machine adds to the kernel skeleton.
struct Flywheel {
    cfg: FlywheelConfig,
    ec: ExecutionCache,

    // Trace creation.
    builder: Option<TraceBuilder>,
    builder_start_seq: u64,
    builder_dispatched: u32,

    // Mode control.
    mode: Mode,
    /// Register Update is blocked until this instruction retires (FRT checkpoint).
    checkpoint_wait_retire_of: Option<u64>,
    /// Back-end cycle from which Register Update may proceed.
    checkpoint_ready_cycle: u64,

    /// Back-end period in trace-execution mode.
    be_period_exec_ps: u64,
    exec_mode_ps: u64,
    creation_mode_ps: u64,

    // Register redistribution.
    next_redistribution_cycle: u64,
    stalled_until_cycle: u64,

    /// Optional DVFS governor retuning `be_period_exec_ps` at fixed intervals
    /// from observed trace-execution residency. `None` keeps the clock plan
    /// fixed for the run — bit-identical to the plain Flywheel machine.
    dvfs: Option<DvfsState>,

    // Counters.
    trace_switches: u64,
    trace_divergences: u64,
    /// Mode and pool-stall count last reported to telemetry.
    tel_executing: bool,
    tel_pool_stalls: u64,
    measure_start: Option<Snapshot>,
}

#[derive(Debug, Clone)]
struct Snapshot {
    exec_mode_ps: u64,
    creation_mode_ps: u64,
    trace_switches: u64,
    trace_divergences: u64,
    ec: crate::ec::EcStats,
    pools: crate::pools::PoolStats,
}

impl<I: Iterator<Item = DynInst>> FlywheelSim<I> {
    /// Creates a Flywheel machine for `cfg` consuming instructions from `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`FlywheelConfig::validate`].
    pub fn new(cfg: FlywheelConfig, trace: I) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        let kernel = Kernel::new(
            cfg.base.clone(),
            PoolRenamer::new(cfg.pools),
            cfg.power_config(),
            MachineKind::Flywheel,
            trace,
        );
        let fly = Flywheel {
            ec: ExecutionCache::new(cfg.ec),
            builder: None,
            builder_start_seq: 0,
            builder_dispatched: 0,
            mode: Mode::Creation,
            checkpoint_wait_retire_of: None,
            checkpoint_ready_cycle: 0,
            be_period_exec_ps: cfg.base.clocks.backend_period_ps,
            exec_mode_ps: 0,
            creation_mode_ps: 0,
            next_redistribution_cycle: cfg.pools.redistribution_interval,
            stalled_until_cycle: 0,
            dvfs: None,
            trace_switches: 0,
            trace_divergences: 0,
            tel_executing: false,
            tel_pool_stalls: 0,
            measure_start: None,
            cfg,
        };
        FlywheelSim { kernel, fly }
    }

    /// Creates a DVFS-governed Flywheel machine for `cfg` consuming
    /// instructions from `trace`: identical to [`FlywheelSim::new`] on
    /// `cfg.fly`, plus a governor that retunes the trace-execution back-end
    /// clock every `cfg.policy.interval_be_cycles` core cycles from the
    /// Execution-Cache residency observed over the elapsed interval.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DvfsConfig::validate`].
    pub fn new_dvfs(cfg: DvfsConfig, trace: I) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        let policy = cfg.policy;
        let current_pct = cfg.fly.backend_speedup_pct;
        let mut sim = FlywheelSim::new(cfg.fly, trace);
        sim.fly.dvfs = Some(DvfsState {
            policy,
            next_eval_cycle: policy.interval_be_cycles,
            last_exec_mode_ps: 0,
            last_creation_mode_ps: 0,
            current_pct,
            retunes: 0,
        });
        sim
    }

    /// The configuration of this machine.
    pub fn config(&self) -> &FlywheelConfig {
        &self.fly.cfg
    }

    /// Number of clock retunes the DVFS governor has performed (0 without a
    /// governor).
    pub fn dvfs_retunes(&self) -> u64 {
        self.fly.dvfs.as_ref().map_or(0, |d| d.retunes)
    }

    /// Runs the simulation for the given budget.
    pub fn run(&mut self, budget: SimBudget) -> FlywheelResult {
        let mut sim = self.kernel.run(&mut self.fly, budget);
        let flywheel = self.fly.stats(&self.kernel);
        sim.gated_frontend_fraction = flywheel.ec_residency;
        FlywheelResult { sim, flywheel }
    }
}

/// The kernel skeleton as the Flywheel machine instantiates it.
type FlyKernel<I> = Kernel<PoolRenamer, I>;

// The hooks the kernel calls every edge or every instruction are
// `#[inline]` so they inline into the kernel's loops, which are compiled
// with another module; on a 2-vCPU host the hint measured 2–5% faster
// Flywheel, regalloc and dvfs runs.
impl<I: Iterator<Item = DynInst>> Machine<PoolRenamer, I> for Flywheel {
    #[inline]
    fn frontend_gated(&self) -> bool {
        self.executing()
    }

    #[inline]
    fn dispatch_allowed(&self, k: &FlyKernel<I>) -> bool {
        k.be_cycles >= self.stalled_until_cycle && self.register_update_allowed(k)
    }

    #[inline]
    fn issue_allowed(&self, k: &FlyKernel<I>) -> bool {
        k.be_cycles >= self.stalled_until_cycle
    }

    #[inline]
    fn before_rename(&mut self, k: &mut FlyKernel<I>, pc: Pc) -> bool {
        // Everything past this point changes machine state: the EC lookup
        // charges tag energy, a failed pool rename counts a stall, and a
        // successful one dispatches.
        k.tick_activity = true;
        // Trace completion condition: if the current trace has grown to its
        // limit, look the next PC up in the EC before dispatching it — on a hit
        // the machine switches to the alternative execution path; on a miss the
        // finished trace is sealed into the EC and a new one starts here.
        if self.cfg.execution_cache && self.builder_dispatched >= self.cfg.ec.max_trace_insts {
            if self.try_switch_to_execution(k, pc) {
                return false;
            }
            self.store_current_trace(k);
        }
        true
    }

    #[inline]
    fn on_dispatch(&mut self, k: &mut FlyKernel<I>, seq: u64, pc: Pc) {
        if self.builder.is_none() {
            self.builder = Some(TraceBuilder::new(pc));
            self.builder_start_seq = seq;
            self.builder_dispatched = 0;
        }
        self.builder_dispatched += 1;
        k.energy.record(Unit::RegisterUpdate, 1);
    }

    #[inline]
    fn on_issue(&mut self, seq: u64, pc: Pc, stat: StaticInst) {
        // Record the issued instruction into the trace being built.
        if self.cfg.execution_cache && seq >= self.builder_start_seq {
            if let Some(builder) = self.builder.as_mut() {
                builder.record(seq, pc, stat);
            }
        }
    }

    #[inline]
    fn after_issue(&mut self, k: &mut FlyKernel<I>) {
        if let Some(builder) = self.builder.as_mut() {
            builder.close_unit();
        }
        if let Mode::Execution(replay) = std::mem::replace(&mut self.mode, Mode::Creation) {
            self.issue_execution(k, replay);
        }
    }

    /// A mispredicted branch resolved in trace-creation mode: finish the trace
    /// being built, squash, and either restart the front end or switch to the
    /// Execution Cache path.
    #[inline]
    fn on_mispredict(&mut self, k: &mut FlyKernel<I>, branch_seq: u64, now: u64) {
        if self.executing() {
            return;
        }
        k.resolve_mispredict(branch_seq);
        // The Rename Table checkpoint (FRT -> RT copy) cannot happen before the
        // mispredicted instruction retires.
        self.checkpoint_wait_retire_of = Some(branch_seq);
        self.store_current_trace(k);
        // Search the EC for a trace starting at the correct target.
        let target = k.inflight[branch_seq].d.next_pc;
        if self.cfg.execution_cache && self.try_switch_to_execution(k, target) {
            return;
        }
        // Miss: restart the front end at the correct target; a new trace starts
        // with the next dispatched instruction.
        k.redirect_fetch(now);
        self.builder = None;
    }

    #[inline]
    fn on_retire(&mut self, k: &mut FlyKernel<I>, seq: u64) {
        if self.checkpoint_wait_retire_of == Some(seq) {
            // FRT -> RT copy can proceed on the next cycle.
            self.checkpoint_wait_retire_of = None;
            self.checkpoint_ready_cycle = k.be_cycles + 1;
        }
    }

    /// DVFS governor evaluation, before the edge advances time, so a retuned
    /// period applies from this cycle on. The idle bound never bulk-advances
    /// past `next_eval_cycle`, so the period stays constant across every
    /// bounded idle stretch.
    #[inline]
    fn begin_backend_edge(&mut self, k: &mut FlyKernel<I>) {
        let Some(d) = &mut self.dvfs else { return };
        if k.be_cycles < d.next_eval_cycle {
            return;
        }
        d.next_eval_cycle = k.be_cycles + d.policy.interval_be_cycles;
        let exec = self.exec_mode_ps - d.last_exec_mode_ps;
        let creation = self.creation_mode_ps - d.last_creation_mode_ps;
        d.last_exec_mode_ps = self.exec_mode_ps;
        d.last_creation_mode_ps = self.creation_mode_ps;
        if exec + creation == 0 {
            return;
        }
        let residency = exec as f64 / (exec + creation) as f64;
        let p = d.policy;
        let new_pct = if residency >= p.hi_residency {
            d.current_pct
                .saturating_add(p.step_pct)
                .min(p.max_backend_pct)
        } else if residency <= p.lo_residency {
            d.current_pct
                .saturating_sub(p.step_pct)
                .max(p.min_backend_pct)
        } else {
            d.current_pct
        };
        if new_pct != d.current_pct {
            d.current_pct = new_pct;
            d.retunes += 1;
            // Same period derivation as `ClockPlan::with_speedups`, so a
            // governed plan settling on the starting speed-up reproduces the
            // static plan's period exactly.
            self.be_period_exec_ps =
                flywheel_timing::ClockPlan::with_speedups(self.cfg.base.node, 0, new_pct)
                    .backend_period_ps;
            if self.executing() {
                k.be_period_ps = self.be_period_exec_ps;
            }
            // A clock change is machine activity: never fast-forward over it.
            k.tick_activity = true;
        }
    }

    #[inline]
    fn backend_edges(&mut self, n: u64, period_ps: u64) {
        match self.mode {
            Mode::Creation => self.creation_mode_ps += n * period_ps,
            Mode::Execution(_) => self.exec_mode_ps += n * period_ps,
        }
    }

    /// Pool redistribution, considered whenever the ROB drains in creation
    /// mode.
    #[inline]
    fn end_backend_edge(&mut self, k: &mut FlyKernel<I>) {
        if k.be_cycles < self.next_redistribution_cycle || self.executing() || !k.rob.is_empty() {
            return;
        }
        self.next_redistribution_cycle = k.be_cycles + self.cfg.pools.redistribution_interval;
        if k.renamer.maybe_redistribute() {
            k.tick_activity = true;
            self.stalled_until_cycle = k.be_cycles + self.cfg.pools.redistribution_cost;
            self.ec.invalidate_all();
            // Renaming information stored in the current trace is obsolete too.
            self.builder = None;
        }
    }

    /// The Flywheel's gates: Register Update checkpoint, redistribution
    /// stalls, the DVFS evaluation, and trace-replay startup and operands.
    #[inline]
    fn next_event_ps(&self, k: &FlyKernel<I>) -> Option<u64> {
        let mut t = u64::MAX;
        // Cycle-numbered gates that open in the future (past thresholds are
        // permanently inert).
        for c in [self.stalled_until_cycle, self.checkpoint_ready_cycle] {
            if c > k.be_cycles {
                t = t.min(k.be_cycle_time_ps(c));
            }
        }
        // The DVFS governor may change the back-end period at its next
        // evaluation: never bulk-advance past it (this keeps the back-end
        // period constant across every bounded idle stretch).
        if let Some(d) = &self.dvfs {
            t = t.min(k.be_cycle_time_ps(d.next_eval_cycle));
        }
        let r = match &self.mode {
            Mode::Creation => {
                // Pool redistribution is considered whenever the ROB drains.
                if k.rob.is_empty() {
                    t = t.min(k.be_cycle_time_ps(self.next_redistribution_cycle));
                }
                return Some(t);
            }
            Mode::Execution(r) => r,
        };
        if !r.diverged && r.pulled.len() < r.trace.len() && !k.oracle.done {
            // The next back-end tick pulls (and trains on) oracle instructions.
            t = t.min(k.be_time_ps);
        } else if r.next_idx < r.pulled.len() {
            // The machine is waiting to issue the next replay unit.
            if k.rob.is_empty() && k.iw_len == 0 {
                // The abandon-replay safety valve may fire next tick.
                return None;
            }
            let unit_end = r.unit_end();
            // Replay issues one unit per cycle: the next unit goes out at the
            // first edge where the startup buffer, the Register Update
            // checkpoint and all its source operands are due (capacity and
            // pool blocks only delay it further, which a conservative bound
            // may ignore). A checkpoint waiting on a retire is bounded by the
            // completion events instead.
            let issuable = unit_end.min(r.pulled.len()) == unit_end || r.diverged;
            if issuable && self.checkpoint_wait_retire_of.is_none() {
                let mut unit_time = k.be_time_ps;
                for c in [r.ready_at_cycle, self.checkpoint_ready_cycle] {
                    if c > k.be_cycles {
                        unit_time = unit_time.max(k.be_cycle_time_ps(c));
                    }
                }
                for inst in &r.trace.insts[r.next_idx..unit_end.min(r.pulled.len())] {
                    for src in inst.stat.srcs() {
                        let at = k.prf.ready_at(k.renamer.mapping(src));
                        if at == u64::MAX {
                            return None;
                        }
                        if at > k.be_cycles {
                            unit_time = unit_time.max(k.be_cycle_time_ps(at));
                        }
                    }
                }
                t = t.min(unit_time);
            }
        }
        // A fully drained replay transitions out with tick activity, so no
        // further events are needed here.
        Some(t)
    }

    /// Traces recorded during warm-up were built while the branch predictor and
    /// the caches were still cold, so their schedules are unrepresentative.
    /// Mirroring the paper's fast-forward discipline, measurement starts with
    /// warm predictor/cache state but lets the Execution Cache refill with
    /// traces built under that warm behaviour. A replay that is already in
    /// progress keeps its (shared) trace and simply runs to its end.
    fn begin_measurement(&mut self, k: &mut FlyKernel<I>) {
        self.ec.invalidate_all();
        self.builder = None;
        self.builder_dispatched = 0;
        self.measure_start = Some(Snapshot {
            exec_mode_ps: self.exec_mode_ps,
            creation_mode_ps: self.creation_mode_ps,
            trace_switches: self.trace_switches,
            trace_divergences: self.trace_divergences,
            ec: self.ec.stats(),
            pools: k.renamer.stats(),
        });
    }

    fn telemetry(&mut self, k: &FlyKernel<I>, t: &mut TelemetryRecorder) {
        let executing = self.executing();
        if executing != self.tel_executing {
            self.tel_executing = executing;
            t.mode_edge(executing, k.be_cycles, k.fe_cycles);
        }
        let stalls = k.renamer.stats().pool_stalls;
        if stalls != self.tel_pool_stalls {
            t.pool_stalls(k.be_cycles, stalls - self.tel_pool_stalls);
            self.tel_pool_stalls = stalls;
        }
    }

    fn dump(&self) -> String {
        let mode = match &self.mode {
            Mode::Creation => "creation mode".to_owned(),
            Mode::Execution(r) => format!(
                "execution mode replaying {} at index {} of {} ({} pulled{})",
                r.trace.start_pc,
                r.next_idx,
                r.trace.len(),
                r.pulled.len(),
                if r.diverged { ", diverged" } else { "" }
            ),
        };
        format!(
            "; {mode}, checkpoint waits on {:?} and opens at cycle {}, redistribution stall \
             until cycle {}",
            self.checkpoint_wait_retire_of, self.checkpoint_ready_cycle, self.stalled_until_cycle,
        )
    }
}

impl Flywheel {
    #[inline]
    fn executing(&self) -> bool {
        matches!(self.mode, Mode::Execution(_))
    }

    /// Switches mode, and with it the back-end period in force.
    fn set_mode<I: Iterator<Item = DynInst>>(&mut self, k: &mut FlyKernel<I>, mode: Mode) {
        k.be_period_ps = match mode {
            Mode::Creation => k.iw_period_ps,
            Mode::Execution(_) => self.be_period_exec_ps,
        };
        self.mode = mode;
    }

    #[inline]
    fn register_update_allowed<I: Iterator<Item = DynInst>>(&self, k: &FlyKernel<I>) -> bool {
        self.checkpoint_wait_retire_of.is_none() && k.be_cycles >= self.checkpoint_ready_cycle
    }

    fn store_current_trace<I: Iterator<Item = DynInst>>(&mut self, k: &mut FlyKernel<I>) {
        if let Some(builder) = self.builder.take() {
            if !builder.is_empty() && self.cfg.execution_cache {
                let trace = builder.finish();
                let blocks = self.ec.insert(trace);
                k.energy.record(Unit::EcDataWrite, blocks);
            }
        }
        self.builder_dispatched = 0;
    }

    /// Looks up `target` in the EC and, on a hit, switches to trace-execution mode.
    /// Any instructions still waiting in the front-end queue are handed back to the
    /// oracle stream (they will be replayed from the EC instead).
    fn try_switch_to_execution<I: Iterator<Item = DynInst>>(
        &mut self,
        k: &mut FlyKernel<I>,
        target: Pc,
    ) -> bool {
        k.energy.record(Unit::EcTagLookup, 1);
        let Some(trace) = self.ec.lookup(target).cloned() else {
            return false;
        };
        self.store_current_trace(k);
        // Hand un-dispatched front-end instructions back to the oracle. The queue
        // is in program order, so popping from the back and pushing to the front
        // of the pushback queue preserves the stream order.
        while let Some(seq) = k.frontend_q.pop_back() {
            if let Some(entry) = k.inflight.remove(seq) {
                k.oracle.push_front(entry.d);
            }
        }
        k.fetch_blocked_on_branch = None;
        self.trace_switches += 1;
        let ready_at_cycle = k.be_cycles + self.cfg.ec.hit_cycles as u64;
        self.set_mode(k, Mode::Execution(Replay::new(trace, ready_at_cycle)));
        true
    }

    // -------------------------------------------------------- execution-mode issue

    /// One trace-execution cycle of `replay`; leaves the machine in the mode
    /// the replay continues or ends in.
    fn issue_execution<I: Iterator<Item = DynInst>>(
        &mut self,
        k: &mut FlyKernel<I>,
        mut replay: Replay,
    ) {
        // Pull oracle instructions that follow the recorded path.
        while !replay.diverged && replay.pulled.len() < replay.trace.len() {
            let expected_pc = replay.trace.insts[replay.pulled.len()].pc;
            match k.oracle.peek().map(|d| d.pc == expected_pc) {
                Some(true) => {
                    let d = k.oracle.pull().expect("peeked instruction exists");
                    // Retirement keeps sending branch-predictor updates even while
                    // the front end is gated, so the predictor stays coherent for
                    // the next trace-creation phase.
                    k.bpred.train(&d);
                    replay.pulled.push(d);
                    k.tick_activity = true;
                }
                Some(false) => {
                    replay.diverged = true;
                    self.trace_divergences += 1;
                    k.tick_activity = true;
                }
                None => break,
            }
        }

        let startup_done = k.be_cycles >= replay.ready_at_cycle;

        // Issue the next issue unit (in-order, VLIW-like).
        if startup_done && self.register_update_allowed(k) && replay.next_idx < replay.pulled.len()
        {
            let unit_end = replay.unit_end();
            // Only instructions already verified against the actual stream can issue;
            // a partially verified unit waits unless the stream has diverged (the
            // unverified tail will never execute).
            let end = unit_end.min(replay.pulled.len());
            if end == unit_end || replay.diverged {
                let group = replay.next_idx..end;
                if !group.is_empty() && self.can_issue_replay_group(k, &replay, group.clone()) {
                    k.tick_activity = true;
                    for idx in group {
                        self.issue_replay_inst(k, &mut replay, idx);
                    }
                    k.sched.drain_wakes(&mut k.inflight);
                    replay.next_idx = end;
                } else if !group.is_empty() && k.rob.is_empty() && k.iw_len == 0 {
                    k.tick_activity = true;
                    // Safety valve: with nothing in flight the unit can only be
                    // blocked by state that will never change (e.g. a pool shrunk by
                    // a redistribution below what the recorded schedule assumed).
                    // Abandon the replay and rebuild the trace through the front end;
                    // instructions already verified but not yet issued go back to the
                    // oracle stream so the front end re-fetches them.
                    for d in replay.pulled[replay.next_idx..].iter().rev() {
                        k.oracle.push_front(d.clone());
                    }
                    self.ec.remove(replay.trace.start_pc);
                    self.checkpoint_ready_cycle = k.be_cycles + 1;
                    self.enter_creation_mode_at_next_oracle_pc(k);
                    return;
                }
            }
        }

        // Trace end conditions.
        let finished_all = replay.next_idx >= replay.trace.len();
        let finished_diverged = replay.diverged && replay.next_idx >= replay.pulled.len();
        if finished_all || finished_diverged {
            k.tick_activity = true;
            if replay.diverged {
                // The offending branch must retire before the next trace can pass
                // Register Update (FRT checkpoint).
                self.set_checkpoint_after(k, replay.pulled.last().map(|d| d.seq));
                // The recorded schedule no longer matches the program's behaviour;
                // drop it so the front end builds a fresh (longer) trace for this
                // path the next time it is reached.
                self.ec.remove(replay.trace.start_pc);
            } else if self.cfg.srt {
                // Natural trace end detected before Register Update: the SRT swap
                // costs a single cycle.
                self.checkpoint_ready_cycle = k.be_cycles + 1;
            } else {
                self.set_checkpoint_after(k, replay.pulled.last().map(|d| d.seq));
            }
            self.next_trace_segment(k);
            return;
        }
        self.mode = Mode::Execution(replay);
    }

    /// Blocks Register Update until `seq` retires; if it already left the machine,
    /// the checkpoint only costs the usual single cycle.
    fn set_checkpoint_after<I: Iterator<Item = DynInst>>(
        &mut self,
        k: &FlyKernel<I>,
        seq: Option<u64>,
    ) {
        match seq {
            Some(s) if k.inflight.contains(s) => {
                self.checkpoint_wait_retire_of = Some(s);
            }
            _ => self.checkpoint_ready_cycle = k.be_cycles + 1,
        }
    }

    fn can_issue_replay_group<I: Iterator<Item = DynInst>>(
        &self,
        k: &FlyKernel<I>,
        replay: &Replay,
        group: std::ops::Range<usize>,
    ) -> bool {
        if k.rob.len() + group.len() > self.cfg.base.rob_entries as usize {
            return false;
        }
        let mem_count = group
            .clone()
            .filter(|&i| replay.trace.insts[i].stat.op().is_mem())
            .count();
        if k.lsq.len() + mem_count > self.cfg.base.lsq_entries as usize {
            return false;
        }
        // Operand readiness: sources must be available (pre-scheduled VLIW-like
        // replay stalls on cache misses and long-latency producers). Destinations
        // must have a free entry in their register pool.
        for i in group {
            let stat = replay.trace.insts[i].stat;
            for src in stat.srcs() {
                let phys = k.renamer.mapping(src);
                if !k.prf.is_ready(phys, k.be_cycles) {
                    return false;
                }
            }
            if let Some(dst) = stat.dst() {
                if !k.renamer.can_allocate(dst) {
                    return false;
                }
            }
        }
        true
    }

    fn issue_replay_inst<I: Iterator<Item = DynInst>>(
        &mut self,
        k: &mut FlyKernel<I>,
        replay: &mut Replay,
        idx: usize,
    ) {
        let d = replay.pulled[idx].clone();
        let seq = d.seq;
        let op = d.stat.op();
        let mem_addr = d.mem.map(|m| m.addr);
        let rename = k
            .renamer
            .rename(&d.stat, &mut k.prf)
            // Pool capacity cannot be exceeded during replay: the same allocation
            // pattern already succeeded during trace creation and the ROB bounds the
            // number of in-flight writes. If it does happen (after a redistribution
            // shrank a pool), fall back to reusing the current mapping.
            .unwrap_or_default();
        k.energy.record(Unit::RegisterUpdate, 1);
        k.energy
            .record(Unit::RegFileRead, d.stat.srcs().count() as u64);
        k.energy.record(fu_energy_unit(op), 1);
        if op.is_mem() {
            k.energy.record(Unit::Lsq, 1);
        }
        // Data-array block accounting: one read per block of instructions consumed.
        if replay
            .consumed
            .is_multiple_of(self.cfg.ec.block_insts as u64)
        {
            k.energy.record(Unit::EcDataRead, 1);
        }
        replay.consumed += 1;

        k.inflight.insert(InflightEntry::new_replay(d, rename));
        k.rob.push_back(seq);
        if op.is_mem() {
            k.lsq.push_back(seq);
        }
        let exec_cycles = k.execution_latency(seq, op, mem_addr, self.be_period_exec_ps);
        k.start_execution(seq, exec_cycles);
    }

    /// After a trace ends, decide where execution continues: another trace from the
    /// EC, or the front end.
    fn next_trace_segment<I: Iterator<Item = DynInst>>(&mut self, k: &mut FlyKernel<I>) {
        let Some(next_pc) = k.oracle.peek().map(|d| d.pc) else {
            self.set_mode(k, Mode::Creation);
            return;
        };
        if self.cfg.execution_cache {
            k.energy.record(Unit::EcTagLookup, 1);
            if let Some(trace) = self.ec.lookup(next_pc).cloned() {
                self.trace_switches += 1;
                // For natural trace-to-trace transitions the next look-up is started
                // ahead of time, so the data-array latency is hidden and only the
                // single-cycle SRT swap (already charged through
                // `checkpoint_ready_cycle`) is visible.
                let ready_at_cycle = k.be_cycles + 1;
                self.set_mode(k, Mode::Execution(Replay::new(trace, ready_at_cycle)));
                return;
            }
        }
        self.enter_creation_mode_at_next_oracle_pc(k);
    }

    fn enter_creation_mode_at_next_oracle_pc<I: Iterator<Item = DynInst>>(
        &mut self,
        k: &mut FlyKernel<I>,
    ) {
        self.set_mode(k, Mode::Creation);
        self.builder = None;
        self.builder_dispatched = 0;
        k.fetch_blocked_on_branch = None;
        // The front end needs a redirect-like restart before it can supply
        // instructions again.
        k.redirect_fetch(k.now_ps());
    }

    /// The Flywheel statistics of the measured interval.
    fn stats<I: Iterator<Item = DynInst>>(&self, k: &FlyKernel<I>) -> FlywheelStats {
        let start = self.measure_start.as_ref().expect("measurement started");
        let exec_ps = self.exec_mode_ps - start.exec_mode_ps;
        let creation_ps = self.creation_mode_ps - start.creation_mode_ps;
        let residency = if exec_ps + creation_ps == 0 {
            0.0
        } else {
            exec_ps as f64 / (exec_ps + creation_ps) as f64
        };
        let ec_now = self.ec.stats();
        let pool_now = k.renamer.stats();
        FlywheelStats {
            exec_mode_ps: exec_ps,
            creation_mode_ps: creation_ps,
            ec_residency: residency,
            ec_lookups: ec_now.lookups - start.ec.lookups,
            ec_hits: ec_now.hits - start.ec.hits,
            traces_stored: ec_now.traces_stored - start.ec.traces_stored,
            ec_utilization: self.ec.utilization(),
            trace_switches: self.trace_switches - start.trace_switches,
            trace_divergences: self.trace_divergences - start.trace_divergences,
            pool_stalls: pool_now.pool_stalls - start.pools.pool_stalls,
            redistributions: pool_now.redistributions - start.pools.redistributions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flywheel_timing::TechNode;
    use flywheel_uarch::kernel::NO_PROGRESS_WINDOW;
    use flywheel_uarch::{BaselineConfig, BaselineSim, SimResult};
    use flywheel_workloads::{Benchmark, TraceGenerator};

    fn flywheel_on(b: Benchmark, cfg: FlywheelConfig, budget: SimBudget) -> FlywheelResult {
        let program = b.synthesize(42);
        let trace = TraceGenerator::new(&program, 42);
        FlywheelSim::new(cfg, trace).run(budget)
    }

    fn baseline_on(b: Benchmark, budget: SimBudget) -> SimResult {
        let program = b.synthesize(42);
        let trace = TraceGenerator::new(&program, 42);
        BaselineSim::new(BaselineConfig::paper(TechNode::N130), trace).run(budget)
    }

    #[test]
    fn retires_the_requested_instruction_count() {
        let r = flywheel_on(
            Benchmark::Micro,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            SimBudget::new(1_000, 20_000),
        );
        assert_eq!(r.sim.instructions, 20_000);
        assert!(r.sim.elapsed_ps > 0);
    }

    #[test]
    fn execution_cache_path_is_used_most_of_the_time() {
        // The paper reports an average 88% residency on the alternative execution
        // path; loop-dominated benchmarks should comfortably exceed 50% even at the
        // small test scale.
        let r = flywheel_on(
            Benchmark::Ijpeg,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            SimBudget::new(20_000, 60_000),
        );
        assert!(
            r.flywheel.ec_residency > 0.4,
            "EC residency {:.2} too low (switches {}, stored {}, hits {}/{})",
            r.flywheel.ec_residency,
            r.flywheel.trace_switches,
            r.flywheel.traces_stored,
            r.flywheel.ec_hits,
            r.flywheel.ec_lookups,
        );
        assert!(r.flywheel.traces_stored > 0);
        assert!(r.flywheel.trace_switches > 0);
        assert_eq!(
            r.sim.gated_frontend_fraction, r.flywheel.ec_residency,
            "residency must be reported consistently"
        );
    }

    #[test]
    fn disabling_the_ec_keeps_the_machine_in_creation_mode() {
        let r = flywheel_on(
            Benchmark::Gzip,
            FlywheelConfig::register_allocation_only(TechNode::N130),
            SimBudget::new(2_000, 20_000),
        );
        assert_eq!(r.flywheel.ec_residency, 0.0);
        assert_eq!(r.flywheel.traces_stored, 0);
        assert_eq!(r.sim.instructions, 20_000);
    }

    #[test]
    fn register_allocation_machine_is_slower_than_baseline() {
        // Figure 11: the Dual-Clock IW + pool renaming alone lose performance
        // against the baseline at the same clock (longer pipeline, rename stalls).
        let budget = SimBudget::new(5_000, 40_000);
        for bench in [Benchmark::Gzip, Benchmark::Parser] {
            let base = baseline_on(bench, budget);
            let regalloc = flywheel_on(
                bench,
                FlywheelConfig::register_allocation_only(TechNode::N130),
                budget,
            );
            let relative = base.elapsed_ps as f64 / regalloc.sim.elapsed_ps as f64;
            assert!(
                relative < 1.02,
                "{bench}: register-allocation machine should not beat the baseline ({relative:.3})"
            );
            // The paper reports >10% losses for the register-pressure benchmarks; the
            // synthetic stand-ins overshoot that somewhat at small scale, so only a
            // collapse (more than 2x) is treated as a failure.
            assert!(
                relative > 0.5,
                "{bench}: register-allocation machine should not collapse ({relative:.3})"
            );
            assert!(
                regalloc.flywheel.pool_stalls > 0,
                "{bench}: expected pool pressure"
            );
        }
    }

    #[test]
    fn faster_clocks_improve_flywheel_performance() {
        // Figure 12: raising the front-end and back-end clocks must increase
        // performance monotonically (roughly).
        let budget = SimBudget::new(10_000, 40_000);
        let iso = flywheel_on(
            Benchmark::Mesa,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            budget,
        );
        let be50 = flywheel_on(
            Benchmark::Mesa,
            FlywheelConfig::paper(TechNode::N130, 0, 50),
            budget,
        );
        let fe50 = flywheel_on(
            Benchmark::Mesa,
            FlywheelConfig::paper(TechNode::N130, 50, 50),
            budget,
        );
        assert!(
            be50.sim.elapsed_ps < iso.sim.elapsed_ps,
            "BE+50% ({}) should beat iso-clock ({})",
            be50.sim.elapsed_ps,
            iso.sim.elapsed_ps
        );
        // A faster front end mostly helps by filling the Issue Window sooner; at
        // this small scale it may be offset by extra register-pool pressure, so a
        // modest tolerance is allowed.
        assert!(
            fe50.sim.elapsed_ps <= be50.sim.elapsed_ps * 110 / 100,
            "FE+50% should not cost more than 10% ({} vs {})",
            fe50.sim.elapsed_ps,
            be50.sim.elapsed_ps
        );
    }

    #[test]
    fn sped_up_flywheel_beats_the_baseline() {
        // The headline claim: with FE+50%/BE+50% the Flywheel machine is markedly
        // faster than the fully synchronous baseline.
        let budget = SimBudget::new(10_000, 50_000);
        let base = baseline_on(Benchmark::Ijpeg, budget);
        let iso = flywheel_on(
            Benchmark::Ijpeg,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            budget,
        );
        let fly = flywheel_on(
            Benchmark::Ijpeg,
            FlywheelConfig::paper(TechNode::N130, 50, 50),
            budget,
        );
        let speedup = fly.speedup_over(&base);
        // At the small test scale the reproduction undershoots the paper's 1.5x
        // (see EXPERIMENTS.md), but the sped-up Flywheel must stay competitive with
        // the baseline and clearly beat its own iso-clock configuration.
        assert!(
            speedup > 0.85,
            "expected a competitive result, got {speedup:.3} (residency {:.2})",
            fly.flywheel.ec_residency
        );
        assert!(
            fly.speedup_over(&iso.sim) > 1.1,
            "faster clocks must pay off: {:.3}",
            fly.speedup_over(&iso.sim)
        );
    }

    #[test]
    fn flywheel_saves_energy_through_front_end_gating() {
        // Figure 13: the Flywheel machine consumes less total energy than the
        // baseline because the front end is gated while replaying from the EC. At
        // the small unit-test scale the effect is evaluated at the baseline clock
        // where the residency is highest; EXPERIMENTS.md records the full sweep.
        let budget = SimBudget::new(10_000, 50_000);
        let base = baseline_on(Benchmark::Ijpeg, budget);
        let fly = flywheel_on(
            Benchmark::Ijpeg,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            budget,
        );
        let ratio = fly.energy_ratio_over(&base);
        assert!(
            ratio < 1.0,
            "expected energy savings, got ratio {ratio:.3} (residency {:.2})",
            fly.flywheel.ec_residency
        );
        assert!(
            ratio > 0.4,
            "savings should not be implausibly large ({ratio:.3})"
        );
        // The EC path spends energy on its own structures.
        assert!(fly.sim.energy.flywheel_pj > 0.0);
    }

    #[test]
    fn vortex_uses_the_front_end_more_than_loop_codes() {
        // The paper singles out vortex as the benchmark with the lowest EC
        // residency (~60%) because of its large instruction footprint.
        // The paper reports vortex as the benchmark with the lowest residency on the
        // alternative execution path (< 60%, against an 88% suite average), caused by
        // its large instruction footprint and call-dominated control flow.
        let budget = SimBudget::new(10_000, 40_000);
        let vortex = flywheel_on(
            Benchmark::Vortex,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            budget,
        );
        assert!(
            vortex.flywheel.ec_residency < 0.75,
            "vortex residency {:.2} should be on the low side",
            vortex.flywheel.ec_residency
        );
        assert!(
            vortex.flywheel.ec_residency > 0.1,
            "vortex should still use the EC path some of the time ({:.2})",
            vortex.flywheel.ec_residency
        );
    }

    #[test]
    fn trace_divergences_are_detected() {
        let r = flywheel_on(
            Benchmark::Parser,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            SimBudget::new(10_000, 40_000),
        );
        assert!(
            r.flywheel.trace_divergences > 0,
            "parser's irregular branches must cause replay divergences"
        );
    }

    #[test]
    fn dvfs_governor_retunes_and_beats_the_iso_clock_start() {
        // Starting at BE0 on a high-residency benchmark, the governor must
        // ratchet the trace-execution clock up and finish the measured run
        // faster than the static iso-clock machine, without touching committed
        // work.
        let budget = SimBudget::new(5_000, 40_000);
        let program = Benchmark::FlyBest.synthesize(42);
        let mut gov = FlywheelSim::new_dvfs(
            crate::DvfsConfig::paper(TechNode::N130, 0, 0),
            TraceGenerator::new(&program, 42),
        );
        let governed = gov.run(budget);
        assert!(gov.dvfs_retunes() > 0, "governor never retuned");
        let iso = flywheel_on(
            Benchmark::FlyBest,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            budget,
        );
        assert_eq!(governed.sim.instructions, iso.sim.instructions);
        assert!(
            governed.sim.elapsed_ps < iso.sim.elapsed_ps,
            "governed {} vs iso {}",
            governed.sim.elapsed_ps,
            iso.sim.elapsed_ps
        );
    }

    #[test]
    fn dvfs_runs_are_deterministic() {
        let budget = SimBudget::new(2_000, 10_000);
        let run = || {
            let program = Benchmark::Gzip.synthesize(42);
            FlywheelSim::new_dvfs(
                crate::DvfsConfig::paper(TechNode::N130, 50, 50),
                TraceGenerator::new(&program, 42),
            )
            .run(budget)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn no_progress_guard_names_the_checkpoint_it_is_stuck_on() {
        let program = Benchmark::Micro.synthesize(42);
        for dvfs in [false, true] {
            let trace = TraceGenerator::new(&program, 42);
            let mut sim = if dvfs {
                FlywheelSim::new_dvfs(crate::DvfsConfig::paper(TechNode::N130, 0, 0), trace)
            } else {
                FlywheelSim::new(FlywheelConfig::paper_iso_clock(TechNode::N130), trace)
            };
            // Register Update waits on an instruction that never retires, so
            // nothing ever dispatches.
            sim.fly.checkpoint_wait_retire_of = Some(u64::MAX);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run(SimBudget::new(10, 100))
            }))
            .expect_err("a machine that never dispatches must trip the guard");
            let msg = err
                .downcast::<String>()
                .expect("the guard is a plain panic, not a watchdog timeout");
            let trip = format!(
                "tripped at cycle {}, last retirement at cycle 0",
                NO_PROGRESS_WINDOW + 1
            );
            assert!(msg.contains(&trip), "dvfs {dvfs}: {msg}");
            assert!(
                msg.contains("creation mode, checkpoint waits on Some(18446744073709551615)"),
                "dvfs {dvfs}: {msg}"
            );
        }
    }
}
