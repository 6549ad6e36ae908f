//! The machines the scenario engine can place in a cell, and the executor
//! that runs one cell.
//!
//! [`Machine`] is a closed enum: the paper's synchronous baseline, its two
//! Figure 2 loop-stretching variants, Figure 11's register-allocation
//! machine, the Flywheel, and the two machines this reproduction adds
//! (`multidomain`, `dvfs`). Its name, summary, power-model kind and the two
//! axis flags (which scenario axes it sweeps) are `match`es on the variant.
//!
//! [`Executor`] is one cell with its machine configuration fully resolved:
//! [`ScenarioCell::executor`] builds it from the cell's machine and axes. It
//! holds one configuration per simulator entry point (`BaselineSim::new`,
//! `BaselineSim::new_multi_domain`, `FlywheelSim::new`,
//! `FlywheelSim::new_dvfs`) and knows how to validate it, derive its content
//! address, and simulate (or replay) it.
//!
//! Store keys name the *simulator* an executor runs ([`Executor::simulator`]),
//! not the machine: every structural variant of the baseline and the Flywheel
//! keys as `baseline` or `flywheel`, and the configuration's `Debug`
//! rendering tells the variants apart. A cell therefore has one address
//! whichever machine or figure asks for it (pinned by the tests here and in
//! [`crate::store`]).

use crate::scenario::ScenarioCell;
use crate::store::{self, RunStats, StoreKey};
use crate::telemetry;
use flywheel_core::{DvfsConfig, FlywheelConfig, FlywheelSim};
use flywheel_power::{MachineKind, PowerConfig};
use flywheel_timing::ClockPlan;
use flywheel_uarch::{BaselineConfig, BaselineSim, MultiDomainConfig, SimBudget};
use flywheel_workloads::TraceCursor;

/// A machine model a scenario can place in a cell.
///
/// `Debug` and `Display` print [`Machine::name`], the spelling the CLI, the
/// spec grammar, the store labels and the emitters use.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Machine {
    /// The paper's synchronous baseline (Table 2).
    Baseline,
    /// Baseline with one extra front-end stage (Figure 2, light bars).
    BaselineExtraFe,
    /// Baseline with Wake-up/Select pipelined over two cycles (Figure 2, dark
    /// bars).
    BaselinePipedWakeup,
    /// The "Register Allocation" machine of Figure 11: Dual-Clock Issue Window
    /// and pool renaming without the Execution Cache.
    RegAlloc,
    /// The full Flywheel machine.
    Flywheel,
    /// The multi-domain baseline: LSQ/D-cache access in its own clock domain.
    MultiDomain,
    /// The DVFS-governed Flywheel: the back-end clock is retuned at fixed
    /// intervals from the observed Execution Cache residency.
    Dvfs,
}

impl Machine {
    /// Every machine, in a stable order.
    pub fn all() -> &'static [Machine] {
        &[
            Machine::Baseline,
            Machine::BaselineExtraFe,
            Machine::BaselinePipedWakeup,
            Machine::RegAlloc,
            Machine::Flywheel,
            Machine::MultiDomain,
            Machine::Dvfs,
        ]
    }

    /// The machine's stable name, as used by the `scenarios` CLI, the store
    /// labels and the emitters. The `multidomain` and `dvfs` store keys carry
    /// it too, so renaming either orphans its stored results — don't.
    pub fn name(self) -> &'static str {
        match self {
            Machine::Baseline => "baseline",
            Machine::BaselineExtraFe => "baseline-extra-fe",
            Machine::BaselinePipedWakeup => "baseline-piped-wakeup",
            Machine::RegAlloc => "regalloc",
            Machine::Flywheel => "flywheel",
            Machine::MultiDomain => "multidomain",
            Machine::Dvfs => "dvfs",
        }
    }

    /// One-line human description (the `list-machines` subcommand prints it).
    pub fn summary(self) -> &'static str {
        match self {
            Machine::Baseline => "the paper's synchronous out-of-order baseline (Table 2)",
            Machine::BaselineExtraFe => {
                "baseline with one extra front-end stage (Figure 2, light bars)"
            }
            Machine::BaselinePipedWakeup => {
                "baseline with Wake-up/Select pipelined over two cycles (Figure 2, dark bars)"
            }
            Machine::RegAlloc => {
                "Figure 11's Register Allocation machine: dual-clock IW + pool renaming, no EC"
            }
            Machine::Flywheel => {
                "the full Flywheel machine (dual-clock IW, Execution Cache, pool renaming)"
            }
            Machine::MultiDomain => {
                "baseline with the LSQ/D-cache pipeline in its own, faster clock domain"
            }
            Machine::Dvfs => {
                "Flywheel with a governor retuning the back-end clock from observed EC residency"
            }
        }
    }

    /// Parses a machine from its [`Machine::name`].
    pub fn from_name(name: &str) -> Option<Machine> {
        Machine::all().iter().copied().find(|m| m.name() == name)
    }

    /// Which power-model machine kind the machine's energy account binds to
    /// (what structures it instantiates and leaks from).
    pub fn kind(self) -> MachineKind {
        match self {
            Machine::Baseline
            | Machine::BaselineExtraFe
            | Machine::BaselinePipedWakeup
            | Machine::MultiDomain => MachineKind::Baseline,
            Machine::RegAlloc | Machine::Flywheel | Machine::Dvfs => MachineKind::Flywheel,
        }
    }

    /// Whether this is a baseline-kind machine: it carries no Flywheel
    /// statistics and its energy account binds to [`MachineKind::Baseline`].
    pub fn is_baseline(self) -> bool {
        self.kind() == MachineKind::Baseline
    }

    /// Whether the machine sweeps the scenario's clock axis. Machines that
    /// don't run once at the scenario's `baseline_clock` instead, so a clock
    /// sweep does not multiply the reference runs.
    pub fn uses_clock_axis(self) -> bool {
        !matches!(
            self,
            Machine::Baseline | Machine::BaselineExtraFe | Machine::BaselinePipedWakeup
        )
    }

    /// Whether the machine's behaviour depends on the Execution Cache axis.
    pub fn uses_ec_axis(self) -> bool {
        matches!(self, Machine::Flywheel | Machine::Dvfs)
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::fmt::Display for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The resolved configuration of one simulator entry point.
enum Config {
    Baseline(BaselineConfig),
    MultiDomain(MultiDomainConfig),
    Flywheel(FlywheelConfig),
    Dvfs(DvfsConfig),
}

/// One grid cell with its machine configuration fully resolved: the single
/// object the scenario engine validates, keys and simulates a cell through.
pub struct Executor {
    cell: ScenarioCell,
    config: Config,
}

/// Applies a cell's clock, window and memory axes to a baseline-core config.
/// A clocked-up baseline core needs the Dual-Clock Issue Window's
/// synchronization latencies, as in `BaselineConfig::with_dual_clock_frontend`.
fn baseline_with_axes(mut cfg: BaselineConfig, c: &ScenarioCell) -> BaselineConfig {
    if c.fe_pct > 0 || c.be_pct > 0 {
        cfg.clocks = ClockPlan::with_speedups(c.node, c.fe_pct, c.be_pct);
        cfg.sync_latency_be_cycles = 1;
        cfg.redirect_sync_fe_cycles = 1;
    }
    cfg.iw_entries = c.iw_entries;
    cfg.rob_entries = c.rob_entries;
    cfg.mem_cycles = c.mem_cycles;
    cfg
}

/// Applies a cell's window, memory and Execution Cache axes to a Flywheel
/// config (its clocks come from `FlywheelConfig::paper`).
fn flywheel_with_axes(mut cfg: FlywheelConfig, c: &ScenarioCell) -> FlywheelConfig {
    cfg.base.iw_entries = c.iw_entries;
    cfg.base.rob_entries = c.rob_entries;
    cfg.base.mem_cycles = c.mem_cycles;
    cfg.ec.size_bytes = c.ec_kb * 1024;
    cfg
}

impl Executor {
    /// Resolves `cell`'s machine at the cell's axes. With every axis at its
    /// paper default the configuration is exactly the paper machine (plus the
    /// machine's structural knob).
    pub(crate) fn new(cell: ScenarioCell) -> Executor {
        let c = &cell;
        let paper = || BaselineConfig::paper(c.node);
        let config = match c.machine {
            Machine::Baseline => Config::Baseline(baseline_with_axes(paper(), c)),
            Machine::BaselineExtraFe => {
                Config::Baseline(baseline_with_axes(paper().with_extra_frontend_stage(), c))
            }
            Machine::BaselinePipedWakeup => {
                Config::Baseline(baseline_with_axes(paper().with_pipelined_wakeup(), c))
            }
            Machine::MultiDomain => {
                let mut cfg = MultiDomainConfig::paper(c.node);
                cfg.base = baseline_with_axes(cfg.base, c);
                Config::MultiDomain(cfg)
            }
            Machine::RegAlloc | Machine::Flywheel => {
                let mut cfg = FlywheelConfig::paper(c.node, c.fe_pct, c.be_pct);
                cfg.execution_cache = c.machine == Machine::Flywheel;
                Config::Flywheel(flywheel_with_axes(cfg, c))
            }
            Machine::Dvfs => {
                let mut cfg = DvfsConfig::paper(c.node, c.fe_pct, c.be_pct);
                cfg.fly = flywheel_with_axes(cfg.fly, c);
                Config::Dvfs(cfg)
            }
        };
        Executor { cell, config }
    }

    /// The name of the simulator this executor drives, which enters the
    /// store key: `baseline` or `flywheel` for every structural variant of
    /// those kernels, so a variant keys like any other configuration of the
    /// same simulator, and the machine's own name for `multidomain` and
    /// `dvfs`.
    pub fn simulator(&self) -> &'static str {
        match self.config {
            Config::Baseline(_) => "baseline",
            Config::MultiDomain(_) => "multidomain",
            Config::Flywheel(_) => "flywheel",
            Config::Dvfs(_) => "dvfs",
        }
    }

    /// Validates the resolved machine configuration.
    pub fn validate(&self) -> Result<(), String> {
        match &self.config {
            Config::Baseline(cfg) => cfg.validate(),
            Config::MultiDomain(cfg) => cfg.validate(),
            Config::Flywheel(cfg) => cfg.validate(),
            Config::Dvfs(cfg) => cfg.validate(),
        }
    }

    /// The `Debug` rendering of the resolved configuration — exactly the
    /// string that enters this cell's store key (see [`store::family_input`]).
    pub fn config_debug(&self) -> String {
        match &self.config {
            Config::Baseline(cfg) => format!("{cfg:?}"),
            Config::MultiDomain(cfg) => format!("{cfg:?}"),
            Config::Flywheel(cfg) => format!("{cfg:?}"),
            Config::Dvfs(cfg) => format!("{cfg:?}"),
        }
    }

    /// The power-model geometry and [`MachineKind`] leakage binding of this
    /// machine (what the invariant layer rebuilds to cross-check attributed
    /// leakage).
    pub fn power_binding(&self) -> (PowerConfig, MachineKind) {
        match &self.config {
            Config::Baseline(cfg) => (cfg.power_config(), MachineKind::Baseline),
            Config::MultiDomain(cfg) => (cfg.power_config(), MachineKind::Baseline),
            Config::Flywheel(cfg) => (cfg.power_config(), MachineKind::Flywheel),
            Config::Dvfs(cfg) => (cfg.power_config(), MachineKind::Flywheel),
        }
    }

    /// The machine's commit width (bounds retirement bandwidth).
    pub fn commit_width(&self) -> u32 {
        match &self.config {
            Config::Baseline(cfg) => cfg.commit_width,
            Config::MultiDomain(cfg) => cfg.base.commit_width,
            Config::Flywheel(cfg) => cfg.base.commit_width,
            Config::Dvfs(cfg) => cfg.fly.base.commit_width,
        }
    }

    /// Runs the simulator directly on an explicit trace cursor, bypassing
    /// every store and cache. The identity tests use this to prove restarted
    /// cursors replay bit-identically.
    pub fn replay(&self, cursor: TraceCursor<'_>, budget: SimBudget) -> RunStats {
        match &self.config {
            Config::Baseline(cfg) => {
                RunStats::from_baseline(BaselineSim::new(cfg.clone(), cursor).run(budget))
            }
            Config::MultiDomain(cfg) => RunStats::from_baseline(
                BaselineSim::new_multi_domain(cfg.clone(), cursor).run(budget),
            ),
            Config::Flywheel(cfg) => {
                RunStats::from_flywheel(&FlywheelSim::new(cfg.clone(), cursor).run(budget))
            }
            Config::Dvfs(cfg) => {
                RunStats::from_flywheel(&FlywheelSim::new_dvfs(cfg.clone(), cursor).run(budget))
            }
        }
    }

    /// The content address of this cell at `budget`: a hash of the
    /// simulator name, the full machine configuration, workload, seed, budget
    /// and the code-version salt (see [`crate::store`]).
    pub fn key(&self, budget: SimBudget) -> StoreKey {
        let c = &self.cell;
        store::family_key(
            self.simulator(),
            &self.config_debug(),
            c.bench,
            c.seed,
            budget,
        )
    }

    /// Simulates the cell against the shared recorded trace of its
    /// `(benchmark, seed)` pair, bypassing every store: the single choke
    /// point through which every cell simulation runs (and is
    /// telemetry-recorded).
    pub fn simulate(&self, budget: SimBudget) -> RunStats {
        let c = &self.cell;
        let trace = crate::shared_trace(c.bench, c.seed, budget);
        // When a telemetry sink is installed, the run records into its own
        // buffer, and its events land in the log as one block under the same
        // content address the store files the cell under. Disarmed cost: one
        // atomic load.
        telemetry::record_cell(
            || {
                (
                    self.key(budget),
                    store::cell_label(c.machine.name(), c.bench, c.seed),
                )
            },
            || self.replay(trace.cursor(), budget),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flywheel_timing::TechNode;
    use flywheel_workloads::Benchmark;

    /// The paper-point cell of `machine` on the micro benchmark, seed 42.
    fn paper_cell(machine: Machine) -> ScenarioCell {
        ScenarioCell {
            bench: Benchmark::Micro,
            seed: 42,
            machine,
            node: TechNode::N130,
            fe_pct: 0,
            be_pct: 0,
            iw_entries: 128,
            rob_entries: 128,
            ec_kb: 128,
            mem_cycles: 100,
        }
    }

    #[test]
    fn registry_names_are_unique_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for &m in Machine::all() {
            assert!(seen.insert(m.name()), "duplicate machine '{}'", m.name());
            assert_eq!(Machine::from_name(m.name()), Some(m));
            assert_eq!(format!("{m}"), m.name());
            assert_eq!(format!("{m:?}"), m.name());
        }
        assert_eq!(Machine::from_name("nope"), None);
        assert_eq!(Machine::all().len(), 7);
    }

    #[test]
    fn capability_flags_bind_kind_and_axes() {
        assert!(Machine::MultiDomain.is_baseline());
        assert!(Machine::MultiDomain.uses_clock_axis());
        assert!(!Machine::MultiDomain.uses_ec_axis());
        assert_eq!(Machine::Dvfs.kind(), MachineKind::Flywheel);
        assert!(Machine::Dvfs.uses_ec_axis());
        assert!(Machine::RegAlloc.uses_clock_axis());
        assert!(!Machine::RegAlloc.uses_ec_axis());
        // Baseline-kind machines don't sweep the EC axis.
        for &m in Machine::all() {
            if m.is_baseline() {
                assert!(!m.uses_ec_axis(), "{m}: a baseline-kind machine has no EC");
            }
        }
    }

    #[test]
    fn every_family_builds_a_valid_paper_point_executor() {
        for &m in Machine::all() {
            let exec = paper_cell(m).executor();
            exec.validate()
                .unwrap_or_else(|e| panic!("{}: invalid paper point: {e}", m.name()));
            assert!(exec.commit_width() > 0);
            let (_, kind) = exec.power_binding();
            assert_eq!(kind, m.kind());
        }
    }

    #[test]
    fn executor_keys_pin_the_legacy_derivation() {
        // Keys name the simulator, not the machine: every baseline variant
        // keys as `baseline` and every Flywheel variant as `flywheel`, with
        // the full configuration telling them apart.
        let budget = SimBudget::new(500, 2_000);
        let key = |sim: &str, cfg: &dyn std::fmt::Debug| {
            store::family_key(sim, &format!("{cfg:?}"), Benchmark::Micro, 42, budget)
        };
        let paper = BaselineConfig::paper(TechNode::N130);
        for (m, want) in [
            (Machine::Baseline, key("baseline", &paper)),
            (
                Machine::BaselineExtraFe,
                key("baseline", &paper.clone().with_extra_frontend_stage()),
            ),
            (
                Machine::BaselinePipedWakeup,
                key("baseline", &paper.clone().with_pipelined_wakeup()),
            ),
            (
                Machine::Flywheel,
                key("flywheel", &FlywheelConfig::paper_iso_clock(TechNode::N130)),
            ),
            (
                Machine::RegAlloc,
                key(
                    "flywheel",
                    &FlywheelConfig::register_allocation_only(TechNode::N130),
                ),
            ),
        ] {
            assert_eq!(paper_cell(m).key(budget), want, "{m}");
        }
        // Every machine derives a distinct key at the same grid point.
        let keys: std::collections::HashSet<StoreKey> = Machine::all()
            .iter()
            .map(|&m| paper_cell(m).key(budget))
            .collect();
        assert_eq!(keys.len(), Machine::all().len());
    }

    #[test]
    fn new_families_run_and_differ_from_their_parents() {
        let budget = SimBudget::new(500, 2_000);
        // A pointer chase is load-latency sensitive.
        let simulate = |machine| {
            let mut cell = paper_cell(machine);
            cell.bench = Benchmark::PtrChase;
            cell.executor().simulate(budget)
        };
        let base = simulate(Machine::Baseline);
        let multi = simulate(Machine::MultiDomain);
        assert!(base.flywheel.is_none() && multi.flywheel.is_none());
        assert_ne!(
            base.sim, multi.sim,
            "the LSQ domain must change load timing on a pointer chase"
        );
        let dvfs = simulate(Machine::Dvfs);
        assert!(dvfs.flywheel.is_some(), "DVFS is a Flywheel-kind machine");
    }
}
