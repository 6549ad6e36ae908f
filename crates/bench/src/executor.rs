//! Machine-family executor registry: every machine the scenario engine can
//! place in a cell, described as *data* (a [`MachineFamily`]) plus a
//! *builder* (an [`ExecutorBuilder`]), instead of a hard-coded enum with
//! per-variant dispatch scattered across the engine.
//!
//! A family descriptor carries the machine's stable name (which enters
//! labels and every emitted artifact), its capability flags (which scenario
//! axes it consumes), its [`MachineKind`] power binding, and the preset tags
//! that place it in the scenario presets. The builder turns one grid point's
//! machine-independent [`CellAxes`] into a boxed [`Executor`] that owns the
//! fully-resolved machine configuration and knows how to validate it, derive
//! its content address, and simulate (or replay) it.
//!
//! [`Machine`] is a thin copyable handle over a registered family. The
//! associated constants ([`Machine::Baseline`], [`Machine::Flywheel`], …)
//! keep the enum-era spelling working everywhere — scenario specs, CLI
//! flags, tests — while the engine itself never matches on the machine: it
//! asks the family for capabilities and the executor for behaviour, so a new
//! family drops into scenarios, the result store, reports, invariants and
//! telemetry with zero changes in those layers.
//!
//! Store keys name the *simulator* an executor runs ([`Executor::simulator`]),
//! not the registry label: every structural variant the baseline and Flywheel
//! builders produce keys as `baseline` or `flywheel`, and the configuration's
//! `Debug` rendering tells the variants apart. A cell therefore has one
//! address whichever family or figure asks for it (pinned by the tests here
//! and in [`crate::store`]).

use crate::store::{self, RunStats, StoreKey};
use crate::telemetry;
use flywheel_core::{DvfsConfig, FlywheelConfig, FlywheelSim};
use flywheel_power::{MachineKind, PowerConfig};
use flywheel_timing::{ClockPlan, TechNode};
use flywheel_uarch::{BaselineConfig, BaselineSim, MultiDomainConfig, SimBudget};
use flywheel_workloads::{Benchmark, TraceCursor};

/// The machine-independent coordinates of one scenario grid point: everything
/// a [`MachineFamily`]'s builder needs to resolve its concrete configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellAxes {
    /// Workload.
    pub bench: Benchmark,
    /// Workload seed.
    pub seed: u64,
    /// Technology node.
    pub node: TechNode,
    /// Front-end clock speed-up over the baseline clock, percent.
    pub fe_pct: u32,
    /// Back-end clock speed-up over the baseline clock, percent.
    pub be_pct: u32,
    /// Issue Window entries.
    pub iw_entries: u32,
    /// Reorder-buffer entries.
    pub rob_entries: u32,
    /// Execution Cache capacity in KiB (ignored by families without an EC).
    pub ec_kb: u64,
    /// Main-memory latency in baseline cycles.
    pub mem_cycles: u32,
}

/// Builds an [`Executor`] for one grid point of this machine family.
///
/// Builders are zero-state descriptors referenced by the static
/// [`MachineFamily`] table, so the trait is `Sync` by construction.
pub trait ExecutorBuilder: Sync {
    /// Resolves `axes` into a boxed executor owning the concrete machine
    /// configuration of this family at that grid point.
    fn build(&self, axes: &CellAxes) -> Box<dyn Executor>;
}

/// One grid point of one machine family, with its configuration fully
/// resolved: the single object the scenario engine talks to instead of
/// matching on machine variants.
pub trait Executor {
    /// The registered family name (enters labels and emitters).
    fn family_name(&self) -> &'static str;

    /// The name of the simulator this executor drives, which enters the
    /// store key. Defaults to the family name; the baseline and Flywheel
    /// builders name their kernel instead, so a structural variant keys like
    /// any other configuration of the same simulator.
    fn simulator(&self) -> &'static str {
        self.family_name()
    }

    /// The grid point this executor was built for.
    fn axes(&self) -> &CellAxes;

    /// Validates the resolved machine configuration.
    fn validate(&self) -> Result<(), String>;

    /// The `Debug` rendering of the resolved configuration — exactly the
    /// string that enters this cell's store key (see [`store::family_input`]).
    fn config_debug(&self) -> String;

    /// The power-model geometry and [`MachineKind`] leakage binding of this
    /// machine (what the invariant layer rebuilds to cross-check attributed
    /// leakage).
    fn power_binding(&self) -> (PowerConfig, MachineKind);

    /// The machine's commit width (bounds retirement bandwidth).
    fn commit_width(&self) -> u32;

    /// Runs the simulator directly on an explicit trace cursor, bypassing
    /// every store and cache. The identity tests use this to prove restarted
    /// cursors replay bit-identically.
    fn replay(&self, cursor: TraceCursor<'_>, budget: SimBudget) -> RunStats;

    /// The content address of this cell at `budget`: a hash of the
    /// simulator name, the full machine configuration, workload, seed, budget
    /// and the code-version salt (see [`crate::store`]).
    fn key(&self, budget: SimBudget) -> StoreKey {
        let a = self.axes();
        store::family_key(
            self.simulator(),
            &self.config_debug(),
            a.bench,
            a.seed,
            budget,
        )
    }

    /// Simulates the cell against the shared recorded trace of its
    /// `(benchmark, seed)` pair, bypassing every store: the single choke
    /// point through which every cell simulation runs (and is
    /// telemetry-recorded).
    fn simulate(&self, budget: SimBudget) -> RunStats {
        let a = *self.axes();
        let trace = crate::shared_trace(a.bench, a.seed, budget);
        // When a telemetry sink is installed, the run records into its own
        // buffer, and its events land in the log as one block under the same
        // content address the store files the cell under. Disarmed cost: one
        // atomic load.
        telemetry::record_cell(
            || {
                (
                    self.key(budget),
                    store::cell_label(self.family_name(), a.bench, a.seed),
                )
            },
            || self.replay(trace.cursor(), budget),
        )
    }
}

/// A registered machine family: stable identity, capability flags, power
/// binding, preset placement, and the builder that resolves grid points into
/// executors.
pub struct MachineFamily {
    /// Stable name, as used by the `scenarios` CLI, the store labels and the
    /// emitters. Families whose executor keys by family name (see
    /// [`Executor::simulator`]) orphan their stored results when renamed —
    /// don't.
    pub name: &'static str,
    /// One-line human description (the `list-machines` subcommand prints it).
    pub summary: &'static str,
    /// Which power-model machine kind the family's energy account binds to
    /// (what structures it instantiates and leaks from).
    pub kind: MachineKind,
    /// Whether the family sweeps the scenario's clock axis. Families that
    /// don't run once at the scenario's `baseline_clock` instead, so a clock
    /// sweep does not multiply the reference runs.
    pub uses_clock_axis: bool,
    /// Whether the family's behaviour depends on the Execution Cache axis.
    pub uses_ec_axis: bool,
    /// Scenario preset tags this family participates in (see
    /// [`machines_for_preset`]).
    pub presets: &'static [&'static str],
    /// Resolves grid points into executors for this family.
    pub builder: &'static dyn ExecutorBuilder,
}

const BASELINE: MachineFamily = MachineFamily {
    name: "baseline",
    summary: "the paper's synchronous out-of-order baseline (Table 2)",
    kind: MachineKind::Baseline,
    uses_clock_axis: false,
    uses_ec_axis: false,
    presets: &["default", "fig2", "fig11", "multidomain", "dvfs"],
    builder: &BaselineBuilder {
        name: "baseline",
        variant: BaselineVariant::Plain,
    },
};

const BASELINE_EXTRA_FE: MachineFamily = MachineFamily {
    name: "baseline-extra-fe",
    summary: "baseline with one extra front-end stage (Figure 2, light bars)",
    kind: MachineKind::Baseline,
    uses_clock_axis: false,
    uses_ec_axis: false,
    presets: &["fig2"],
    builder: &BaselineBuilder {
        name: "baseline-extra-fe",
        variant: BaselineVariant::ExtraFe,
    },
};

const BASELINE_PIPED_WAKEUP: MachineFamily = MachineFamily {
    name: "baseline-piped-wakeup",
    summary: "baseline with Wake-up/Select pipelined over two cycles (Figure 2, dark bars)",
    kind: MachineKind::Baseline,
    uses_clock_axis: false,
    uses_ec_axis: false,
    presets: &["fig2"],
    builder: &BaselineBuilder {
        name: "baseline-piped-wakeup",
        variant: BaselineVariant::PipedWakeup,
    },
};

const REGALLOC: MachineFamily = MachineFamily {
    name: "regalloc",
    summary: "Figure 11's Register Allocation machine: dual-clock IW + pool renaming, no EC",
    kind: MachineKind::Flywheel,
    uses_clock_axis: true,
    uses_ec_axis: false,
    presets: &["fig11"],
    builder: &FlywheelBuilder {
        name: "regalloc",
        execution_cache: false,
    },
};

const FLYWHEEL: MachineFamily = MachineFamily {
    name: "flywheel",
    summary: "the full Flywheel machine (dual-clock IW, Execution Cache, pool renaming)",
    kind: MachineKind::Flywheel,
    uses_clock_axis: true,
    uses_ec_axis: true,
    presets: &["default", "fig11", "ec_residency", "dvfs"],
    builder: &FlywheelBuilder {
        name: "flywheel",
        execution_cache: true,
    },
};

const MULTIDOMAIN: MachineFamily = MachineFamily {
    name: "multidomain",
    summary: "baseline with the LSQ/D-cache pipeline in its own, faster clock domain",
    kind: MachineKind::Baseline,
    uses_clock_axis: true,
    uses_ec_axis: false,
    presets: &["multidomain"],
    builder: &MultiDomainBuilder,
};

const DVFS: MachineFamily = MachineFamily {
    name: "dvfs",
    summary: "Flywheel with a governor retuning the back-end clock from observed EC residency",
    kind: MachineKind::Flywheel,
    uses_clock_axis: true,
    uses_ec_axis: true,
    presets: &["dvfs"],
    builder: &DvfsBuilder,
};

/// A machine model a scenario can place in a cell: a thin copyable handle
/// over a registered [`MachineFamily`].
///
/// Equality, hashing and formatting all go through the family's stable name,
/// so handles behave exactly like the enum variants they replaced.
#[derive(Clone, Copy)]
pub struct Machine(&'static MachineFamily);

#[allow(non_upper_case_globals)]
impl Machine {
    /// The paper's synchronous baseline (Table 2).
    pub const Baseline: Machine = Machine(&BASELINE);
    /// Baseline with one extra front-end stage (Figure 2, light bars).
    pub const BaselineExtraFe: Machine = Machine(&BASELINE_EXTRA_FE);
    /// Baseline with Wake-up/Select pipelined over two cycles (Figure 2, dark
    /// bars).
    pub const BaselinePipedWakeup: Machine = Machine(&BASELINE_PIPED_WAKEUP);
    /// The "Register Allocation" machine of Figure 11: Dual-Clock Issue Window
    /// and pool renaming without the Execution Cache.
    pub const RegAlloc: Machine = Machine(&REGALLOC);
    /// The full Flywheel machine.
    pub const Flywheel: Machine = Machine(&FLYWHEEL);
    /// The multi-domain baseline: LSQ/D-cache access in its own clock domain.
    pub const MultiDomain: Machine = Machine(&MULTIDOMAIN);
    /// The DVFS-governed Flywheel: the back-end clock is retuned at fixed
    /// intervals from the observed Execution Cache residency.
    pub const Dvfs: Machine = Machine(&DVFS);

    /// All registered machines, in a stable order.
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

    /// The machine's name as used by the `scenarios` CLI and the emitters.
    pub fn name(&self) -> &'static str {
        self.0.name
    }

    /// Parses a machine from its [`Machine::name`].
    pub fn from_name(name: &str) -> Option<Machine> {
        Machine::all().iter().copied().find(|m| m.name() == name)
    }

    /// Whether this is a baseline-kind machine: it carries no Flywheel
    /// statistics and its energy account binds to [`MachineKind::Baseline`].
    pub fn is_baseline(&self) -> bool {
        self.0.kind == MachineKind::Baseline
    }

    /// Whether the machine sweeps the scenario's clock axis (see
    /// [`MachineFamily::uses_clock_axis`]).
    pub fn uses_clock_axis(&self) -> bool {
        self.0.uses_clock_axis
    }

    /// Whether the machine's behaviour depends on the Execution Cache axis.
    pub fn uses_ec_axis(&self) -> bool {
        self.0.uses_ec_axis
    }

    /// The family's power-model machine kind.
    pub fn kind(&self) -> MachineKind {
        self.0.kind
    }

    /// The full family descriptor.
    pub fn family(&self) -> &'static MachineFamily {
        self.0
    }
}

impl PartialEq for Machine {
    fn eq(&self, other: &Self) -> bool {
        // By name, not by pointer: const promotion may duplicate descriptor
        // allocations across codegen units.
        self.0.name == other.0.name
    }
}

impl Eq for Machine {}

impl std::hash::Hash for Machine {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.name.hash(state);
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0.name)
    }
}

impl std::fmt::Display for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0.name)
    }
}

/// The machines tagged with scenario preset `tag`, in registry order (this is
/// the single source the presets draw their machine lists from — there is no
/// second hand-maintained list to drift).
pub fn machines_for_preset(tag: &str) -> Vec<Machine> {
    Machine::all()
        .iter()
        .copied()
        .filter(|m| m.family().presets.contains(&tag))
        .collect()
}

/// Which structural variant a [`BaselineBuilder`] applies on top of the paper
/// baseline (the Figure 2 pipeline-loop study knobs).
#[derive(Clone, Copy)]
enum BaselineVariant {
    Plain,
    ExtraFe,
    PipedWakeup,
}

struct BaselineBuilder {
    name: &'static str,
    variant: BaselineVariant,
}

/// Applies the clock axes to a baseline-core config. A clocked-up baseline
/// core needs the Dual-Clock Issue Window's synchronization latencies, as in
/// `BaselineConfig::with_dual_clock_frontend`.
fn apply_clock_axes(cfg: &mut BaselineConfig, axes: &CellAxes) {
    if axes.fe_pct > 0 || axes.be_pct > 0 {
        cfg.clocks = ClockPlan::with_speedups(axes.node, axes.fe_pct, axes.be_pct);
        cfg.sync_latency_be_cycles = 1;
        cfg.redirect_sync_fe_cycles = 1;
    }
}

fn apply_window_axes(cfg: &mut BaselineConfig, axes: &CellAxes) {
    cfg.iw_entries = axes.iw_entries;
    cfg.rob_entries = axes.rob_entries;
    cfg.mem_cycles = axes.mem_cycles;
}

impl ExecutorBuilder for BaselineBuilder {
    fn build(&self, axes: &CellAxes) -> Box<dyn Executor> {
        let mut cfg = BaselineConfig::paper(axes.node);
        match self.variant {
            BaselineVariant::Plain => {}
            BaselineVariant::ExtraFe => cfg = cfg.with_extra_frontend_stage(),
            BaselineVariant::PipedWakeup => cfg = cfg.with_pipelined_wakeup(),
        }
        apply_clock_axes(&mut cfg, axes);
        apply_window_axes(&mut cfg, axes);
        Box::new(BaselineExec {
            name: self.name,
            axes: *axes,
            cfg,
        })
    }
}

struct BaselineExec {
    name: &'static str,
    axes: CellAxes,
    cfg: BaselineConfig,
}

impl Executor for BaselineExec {
    fn family_name(&self) -> &'static str {
        self.name
    }
    fn simulator(&self) -> &'static str {
        "baseline"
    }
    fn axes(&self) -> &CellAxes {
        &self.axes
    }
    fn validate(&self) -> Result<(), String> {
        self.cfg.validate()
    }
    fn config_debug(&self) -> String {
        format!("{:?}", self.cfg)
    }
    fn power_binding(&self) -> (PowerConfig, MachineKind) {
        (self.cfg.power_config(), MachineKind::Baseline)
    }
    fn commit_width(&self) -> u32 {
        self.cfg.commit_width
    }
    fn replay(&self, cursor: TraceCursor<'_>, budget: SimBudget) -> RunStats {
        RunStats::from_baseline(BaselineSim::new(self.cfg.clone(), cursor).run(budget))
    }
}

struct FlywheelBuilder {
    name: &'static str,
    execution_cache: bool,
}

impl ExecutorBuilder for FlywheelBuilder {
    fn build(&self, axes: &CellAxes) -> Box<dyn Executor> {
        let mut cfg = FlywheelConfig::paper(axes.node, axes.fe_pct, axes.be_pct);
        cfg.execution_cache = self.execution_cache;
        cfg.base.iw_entries = axes.iw_entries;
        cfg.base.rob_entries = axes.rob_entries;
        cfg.base.mem_cycles = axes.mem_cycles;
        cfg.ec.size_bytes = axes.ec_kb * 1024;
        Box::new(FlywheelExec {
            name: self.name,
            axes: *axes,
            cfg,
        })
    }
}

struct FlywheelExec {
    name: &'static str,
    axes: CellAxes,
    cfg: FlywheelConfig,
}

impl Executor for FlywheelExec {
    fn family_name(&self) -> &'static str {
        self.name
    }
    fn simulator(&self) -> &'static str {
        "flywheel"
    }
    fn axes(&self) -> &CellAxes {
        &self.axes
    }
    fn validate(&self) -> Result<(), String> {
        self.cfg.validate()
    }
    fn config_debug(&self) -> String {
        format!("{:?}", self.cfg)
    }
    fn power_binding(&self) -> (PowerConfig, MachineKind) {
        (self.cfg.power_config(), MachineKind::Flywheel)
    }
    fn commit_width(&self) -> u32 {
        self.cfg.base.commit_width
    }
    fn replay(&self, cursor: TraceCursor<'_>, budget: SimBudget) -> RunStats {
        RunStats::from_flywheel(&FlywheelSim::new(self.cfg.clone(), cursor).run(budget))
    }
}

struct MultiDomainBuilder;

impl ExecutorBuilder for MultiDomainBuilder {
    fn build(&self, axes: &CellAxes) -> Box<dyn Executor> {
        let mut cfg = MultiDomainConfig::paper(axes.node);
        apply_clock_axes(&mut cfg.base, axes);
        apply_window_axes(&mut cfg.base, axes);
        Box::new(MultiDomainExec { axes: *axes, cfg })
    }
}

struct MultiDomainExec {
    axes: CellAxes,
    cfg: MultiDomainConfig,
}

impl Executor for MultiDomainExec {
    fn family_name(&self) -> &'static str {
        "multidomain"
    }
    fn axes(&self) -> &CellAxes {
        &self.axes
    }
    fn validate(&self) -> Result<(), String> {
        self.cfg.validate()
    }
    fn config_debug(&self) -> String {
        format!("{:?}", self.cfg)
    }
    fn power_binding(&self) -> (PowerConfig, MachineKind) {
        (self.cfg.power_config(), MachineKind::Baseline)
    }
    fn commit_width(&self) -> u32 {
        self.cfg.base.commit_width
    }
    fn replay(&self, cursor: TraceCursor<'_>, budget: SimBudget) -> RunStats {
        RunStats::from_baseline(BaselineSim::new_multi_domain(self.cfg.clone(), cursor).run(budget))
    }
}

struct DvfsBuilder;

impl ExecutorBuilder for DvfsBuilder {
    fn build(&self, axes: &CellAxes) -> Box<dyn Executor> {
        let mut cfg = DvfsConfig::paper(axes.node, axes.fe_pct, axes.be_pct);
        cfg.fly.base.iw_entries = axes.iw_entries;
        cfg.fly.base.rob_entries = axes.rob_entries;
        cfg.fly.base.mem_cycles = axes.mem_cycles;
        cfg.fly.ec.size_bytes = axes.ec_kb * 1024;
        Box::new(DvfsExec { axes: *axes, cfg })
    }
}

struct DvfsExec {
    axes: CellAxes,
    cfg: DvfsConfig,
}

impl Executor for DvfsExec {
    fn family_name(&self) -> &'static str {
        "dvfs"
    }
    fn axes(&self) -> &CellAxes {
        &self.axes
    }
    fn validate(&self) -> Result<(), String> {
        self.cfg.validate()
    }
    fn config_debug(&self) -> String {
        format!("{:?}", self.cfg)
    }
    fn power_binding(&self) -> (PowerConfig, MachineKind) {
        (self.cfg.power_config(), MachineKind::Flywheel)
    }
    fn commit_width(&self) -> u32 {
        self.cfg.fly.base.commit_width
    }
    fn replay(&self, cursor: TraceCursor<'_>, budget: SimBudget) -> RunStats {
        RunStats::from_flywheel(&FlywheelSim::new_dvfs(self.cfg.clone(), cursor).run(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_axes() -> CellAxes {
        CellAxes {
            bench: Benchmark::Micro,
            seed: 42,
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
            assert!(seen.insert(m.name()), "duplicate family '{}'", m.name());
            assert_eq!(Machine::from_name(m.name()), Some(m));
            assert_eq!(format!("{m}"), m.name());
            assert_eq!(format!("{m:?}"), m.name());
        }
        assert_eq!(Machine::from_name("nope"), None);
        assert_eq!(Machine::all().len(), 7);
    }

    #[test]
    fn preset_tags_resolve_in_registry_order() {
        let names = |tag: &str| -> Vec<&'static str> {
            machines_for_preset(tag).iter().map(|m| m.name()).collect()
        };
        assert_eq!(names("default"), ["baseline", "flywheel"]);
        assert_eq!(
            names("fig2"),
            ["baseline", "baseline-extra-fe", "baseline-piped-wakeup"]
        );
        assert_eq!(names("fig11"), ["baseline", "regalloc", "flywheel"]);
        assert_eq!(names("ec_residency"), ["flywheel"]);
        assert_eq!(names("multidomain"), ["baseline", "multidomain"]);
        assert_eq!(names("dvfs"), ["baseline", "flywheel", "dvfs"]);
        assert!(names("no-such-tag").is_empty());
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
        // The enum-era invariant — baseline-kind machines don't sweep the EC
        // axis — must hold for every registered family.
        for &m in Machine::all() {
            if m.is_baseline() {
                assert!(!m.uses_ec_axis(), "{m}: a baseline-kind family has no EC");
            }
        }
    }

    #[test]
    fn every_family_builds_a_valid_paper_point_executor() {
        let axes = paper_axes();
        for &m in Machine::all() {
            let exec = m.family().builder.build(&axes);
            assert_eq!(exec.family_name(), m.name());
            assert_eq!(exec.axes(), &axes);
            exec.validate()
                .unwrap_or_else(|e| panic!("{}: invalid paper point: {e}", m.name()));
            assert!(exec.commit_width() > 0);
            let (_, kind) = exec.power_binding();
            assert_eq!(kind, m.kind());
        }
    }

    #[test]
    fn executor_keys_pin_the_legacy_derivation() {
        // Keys name the simulator, not the family: every baseline variant
        // keys as `baseline` and every Flywheel variant as `flywheel`, with
        // the full configuration telling them apart.
        let axes = paper_axes();
        let budget = SimBudget::new(500, 2_000);
        let key = |sim: &str, cfg: &dyn std::fmt::Debug| {
            store::family_key(sim, &format!("{cfg:?}"), axes.bench, 42, budget)
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
            assert_eq!(m.family().builder.build(&axes).key(budget), want, "{m}");
        }
        // Every family derives a distinct key at the same grid point.
        let keys: std::collections::HashSet<StoreKey> = Machine::all()
            .iter()
            .map(|m| m.family().builder.build(&axes).key(budget))
            .collect();
        assert_eq!(keys.len(), Machine::all().len());
    }

    #[test]
    fn new_families_run_and_differ_from_their_parents() {
        let mut axes = paper_axes();
        axes.bench = Benchmark::PtrChase; // load-latency sensitive
        let budget = SimBudget::new(500, 2_000);
        let base = Machine::Baseline
            .family()
            .builder
            .build(&axes)
            .simulate(budget);
        let multi = Machine::MultiDomain
            .family()
            .builder
            .build(&axes)
            .simulate(budget);
        assert!(base.flywheel.is_none() && multi.flywheel.is_none());
        assert_ne!(
            base.sim, multi.sim,
            "the LSQ domain must change load timing on a pointer chase"
        );
        let dvfs = Machine::Dvfs.family().builder.build(&axes).simulate(budget);
        assert!(dvfs.flywheel.is_some(), "DVFS is a Flywheel-kind machine");
    }
}
