//! Declarative scenario engine: describe a sweep as axes, run it as a grid.
//!
//! A [`Scenario`] *describes* a sweep — which machines, which workloads,
//! which machine-configuration axes (technology node, clock-domain ratios,
//! issue-window/ROB sizes, Execution Cache geometry, memory latency), which
//! seeds and instruction budget — and the engine expands the description into a
//! grid of [`ScenarioCell`]s, runs every cell on the shared
//! [`parallel_map`](crate::parallel_map) driver against the process-wide
//! recorded-trace cache, and returns a [`ScenarioRun`] that can be checked
//! against machine invariants and emitted as JSON or CSV.
//!
//! Every figure of the paper's evaluation is a preset ([`Scenario::fig2`],
//! [`Scenario::fig11`], [`Scenario::fig12`], [`Scenario::fig15`],
//! [`Scenario::ec_residency`]) plus one renderer on [`ScenarioRun`]
//! ([`ScenarioRun::figure_tables`]). [`Scenario::preset`] is the one table of
//! preset names, shared by the spec grammar, the `scenarios` and
//! `experiments` binaries and `flywheel-report`, so each figure is defined
//! exactly once. The [`Scenario::leakage`] preset sweeps technology node x
//! machine x Execution Cache capacity, exercising the attributed leakage
//! model on every cell ([`check_cell_invariants`] recomputes each cell's
//! per-category leakage from the machine-aware power model and rejects any
//! disagreement).
//!
//! Every cell is a deterministic, independent simulation through
//! [`Executor::simulate`]: the same scenario always produces the same results
//! regardless of worker count ([`Scenario::run_with_jobs`] with 1 vs N
//! workers is byte-identical; enforced by the `parallel_identity` integration
//! test).
//!
//! Execution is fault-tolerant: every cell runs under `catch_unwind` with an
//! armed watchdog budget (cycle cap plus optional wall-clock deadline), so a
//! panicking or runaway cell becomes a typed [`FailCause`] instead of
//! tearing down the whole sweep. Failed cells get a bounded number of retries
//! with deterministic backoff (recovering transient failures), and whatever
//! still fails lands in the run's failed-cell manifest
//! ([`ScenarioRun::failed`]), which flows into the CSV/JSON emission and the
//! report's "Degraded cells" section — a degraded sweep completes and says so,
//! rather than aborting. The `crate::fault` harness can inject all of these
//! failures deterministically to prove the recovery paths fire.

use crate::executor::Executor;
use crate::fault;
use crate::stats::Aggregate;
use crate::store::{ResultStore, RunStats, StoreKey, StoreSummary};
use crate::{format_table, parallel_map_jobs, worker_count, Row, CLOCK_SWEEP, EXPERIMENT_SEED};
use flywheel_power::{PowerModel, UnitCategory};
use flywheel_timing::TechNode;
use flywheel_uarch::watchdog::{self, WatchdogConfig, WatchdogTimeout};
use flywheel_uarch::{SimBudget, SimResult};
use flywheel_workloads::Benchmark;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

pub use crate::executor::Machine;

/// A declarative sweep description: the cartesian product of its axes is the
/// grid the engine runs.
///
/// Axes that a machine does not consume are not multiplied into its cells: a
/// baseline machine is not re-run per Execution Cache size or per point of the
/// clock sweep (it runs once per remaining axes at [`Scenario::baseline_clock`]).
///
/// # Example
///
/// ```
/// use flywheel_bench::scenario::Scenario;
/// use flywheel_uarch::SimBudget;
/// use flywheel_workloads::Benchmark;
///
/// let mut s = Scenario::new("doc", SimBudget::new(200, 1_000));
/// s.benchmarks = vec![Benchmark::Micro];
/// assert_eq!(s.cell_count(), 2); // one baseline cell, one Flywheel cell
/// let run = s.run();
/// run.check_invariants().unwrap();
/// assert_eq!(run.results[0].sim.instructions, 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (used in emitted files and reports).
    pub name: String,
    /// Workload axis.
    pub benchmarks: Vec<Benchmark>,
    /// Machine axis.
    pub machines: Vec<Machine>,
    /// Technology-node axis.
    pub nodes: Vec<TechNode>,
    /// Clock-domain axis as (front-end %, back-end %) speed-ups over the
    /// baseline clock — applies to machines with [`Machine::uses_clock_axis`].
    pub clocks: Vec<(u32, u32)>,
    /// The single clock point baseline-family machines run at (default: the
    /// synchronous paper clock, `(0, 0)`).
    pub baseline_clock: (u32, u32),
    /// Issue-window / ROB size axis as (iw_entries, rob_entries).
    pub windows: Vec<(u32, u32)>,
    /// Execution Cache capacity axis, in KiB (Flywheel machines only).
    pub ec_kb: Vec<u64>,
    /// Main-memory latency axis, in baseline cycles.
    pub mem_cycles: Vec<u32>,
    /// Workload seed axis (each seed is an independent program + trace).
    pub seeds: Vec<u64>,
    /// Instruction budget of every cell.
    pub budget: SimBudget,
}

impl Scenario {
    /// A scenario with the paper's default single-point axes: both machines,
    /// the paper suite, 0.13 µm, synchronous clocks, Table 2 window/EC/memory
    /// parameters and the experiment seed.
    pub fn new(name: &str, budget: SimBudget) -> Self {
        Scenario {
            name: name.to_owned(),
            benchmarks: Benchmark::paper_suite().to_vec(),
            machines: vec![Machine::Baseline, Machine::Flywheel],
            nodes: vec![TechNode::N130],
            clocks: vec![(0, 0)],
            baseline_clock: (0, 0),
            windows: vec![(128, 128)],
            ec_kb: vec![128],
            mem_cycles: vec![100],
            seeds: vec![EXPERIMENT_SEED],
            budget,
        }
    }

    /// The Figure 2 preset: pipeline-loop stretching on the baseline machine.
    pub fn fig2(budget: SimBudget) -> Self {
        let mut s = Scenario::new("fig2", budget);
        s.machines = vec![
            Machine::Baseline,
            Machine::BaselineExtraFe,
            Machine::BaselinePipedWakeup,
        ];
        s
    }

    /// The Figure 11 preset: register-allocation machine and Flywheel at the
    /// baseline clock.
    pub fn fig11(budget: SimBudget) -> Self {
        let mut s = Scenario::new("fig11", budget);
        s.machines = vec![Machine::Baseline, Machine::RegAlloc, Machine::Flywheel];
        s
    }

    /// The Figure 12 preset: the front-end clock sweep with the back-end at
    /// +50%, normalized to the synchronous baseline. Figures 13 and 14 are
    /// the energy and power views of the same run.
    pub fn fig12(budget: SimBudget) -> Self {
        let mut s = Scenario::new("fig12", budget);
        s.clocks = CLOCK_SWEEP.to_vec();
        s
    }

    /// The Figure 15 preset: the baseline and Flywheel at the paper's
    /// FE +100 %, BE +50 % point on every power-study technology node. The
    /// per-node leakage-attribution tables are views of the same run.
    pub fn fig15(budget: SimBudget) -> Self {
        let mut s = Scenario::new("fig15", budget);
        s.nodes = TechNode::power_study_nodes().to_vec();
        s.clocks = vec![FIG15_CLOCK];
        s
    }

    /// The Execution-Cache residency preset: the Flywheel machine alone at
    /// the baseline clock.
    pub fn ec_residency(budget: SimBudget) -> Self {
        let mut s = Scenario::new("ec_residency", budget);
        s.machines = vec![Machine::Flywheel];
        s
    }

    /// The named preset at `budget` — the one table of preset names (see
    /// [`Scenario::preset_names`]); `None` for an unknown name.
    pub fn preset(name: &str, budget: SimBudget) -> Option<Scenario> {
        PRESETS
            .iter()
            .find(|p| p.name == name)
            .map(|p| (p.build)(budget))
    }

    /// Every preset name, in table order.
    pub fn preset_names() -> impl Iterator<Item = &'static str> {
        PRESETS.iter().map(|p| p.name)
    }

    /// The paper-figure presets — those whose runs render figure tables
    /// ([`ScenarioRun::figure_tables`]) — in the paper's order.
    pub fn figure_names() -> impl Iterator<Item = &'static str> {
        PRESETS
            .iter()
            .filter(|p| p.tables.is_some())
            .map(|p| p.name)
    }

    /// A small grid over the stress workloads used by CI as a smoke test: three
    /// config axes on both machines at a tiny budget.
    pub fn smoke() -> Self {
        let mut s = Scenario::new("smoke", SimBudget::new(2_000, 8_000));
        s.benchmarks = vec![Benchmark::Gzip, Benchmark::PtrChase, Benchmark::StoreStorm];
        s.clocks = vec![(0, 50), (50, 50)];
        s.windows = vec![(64, 64), (128, 128)];
        s.ec_kb = vec![64, 128];
        s
    }

    /// The stress preset: the full stress family plus the promoted
    /// adversarial extremes (`ecworst`, `flybest`) across clocks, window
    /// sizes and memory latencies on both machines.
    pub fn stress(budget: SimBudget) -> Self {
        let mut s = Scenario::new("stress", budget);
        s.benchmarks = Benchmark::stress_suite().to_vec();
        s.benchmarks
            .extend_from_slice(Benchmark::adversarial_suite());
        s.clocks = vec![(0, 0), (50, 50), (100, 50)];
        s.windows = vec![(64, 64), (128, 128)];
        s.mem_cycles = vec![100, 300];
        s
    }

    /// The leakage-attribution preset: technology node x machine x Execution
    /// Cache capacity, at the paper's Figure 15 clock point (FE +100 %,
    /// BE +50 %). Every cell's attributed leakage components are pinned by
    /// [`check_cell_invariants`] against the machine-aware power model, so this
    /// grid is the sweep that demonstrates (and guards) the widened
    /// baseline-vs-Flywheel leakage gap across nodes and EC geometries.
    pub fn leakage(budget: SimBudget) -> Self {
        let mut s = Scenario::fig15(budget);
        s.name = "leakage".to_owned();
        s.ec_kb = vec![64, 128, 256];
        s
    }

    /// The multi-domain preset: the baseline against the machine whose
    /// LSQ/D-cache pipeline runs in its own, faster clock domain (Table 1
    /// gives the D-cache headroom over the Issue Window at every node), at
    /// the synchronous point and the paper's FE+50/BE+50 point.
    pub fn multidomain(budget: SimBudget) -> Self {
        let mut s = Scenario::new("multidomain", budget);
        s.machines = vec![Machine::Baseline, Machine::MultiDomain];
        s.clocks = vec![(0, 0), (50, 50)];
        s
    }

    /// The DVFS preset: baseline, fixed-clock Flywheel, and the governed
    /// Flywheel whose back-end clock is retuned at fixed intervals from the
    /// observed Execution Cache residency — from the synchronous starting
    /// point and from the paper's FE+50/BE+50 point.
    pub fn dvfs(budget: SimBudget) -> Self {
        let mut s = Scenario::new("dvfs", budget);
        s.machines = vec![Machine::Baseline, Machine::Flywheel, Machine::Dvfs];
        s.clocks = vec![(0, 0), (50, 50)];
        s
    }

    /// Validates the scenario: every axis non-empty and free of repeats, the
    /// seed axis sorted, and every expanded cell's machine configuration
    /// internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        fn render<T: std::fmt::Display>(axis: &[T]) -> Vec<String> {
            axis.iter().map(T::to_string).collect()
        }
        fn pairs(axis: &[(u32, u32)]) -> Vec<String> {
            axis.iter().map(|(a, b)| format!("{a}:{b}")).collect()
        }
        // A repeated entry would simulate the same cells twice (and, on the
        // seed axis, double-weight one program in every aggregate).
        for (axis, entry, values) in [
            ("benchmarks", "benchmark", render(&self.benchmarks)),
            ("machines", "machine", render(&self.machines)),
            ("nodes", "node", render(&self.nodes)),
            ("clocks", "clock", pairs(&self.clocks)),
            ("windows", "window", pairs(&self.windows)),
            ("ec_kb", "ec_kb", render(&self.ec_kb)),
            ("mem_cycles", "mem_cycles", render(&self.mem_cycles)),
            ("seeds", "seed", render(&self.seeds)),
        ] {
            if values.is_empty() {
                return Err(format!("scenario '{}': axis '{axis}' is empty", self.name));
            }
            if let Some(dup) = (1..values.len()).find(|&i| values[..i].contains(&values[i])) {
                return Err(format!(
                    "scenario '{}': duplicate {entry} {} in the {entry} axis",
                    self.name, values[dup]
                ));
            }
        }
        // An unsorted seed axis would make the emitted aggregates depend on
        // axis spelling rather than content.
        if let Some(pair) = self.seeds.windows(2).find(|pair| pair[1] < pair[0]) {
            return Err(format!(
                "scenario '{}': seed axis is not sorted ({} before {})",
                self.name, pair[0], pair[1]
            ));
        }
        for cell in self.expand() {
            cell.validate()
                .map_err(|e| format!("scenario '{}', cell {}: {e}", self.name, cell.label()))?;
        }
        Ok(())
    }

    /// Expands the axes into the grid of cells, in a deterministic order.
    pub fn expand(&self) -> Vec<ScenarioCell> {
        let mut cells = Vec::new();
        for &bench in &self.benchmarks {
            for &seed in &self.seeds {
                for &machine in &self.machines {
                    let clocks: &[(u32, u32)] = if machine.uses_clock_axis() {
                        &self.clocks
                    } else {
                        std::slice::from_ref(&self.baseline_clock)
                    };
                    // Machines that ignore the EC axis take only its first
                    // point, so a capacity sweep does not duplicate them. An
                    // empty axis expands to an empty grid (validate() reports
                    // it as an error) instead of panicking here.
                    let ecs: &[u64] = if machine.uses_ec_axis() {
                        &self.ec_kb
                    } else {
                        self.ec_kb.get(..1).unwrap_or(&[])
                    };
                    for &node in &self.nodes {
                        for &(fe_pct, be_pct) in clocks {
                            for &(iw_entries, rob_entries) in &self.windows {
                                for &ec_kb in ecs {
                                    for &mem_cycles in &self.mem_cycles {
                                        cells.push(ScenarioCell {
                                            bench,
                                            seed,
                                            machine,
                                            node,
                                            fe_pct,
                                            be_pct,
                                            iw_entries,
                                            rob_entries,
                                            ec_kb,
                                            mem_cycles,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// Number of cells the scenario expands to.
    pub fn cell_count(&self) -> usize {
        self.expand().len()
    }

    /// Runs the grid across all available cores (`FLYWHEEL_JOBS` caps the
    /// worker count, exactly like the `experiments` sweeps).
    pub fn run(&self) -> ScenarioRun {
        self.run_with_jobs(worker_count())
    }

    /// Runs the grid on exactly `jobs` workers. Results are byte-identical for
    /// any worker count. Cells that fail (panic or watchdog timeout) after the
    /// bounded retries are reported in the run's failed-cell manifest; the
    /// sweep itself always completes.
    pub fn run_with_jobs(&self, jobs: usize) -> ScenarioRun {
        self.run_with_store_jobs(&mut ResultStore::in_memory(), jobs)
            .0
    }

    /// Runs the grid incrementally against a result store: cells whose content
    /// address is already present are recalled without simulating (records
    /// round-trip bit-identically, so the returned run is byte-equal to a cold
    /// [`Scenario::run`]); only the missing cells are simulated — in parallel
    /// — and appended to the store.
    ///
    /// Returns the run plus a [`StoreSummary`] of how many cells were recalled
    /// versus simulated. A second run of an unchanged scenario against the
    /// same store therefore reports `simulated == 0`.
    pub fn run_with_store(&self, store: &mut ResultStore) -> (ScenarioRun, StoreSummary) {
        self.run_with_store_jobs(store, worker_count())
    }

    /// [`Scenario::run_with_store`] with an explicit worker count.
    pub fn run_with_store_jobs(
        &self,
        store: &mut ResultStore,
        jobs: usize,
    ) -> (ScenarioRun, StoreSummary) {
        fault::maybe_install_from_env();
        let grid = self.expand();
        let budget = self.budget;
        let keys: Vec<StoreKey> = grid.iter().map(|c| c.key(budget)).collect();
        // Keep each miss's already-computed key: deriving one renders the full
        // machine config, which is not worth doing twice per cell.
        let misses: Vec<(ScenarioCell, StoreKey)> = grid
            .iter()
            .zip(&keys)
            .filter(|(_, k)| !store.contains(k))
            .map(|(c, k)| (*c, *k))
            .collect();
        let miss_cells: Vec<ScenarioCell> = misses.iter().map(|(c, _)| *c).collect();
        let outcomes = execute_cells(&miss_cells, budget, jobs);
        // Keep each computed miss result keyed: a failed disk append (bad
        // disk, dead appender) degrades to serving the in-memory result for
        // this run instead of panicking the worker.
        let mut computed: std::collections::HashMap<StoreKey, CellResult> =
            std::collections::HashMap::new();
        let mut failed = Vec::new();
        for ((cell, key), outcome) in misses.iter().zip(outcomes) {
            match outcome {
                Ok(result) => {
                    if let Err(e) = store.insert(*key, &cell.label(), result.clone()) {
                        eprintln!("warning: could not append to the result store: {e}");
                    }
                    computed.insert(*key, result);
                }
                // Failed cells are never inserted into the store.
                Err(f) => failed.push(f),
            }
        }
        let mut cells = Vec::with_capacity(grid.len());
        let mut results = Vec::with_capacity(grid.len());
        for (cell, k) in grid.iter().zip(&keys) {
            // A miss whose store insert failed still has the result computed
            // above; a failed cell has neither.
            let Some(r) = store.get(k).or_else(|| computed.get(k)) else {
                continue;
            };
            cells.push(*cell);
            results.push(r.clone());
        }
        let summary = StoreSummary {
            hits: grid.len() - misses.len(),
            simulated: misses.len() - failed.len(),
        };
        (
            ScenarioRun {
                scenario: self.clone(),
                cells,
                results,
                failed,
            },
            summary,
        )
    }
}

/// The clock point of Figure 15 and its leakage views: FE +100 %, BE +50 %.
const FIG15_CLOCK: (u32, u32) = (100, 50);

/// Renders the tables of one figure preset's run.
type FigureRenderer = fn(&ScenarioRun) -> Result<String, String>;

/// One named preset: how it builds its grid at a budget and, for the paper's
/// figures, how its run renders the figure tables.
struct Preset {
    name: &'static str,
    build: fn(SimBudget) -> Scenario,
    tables: Option<FigureRenderer>,
}

/// Every preset name, spelled once: [`Scenario::preset`] and
/// [`ScenarioRun::figure_tables`] resolve through this table.
const PRESETS: &[Preset] = &[
    Preset {
        name: "fig2",
        build: Scenario::fig2,
        tables: Some(ScenarioRun::fig2_table),
    },
    Preset {
        name: "fig11",
        build: Scenario::fig11,
        tables: Some(ScenarioRun::fig11_table),
    },
    Preset {
        name: "fig12",
        build: Scenario::fig12,
        tables: Some(ScenarioRun::clock_sweep_tables),
    },
    Preset {
        name: "fig15",
        build: Scenario::fig15,
        tables: Some(ScenarioRun::fig15_tables),
    },
    Preset {
        name: "ec_residency",
        build: Scenario::ec_residency,
        tables: Some(ScenarioRun::ec_residency_table),
    },
    Preset {
        name: "smoke",
        build: |budget| Scenario {
            budget,
            ..Scenario::smoke()
        },
        tables: None,
    },
    Preset {
        name: "stress",
        build: Scenario::stress,
        tables: None,
    },
    Preset {
        name: "leakage",
        build: Scenario::leakage,
        tables: None,
    },
    Preset {
        name: "multidomain",
        build: Scenario::multidomain,
        tables: None,
    },
    Preset {
        name: "dvfs",
        build: Scenario::dvfs,
        tables: None,
    },
];

/// How often a failing cell is attempted in total (one initial run plus
/// bounded retries — enough to recover any single-shot transient failure
/// without letting a persistent bug multiply the sweep's cost unboundedly).
pub const MAX_CELL_ATTEMPTS: u32 = 3;

/// Base backoff between retry rounds; round `n` waits `BACKOFF_MS << (n-1)`.
/// Deterministic (a fixed schedule, no jitter) so fault-injection runs are
/// exactly reproducible.
const RETRY_BACKOFF_MS: u64 = 25;

/// The watchdog budget a cell is armed with: a cycle cap orders of magnitude
/// above any reachable cycles-per-instruction (the worst memory-bound
/// configuration in the repo sustains a few hundred cycles per instruction;
/// the cap allows ten thousand), plus whatever wall-clock deadline or cap
/// override the installed fault plan requests. A healthy cell can never trip
/// it, so arming changes no simulated result — it only converts runaways into
/// typed failures.
fn cell_watchdog_config(budget: SimBudget) -> WatchdogConfig {
    let mut cfg = WatchdogConfig::cycles(
        budget
            .total()
            .saturating_mul(10_000)
            .saturating_add(10_000_000),
    );
    if fault::active() {
        if let Some(plan) = fault::plan() {
            if let Some(cap) = plan.max_cycles {
                cfg.max_be_cycles = cap;
            }
            if let Some(ms) = plan.timeout_ms {
                cfg = cfg.with_wall_timeout(Duration::from_millis(ms));
            }
        }
    }
    cfg
}

/// Runs one cell attempt in isolation: watchdog armed, panics caught.
fn run_cell_guarded(
    cell: &ScenarioCell,
    budget: SimBudget,
    attempt: u32,
) -> Result<CellResult, FailCause> {
    catch_unwind(AssertUnwindSafe(|| {
        let _watchdog = watchdog::arm(cell_watchdog_config(budget));
        if fault::active() {
            inject_cell_fault(&cell.label(), attempt);
        }
        cell.run(budget)
    }))
    .map_err(FailCause::from_panic_payload)
}

/// Applies the installed fault plan to a cell attempt (no-op without a plan).
fn inject_cell_fault(label: &str, attempt: u32) {
    match fault::cell_fault(label) {
        Some(fault::CellFault::Panic) => {
            panic!("fault injection: forced panic in cell {label} (attempt {attempt})")
        }
        Some(fault::CellFault::Transient) if attempt == 0 => {
            panic!("fault injection: transient panic in cell {label} (attempt {attempt})")
        }
        Some(fault::CellFault::Stall) => watchdog::stall_until_deadline(),
        _ => {}
    }
}

/// Runs one cell to completion with the executor's full panic isolation and
/// bounded-retry policy, *without* re-running the fault-plan cell assignment
/// (callers assign once over their whole label set, then run cells one at a
/// time: [`execute_cells`] across its workers, the shard worker between
/// heartbeats).
pub(crate) fn run_cell_with_retries(
    cell: &ScenarioCell,
    budget: SimBudget,
) -> Result<CellResult, FailedCell> {
    let mut last_cause = None;
    for attempt in 0..MAX_CELL_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(RETRY_BACKOFF_MS << (attempt - 1)));
        }
        match run_cell_guarded(cell, budget, attempt) {
            Ok(r) => return Ok(r),
            Err(cause) => last_cause = Some(cause),
        }
    }
    Err(FailedCell {
        cell: *cell,
        cause: last_cause
            .unwrap_or_else(|| FailCause::Panic("cell failed without a recorded cause".to_owned())),
        attempts: MAX_CELL_ATTEMPTS,
    })
}

/// Runs `cells` on `jobs` workers, each cell with panic isolation and bounded
/// retries: one outcome per cell, in grid order.
fn execute_cells(
    cells: &[ScenarioCell],
    budget: SimBudget,
    jobs: usize,
) -> Vec<Result<CellResult, FailedCell>> {
    if fault::active() {
        let labels: Vec<String> = cells.iter().map(|c| c.label()).collect();
        fault::assign_cells(&labels);
    }
    parallel_map_jobs(cells, jobs, |cell| run_cell_with_retries(cell, budget))
}

/// One point of an expanded scenario grid: a (benchmark, seed, machine,
/// configuration) simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioCell {
    /// Workload.
    pub bench: Benchmark,
    /// Workload seed.
    pub seed: u64,
    /// Machine model.
    pub machine: Machine,
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
    /// Execution Cache capacity in KiB (unused by baseline-family machines).
    pub ec_kb: u64,
    /// Main-memory latency in baseline cycles.
    pub mem_cycles: u32,
}

impl ScenarioCell {
    /// A short human-readable cell label.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/s{}/{}nm/FE{}+BE{}/iw{}rob{}/ec{}K/mem{}",
            self.machine,
            self.bench,
            self.seed,
            self.node.feature_nm(),
            self.fe_pct,
            self.be_pct,
            self.iw_entries,
            self.rob_entries,
            self.ec_kb,
            self.mem_cycles
        )
    }

    /// The executor for this cell: the cell's machine resolved at the cell's
    /// axes, owning the full machine configuration. With every axis at its
    /// paper default the resolved configuration is exactly the paper machine
    /// (plus the machine's structural knob).
    pub fn executor(&self) -> Executor {
        Executor::new(*self)
    }

    /// Validates the cell's machine configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.executor().validate()
    }

    /// The content address of this cell at `budget`: a hash of the
    /// simulator, its full configuration, workload, seed, budget, and the
    /// code-version salt (see [`Executor::key`]).
    pub fn key(&self, budget: SimBudget) -> StoreKey {
        self.executor().key(budget)
    }

    /// Simulates the cell against the shared recorded trace of its
    /// `(benchmark, seed)` pair (see [`Executor::simulate`]).
    pub fn run(&self, budget: SimBudget) -> CellResult {
        self.executor().simulate(budget)
    }
}

/// The result of one cell: the record the store files it under (the
/// machine-independent simulation result plus the Flywheel statistics when
/// the cell ran a Flywheel-kind machine).
pub type CellResult = RunStats;

/// Why a cell attempt failed (the `cause` of a [`FailedCell`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailCause {
    /// The simulation panicked — a simulator bug or an injected fault.
    Panic(String),
    /// The armed watchdog budget fired (cycle cap or wall-clock deadline).
    Timeout(String),
}

impl FailCause {
    /// Short machine-readable kind, used in the CSV `status` column.
    pub fn kind(&self) -> &'static str {
        match self {
            FailCause::Panic(_) => "panic",
            FailCause::Timeout(_) => "timeout",
        }
    }

    /// The human-readable failure description.
    pub fn message(&self) -> &str {
        match self {
            FailCause::Panic(m) | FailCause::Timeout(m) => m,
        }
    }

    /// Classifies a caught panic payload: a [`WatchdogTimeout`] is a typed
    /// timeout, anything else (including the kernels' no-progress panics) is a
    /// plain panic.
    fn from_panic_payload(payload: Box<dyn std::any::Any + Send>) -> FailCause {
        match payload.downcast::<WatchdogTimeout>() {
            Ok(timeout) => FailCause::Timeout(timeout.to_string()),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&'static str>().copied())
                    .unwrap_or("non-string panic payload");
                FailCause::Panic(msg.to_owned())
            }
        }
    }
}

impl std::fmt::Display for FailCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

/// One entry of a degraded run's failed-cell manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedCell {
    /// The grid point that failed.
    pub cell: ScenarioCell,
    /// The final failure cause (after all retries).
    pub cause: FailCause,
    /// How many attempts were made (1..=[`MAX_CELL_ATTEMPTS`]).
    pub attempts: u32,
}

/// Per-metric statistics of one configuration point aggregated over the
/// scenario's seed axis (see [`ScenarioRun::seed_aggregates`]).
///
/// `n` counts only the seeds that actually succeeded at this point; when a
/// seed's cell failed, `n < expected_n` and the point is *reduced* — the
/// failure is never silently averaged away, it shrinks the sample and is
/// flagged as such in every emitter.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedAggregate {
    /// The configuration point, represented by its cell at the scenario's
    /// first seed (the `seed` field is the collapsed axis, not a sample).
    pub cell: ScenarioCell,
    /// Seeds that succeeded at this point.
    pub n: usize,
    /// Seeds the scenario's axis asked for.
    pub expected_n: usize,
    /// Instructions-per-cycle across seeds.
    pub ipc: Aggregate,
    /// Elapsed wall-clock picoseconds across seeds.
    pub elapsed_ps: Aggregate,
    /// Total energy (pJ) across seeds.
    pub energy_pj: Aggregate,
    /// Average power (W) across seeds.
    pub power_w: Aggregate,
    /// Execution Cache residency across seeds (Flywheel-family cells only).
    pub ec_residency: Option<Aggregate>,
}

impl SeedAggregate {
    /// Whether at least one requested seed is missing from this point's
    /// sample (its cell failed and landed in the manifest instead).
    pub fn is_reduced(&self) -> bool {
        self.n < self.expected_n
    }

    /// The CSV/JSON status marker: `n=<got>/<want>`, prefixed with
    /// `reduced:` when seeds are missing.
    pub fn status(&self) -> String {
        if self.is_reduced() {
            format!("aggregate:reduced:n={}/{}", self.n, self.expected_n)
        } else {
            format!("aggregate:n={}/{}", self.n, self.expected_n)
        }
    }
}

/// Checks the machine invariants one cell's result must satisfy regardless of
/// configuration. Returns a description of the first violation.
pub fn check_cell_invariants(
    cell: &ScenarioCell,
    budget: SimBudget,
    r: &CellResult,
) -> Result<(), String> {
    let fail = |msg: String| Err(format!("cell {}: {msg}", cell.label()));
    let sim = &r.sim;
    // The simulator must retire exactly the measured budget.
    if sim.instructions != budget.measured_instructions {
        return fail(format!(
            "retired {} instructions, budget measured {}",
            sim.instructions, budget.measured_instructions
        ));
    }
    if sim.be_cycles == 0 || sim.fe_cycles == 0 || sim.elapsed_ps == 0 {
        return fail(format!(
            "degenerate counters: be {} fe {} elapsed {}",
            sim.be_cycles, sim.fe_cycles, sim.elapsed_ps
        ));
    }
    // Retirement bandwidth bounds the cycle count from below. The executor
    // owns the resolved machine configuration, so the checker never matches
    // on machine variants — every machine is checkable as-is.
    let exec = cell.executor();
    let commit_width = exec.commit_width();
    if sim.instructions > sim.be_cycles * commit_width as u64 {
        return fail(format!(
            "{} instructions exceed the commit bandwidth of {} cycles x {}",
            sim.instructions, sim.be_cycles, commit_width
        ));
    }
    // Energy: every component finite and non-negative, and the reported total
    // must equal their sum (within f64 rounding of the summation order).
    let e = &sim.energy;
    let components = [
        ("frontend", e.frontend_pj),
        ("backend", e.backend_pj),
        ("flywheel", e.flywheel_pj),
        ("clock", e.clock_pj),
        ("leakage_frontend", e.leakage_frontend_pj),
        ("leakage_backend", e.leakage_backend_pj),
        ("leakage_flywheel", e.leakage_flywheel_pj),
    ];
    for (name, v) in components {
        if !v.is_finite() || v < 0.0 {
            return fail(format!("energy component {name} is {v}"));
        }
    }
    let sum: f64 = components.iter().map(|&(_, v)| v).sum();
    let total = e.total_pj();
    if (total - sum).abs() > 1e-6 * sum.max(1.0) {
        return fail(format!("energy total {total} != component sum {sum}"));
    }
    // Leakage attribution: each reported component must equal the machine-aware
    // power model's per-category leakage over the cell's elapsed time,
    // recomputed here from the cell's own machine configuration. This is the
    // invariant that makes machine-blind leakage accounting (the class of bug
    // fixed in PR 5: a baseline charged for Execution-Cache leakage it does not
    // instantiate) impossible to reintroduce silently in either kernel.
    let (power_cfg, kind) = exec.power_binding();
    let model = PowerModel::new(power_cfg);
    let elapsed_s = sim.elapsed_ps as f64 * 1.0e-12;
    for (cat, name, got) in [
        (UnitCategory::FrontEnd, "frontend", e.leakage_frontend_pj),
        (UnitCategory::BackEnd, "backend", e.leakage_backend_pj),
        (
            UnitCategory::FlywheelExtra,
            "flywheel",
            e.leakage_flywheel_pj,
        ),
    ] {
        let want = model.machine_leakage_w(kind, Some(cat)) * elapsed_s * 1.0e12;
        if (got - want).abs() > 1e-9 * want.max(1.0) {
            return fail(format!(
                "{name} leakage {got} pJ disagrees with the machine-aware model ({want} pJ)"
            ));
        }
    }
    // Average power must be consistent with total energy over elapsed time.
    let implied_w = total * 1.0e-12 / (sim.elapsed_ps as f64 * 1.0e-12);
    if (sim.average_power_w() - implied_w).abs() > 1e-9 * implied_w.max(1.0) {
        return fail(format!(
            "average power {} inconsistent with energy/time {}",
            sim.average_power_w(),
            implied_w
        ));
    }
    if !(0.0..=1.0).contains(&sim.gated_frontend_fraction) {
        return fail(format!(
            "gated front-end fraction {} outside [0, 1]",
            sim.gated_frontend_fraction
        ));
    }
    match (&r.flywheel, cell.machine.is_baseline()) {
        (Some(_), true) => return fail("baseline cell carries Flywheel stats".into()),
        (None, false) => return fail("Flywheel cell lost its stats".into()),
        (Some(f), false) => {
            // Every Flywheel-family machine instantiates at least the Register
            // Update stage (the RegAlloc variant's Execution Cache enters the
            // power geometry as zero bytes), so its Flywheel-category leakage
            // is strictly positive.
            if e.leakage_flywheel_pj <= 0.0 {
                return fail(format!(
                    "Flywheel machine reports {} pJ of Flywheel-structure leakage",
                    e.leakage_flywheel_pj
                ));
            }
            if f.ec_hits > f.ec_lookups {
                return fail(format!(
                    "EC hits {} exceed lookups {}",
                    f.ec_hits, f.ec_lookups
                ));
            }
            for (name, v) in [
                ("ec_residency", f.ec_residency),
                ("ec_utilization", f.ec_utilization),
            ] {
                if !(0.0..=1.0).contains(&v) {
                    return fail(format!("{name} {v} outside [0, 1]"));
                }
            }
            // A Flywheel-kind family that does not consume the EC axis (the
            // register-allocation machine) must never touch the EC.
            if !cell.machine.uses_ec_axis() && f.ec_lookups != 0 {
                return fail(format!(
                    "machine '{}' has no Execution Cache but performed {} EC lookups",
                    cell.machine, f.ec_lookups
                ));
            }
        }
        (None, true) => {
            // The baseline never gates its front-end clock and owns no
            // Flywheel-only units.
            if sim.gated_frontend_fraction != 0.0 {
                return fail("baseline gated its front-end clock".into());
            }
            if e.flywheel_pj != 0.0 {
                return fail(format!("baseline charged {} pJ to EC units", e.flywheel_pj));
            }
            if e.leakage_flywheel_pj != 0.0 {
                return fail(format!(
                    "baseline charged {} pJ of leakage to Flywheel-only structures",
                    e.leakage_flywheel_pj
                ));
            }
        }
    }
    Ok(())
}

/// The results of one executed scenario grid.
///
/// When every cell succeeds (the normal case), `cells` is the full expanded
/// grid and `failed` is empty — byte-identical to the pre-fault-tolerance
/// behaviour. When cells fail, the run is *degraded*: `cells`/`results` hold
/// only the succeeded grid points (still in grid order) and `failed` carries
/// the manifest of what was lost and why.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// The succeeded grid points, in execution order.
    pub cells: Vec<ScenarioCell>,
    /// One result per succeeded cell, in the same order.
    pub results: Vec<CellResult>,
    /// Cells that failed after every retry, in grid order.
    pub failed: Vec<FailedCell>,
}

impl ScenarioRun {
    /// Whether the run completed degraded (at least one cell failed).
    pub fn is_degraded(&self) -> bool {
        !self.failed.is_empty()
    }

    /// Grid points attempted: succeeded plus failed.
    pub fn attempted(&self) -> usize {
        self.cells.len() + self.failed.len()
    }
    /// Runs [`check_cell_invariants`] over every cell, then
    /// [`check_aggregate_invariants`](Self::check_aggregate_invariants) over
    /// the seed-axis aggregates — per-seed invariants stay enforced on every
    /// sample that enters an aggregate.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (cell, r) in self.cells.iter().zip(&self.results) {
            check_cell_invariants(cell, self.scenario.budget, r)?;
        }
        self.check_aggregate_invariants()
    }

    /// Groups the succeeded cells by configuration point (every axis except
    /// the seed) and folds each point's per-seed metrics into a
    /// [`SeedAggregate`], in grid order.
    ///
    /// Deterministic for any worker or shard count: per-cell results are
    /// bit-identical however they were computed, and both the point order
    /// (first occurrence in the grid) and the per-point fold order (the seed
    /// axis order) are properties of the scenario, not of the execution.
    /// A point whose every seed failed does not appear at all — the
    /// failed-cell manifest is its record.
    pub fn seed_aggregates(&self) -> Vec<SeedAggregate> {
        let first_seed = self
            .scenario
            .seeds
            .first()
            .copied()
            .unwrap_or(EXPERIMENT_SEED);
        let expected_n = self.scenario.seeds.len();
        let mut aggs: Vec<SeedAggregate> = Vec::new();
        for (cell, r) in self.cells.iter().zip(&self.results) {
            let mut point = *cell;
            point.seed = first_seed;
            let agg = match aggs.iter_mut().find(|a| a.cell == point) {
                Some(a) => a,
                None => {
                    aggs.push(SeedAggregate {
                        cell: point,
                        n: 0,
                        expected_n,
                        ipc: Aggregate::new(),
                        elapsed_ps: Aggregate::new(),
                        energy_pj: Aggregate::new(),
                        power_w: Aggregate::new(),
                        ec_residency: None,
                    });
                    aggs.last_mut().expect("just pushed")
                }
            };
            agg.n += 1;
            agg.ipc.add(r.sim.ipc());
            agg.elapsed_ps.add(r.sim.elapsed_ps as f64);
            agg.energy_pj.add(r.sim.energy.total_pj());
            agg.power_w.add(r.sim.average_power_w());
            if let Some(f) = &r.flywheel {
                agg.ec_residency
                    .get_or_insert_with(Aggregate::new)
                    .add(f.ec_residency);
            }
        }
        aggs
    }

    /// Checks the seed-axis aggregates: sample counts must reconcile exactly
    /// with the grid and the failed-cell manifest (a missing seed is only
    /// ever explained by a manifest entry — never silently dropped), means
    /// must lie inside the observed sample range, and every confidence
    /// interval must be finite, non-negative, and zero exactly when the
    /// sample carries no spread information.
    pub fn check_aggregate_invariants(&self) -> Result<(), String> {
        let first_seed = self
            .scenario
            .seeds
            .first()
            .copied()
            .unwrap_or(EXPERIMENT_SEED);
        for a in self.seed_aggregates() {
            let fail = |msg: String| Err(format!("aggregate {}: {msg}", a.cell.label()));
            if a.n == 0 || a.n > a.expected_n {
                return fail(format!("{} samples of {} expected", a.n, a.expected_n));
            }
            let failed_here = self
                .failed
                .iter()
                .filter(|f| {
                    let mut p = f.cell;
                    p.seed = first_seed;
                    p == a.cell
                })
                .count();
            if a.expected_n - a.n != failed_here {
                return fail(format!(
                    "{} of {} seeds missing but {} failed cells recorded at this point",
                    a.expected_n - a.n,
                    a.expected_n,
                    failed_here
                ));
            }
            for (name, m) in [
                ("ipc", &a.ipc),
                ("elapsed_ps", &a.elapsed_ps),
                ("energy_pj", &a.energy_pj),
                ("power_w", &a.power_w),
            ] {
                if m.n() != a.n as u64 {
                    return fail(format!("metric {name} folded {} of {} samples", m.n(), a.n));
                }
                let (mean, hw) = (m.mean(), m.ci95_halfwidth());
                if !mean.is_finite() || !hw.is_finite() || hw < 0.0 {
                    return fail(format!("metric {name}: mean {mean}, ci95 {hw}"));
                }
                let slack = 1e-9 * m.max().abs().max(1.0);
                if mean < m.min() - slack || mean > m.max() + slack {
                    return fail(format!(
                        "metric {name}: mean {mean} outside sample range [{}, {}]",
                        m.min(),
                        m.max()
                    ));
                }
                let spreadless = a.n < 2 || m.sample_stddev() == 0.0;
                if spreadless != (hw == 0.0) {
                    return fail(format!(
                        "metric {name}: ci95 {hw} inconsistent with stddev {} at n = {}",
                        m.sample_stddev(),
                        a.n
                    ));
                }
            }
            if a.cell.machine.is_baseline() != a.ec_residency.is_none() {
                return fail("EC residency aggregate on the wrong machine family".into());
            }
        }
        Ok(())
    }

    /// The result at grid point `(bench, seed, machine, node, clock)`: the
    /// first succeeded cell there (every figure grid holds a single window,
    /// EC and memory point).
    pub fn result_at(
        &self,
        bench: Benchmark,
        seed: u64,
        machine: Machine,
        node: TechNode,
        (fe_pct, be_pct): (u32, u32),
    ) -> Result<&CellResult, String> {
        self.cells
            .iter()
            .position(|c| {
                (c.bench, c.seed, c.machine, c.node, c.fe_pct, c.be_pct)
                    == (bench, seed, machine, node, fe_pct, be_pct)
            })
            .map(|i| &self.results[i])
            .ok_or_else(|| {
                format!("no ({bench}, s{seed}, {machine}, {node}, FE{fe_pct}/BE{be_pct}) cell in the grid")
            })
    }

    /// The figure tables this run's preset renders (nothing for presets that
    /// are not paper figures). Fails, instead of mislabelling the output,
    /// when the grid cannot support them: every axis the figure does not
    /// sweep must sit at its preset's point, and every cell it reads must
    /// have succeeded.
    pub fn figure_tables(&self) -> Result<String, String> {
        match PRESETS
            .iter()
            .find(|p| p.name == self.scenario.name)
            .and_then(|p| p.tables)
        {
            Some(render) => render(self),
            None => Ok(String::new()),
        }
    }

    /// Checks that the grid can support `figure`'s tables: the seed, node,
    /// window, EC, memory and baseline-clock axes must equal the figure
    /// preset's (otherwise the output would carry a paper-figure title while
    /// describing a different machine, or a lookup would silently pick one
    /// point of a multi-point axis), and every machine the table reads must
    /// be in the grid.
    fn figure_grid_guard(&self, figure: &str, machines: &[Machine]) -> Result<(), String> {
        let s = &self.scenario;
        let paper = Scenario::preset(figure, s.budget).expect("figure presets are registered");
        let fmt_axis = |v: &dyn std::fmt::Debug| format!("{v:?}");
        for (axis, got, want) in [
            ("seeds", fmt_axis(&s.seeds), fmt_axis(&paper.seeds)),
            ("nodes", fmt_axis(&s.nodes), fmt_axis(&paper.nodes)),
            ("windows", fmt_axis(&s.windows), fmt_axis(&paper.windows)),
            ("ec_kb", fmt_axis(&s.ec_kb), fmt_axis(&paper.ec_kb)),
            (
                "mem_cycles",
                fmt_axis(&s.mem_cycles),
                fmt_axis(&paper.mem_cycles),
            ),
            (
                "baseline_clock",
                fmt_axis(&s.baseline_clock),
                fmt_axis(&paper.baseline_clock),
            ),
        ] {
            if got != want {
                return Err(format!(
                    "{figure} is defined at the paper configuration ('{axis}' = {want}); \
                     scenario '{}' has {got}",
                    s.name
                ));
            }
        }
        for m in machines {
            if !s.machines.contains(m) {
                return Err(format!(
                    "{figure} table needs machine '{m}', scenario '{}' does not run it",
                    s.name
                ));
            }
        }
        Ok(())
    }

    /// A cell of a guarded figure grid, whose seed axis is a single point.
    fn figure_cell(
        &self,
        bench: Benchmark,
        machine: Machine,
        node: TechNode,
        clock: (u32, u32),
    ) -> Result<&CellResult, String> {
        self.result_at(bench, self.scenario.seeds[0], machine, node, clock)
    }

    /// The baseline reference of `bench` at `node` in a guarded figure grid.
    fn reference(&self, bench: Benchmark, node: TechNode) -> Result<&SimResult, String> {
        let clock = self.scenario.baseline_clock;
        Ok(&self.figure_cell(bench, Machine::Baseline, node, clock)?.sim)
    }

    /// Formats a figure table with one row per benchmark of the grid.
    fn figure_table(
        &self,
        title: &str,
        columns: &[String],
        values: impl Fn(Benchmark) -> Result<Vec<f64>, String>,
    ) -> Result<String, String> {
        let rows = self
            .scenario
            .benchmarks
            .iter()
            .map(|&bench| {
                Ok(Row {
                    bench: bench.name(),
                    values: values(bench)?,
                })
            })
            .collect::<Result<Vec<Row>, String>>()?;
        Ok(format_table(title, columns, &rows))
    }

    /// Renders the Figure 2 table from a [`Scenario::fig2`] run: the runtime
    /// cost of each stretched pipeline loop over the baseline.
    pub fn fig2_table(&self) -> Result<String, String> {
        self.figure_grid_guard(
            "fig2",
            &[
                Machine::Baseline,
                Machine::BaselineExtraFe,
                Machine::BaselinePipedWakeup,
            ],
        )?;
        let (node, clock) = (self.scenario.nodes[0], self.scenario.baseline_clock);
        self.figure_table(
            "Figure 2: performance degradation (%) from pipeline-loop stretching",
            &["fetch+1 %".to_owned(), "wakeup/sel %".to_owned()],
            |bench| {
                let base = self.reference(bench, node)?;
                [Machine::BaselineExtraFe, Machine::BaselinePipedWakeup]
                    .into_iter()
                    .map(|m| {
                        let v = &self.figure_cell(bench, m, node, clock)?.sim;
                        Ok((v.elapsed_ps as f64 / base.elapsed_ps as f64 - 1.0) * 100.0)
                    })
                    .collect()
            },
        )
    }

    /// Renders the Figure 11 table from a [`Scenario::fig11`] run: the
    /// register-allocation machine and Flywheel at the baseline clock point
    /// `(0, 0)`.
    pub fn fig11_table(&self) -> Result<String, String> {
        self.figure_grid_guard(
            "fig11",
            &[Machine::Baseline, Machine::RegAlloc, Machine::Flywheel],
        )?;
        let node = self.scenario.nodes[0];
        self.figure_table(
            "Figure 11: performance at the baseline clock, normalized to the baseline",
            &["reg-alloc".to_owned(), "flywheel".to_owned()],
            |bench| {
                let base = self.reference(bench, node)?;
                [Machine::RegAlloc, Machine::Flywheel]
                    .into_iter()
                    .map(|m| {
                        Ok(self
                            .figure_cell(bench, m, node, (0, 0))?
                            .sim
                            .speedup_over(base))
                    })
                    .collect()
            },
        )
    }

    /// One metric of a [`Scenario::fig12`] run over its clock axis (the
    /// columns follow the scenario's clock points).
    fn clock_sweep_table(
        &self,
        title: &str,
        metric: fn(&SimResult, &SimResult) -> f64,
    ) -> Result<String, String> {
        self.figure_grid_guard("fig12", &[Machine::Baseline, Machine::Flywheel])?;
        let node = self.scenario.nodes[0];
        let columns: Vec<String> = self
            .scenario
            .clocks
            .iter()
            .map(|(fe, be)| format!("FE{fe}/BE{be}"))
            .collect();
        self.figure_table(title, &columns, |bench| {
            let base = self.reference(bench, node)?;
            self.scenario
                .clocks
                .iter()
                .map(|&clock| {
                    Ok(metric(
                        &self.figure_cell(bench, Machine::Flywheel, node, clock)?.sim,
                        base,
                    ))
                })
                .collect()
        })
    }

    /// Renders the Figure 12 table (relative performance) from a
    /// [`Scenario::fig12`] run.
    pub fn fig12_table(&self) -> Result<String, String> {
        self.clock_sweep_table("Figure 12: relative performance", SimResult::speedup_over)
    }

    /// Renders the Figure 13 table (relative energy) from a
    /// [`Scenario::fig12`] run.
    pub fn fig13_table(&self) -> Result<String, String> {
        self.clock_sweep_table("Figure 13: relative energy", SimResult::energy_ratio_over)
    }

    /// Renders the Figure 14 table (relative power) from a
    /// [`Scenario::fig12`] run.
    pub fn fig14_table(&self) -> Result<String, String> {
        self.clock_sweep_table("Figure 14: relative power", SimResult::power_ratio_over)
    }

    /// Figures 12, 13 and 14: three metrics of the one clock-sweep run.
    fn clock_sweep_tables(&self) -> Result<String, String> {
        Ok(self.fig12_table()? + &self.fig13_table()? + &self.fig14_table()?)
    }

    /// The Flywheel cell and baseline reference of `bench` at `node` in a
    /// [`Scenario::fig15`] run.
    fn fig15_pair(
        &self,
        bench: Benchmark,
        node: TechNode,
    ) -> Result<(&SimResult, &SimResult), String> {
        let fly = &self
            .figure_cell(bench, Machine::Flywheel, node, FIG15_CLOCK)?
            .sim;
        Ok((fly, self.reference(bench, node)?))
    }

    /// Renders the Figure 15 table from a [`Scenario::fig15`] run: relative
    /// energy of Flywheel (FE +100 %, BE +50 %) per technology node.
    pub fn fig15_table(&self) -> Result<String, String> {
        self.figure_grid_guard("fig15", &[Machine::Baseline, Machine::Flywheel])?;
        let nodes = &self.scenario.nodes;
        let columns: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
        self.figure_table(
            "Figure 15: relative energy of Flywheel (FE100%, BE50%) per technology node",
            &columns,
            |bench| {
                nodes
                    .iter()
                    .map(|&n| {
                        let (fly, base) = self.fig15_pair(bench, n)?;
                        Ok(fly.energy_ratio_over(base))
                    })
                    .collect()
            },
        )
    }

    /// Renders the leakage-attribution companion to Figure 15 at `node` from
    /// a [`Scenario::fig15`] run: how much of each machine's total energy is
    /// leakage, how much of the Flywheel machine's total leaks through its
    /// extra structures (Execution Cache + Register Update — exactly the
    /// components the baseline does not pay for), and the energy-delay-product
    /// ratio that summarizes the trade.
    pub fn leakage_attribution_table(&self, node: TechNode) -> Result<String, String> {
        self.figure_grid_guard("fig15", &[Machine::Baseline, Machine::Flywheel])?;
        self.figure_table(
            &format!("Leakage attribution at {node} (Flywheel at FE100%, BE50%)"),
            &[
                "base leak %".to_owned(),
                "fly leak %".to_owned(),
                "fly extra %".to_owned(),
                "edp ratio".to_owned(),
            ],
            |bench| {
                let (fly, base) = self.fig15_pair(bench, node)?;
                Ok(vec![
                    base.energy.leakage_fraction() * 100.0,
                    fly.energy.leakage_fraction() * 100.0,
                    fly.energy.flywheel_leakage_fraction() * 100.0,
                    fly.edp_ratio_over(base),
                ])
            },
        )
    }

    /// Figure 15 followed by its leakage-attribution table at every node.
    fn fig15_tables(&self) -> Result<String, String> {
        let mut out = self.fig15_table()?;
        for &node in &self.scenario.nodes {
            out.push_str(&self.leakage_attribution_table(node)?);
        }
        Ok(out)
    }

    /// Renders the Execution-Cache residency study from a
    /// [`Scenario::ec_residency`] run: the fraction of time the Flywheel
    /// machine spends on the Execution Cache path, and its EC hit rate.
    pub fn ec_residency_table(&self) -> Result<String, String> {
        self.figure_grid_guard("ec_residency", &[Machine::Flywheel])?;
        let node = self.scenario.nodes[0];
        self.figure_table(
            "Execution-path residency (paper reports an 88% average; vortex the lowest)",
            &["residency".to_owned(), "ec hit rate".to_owned()],
            |bench| {
                let cell = self.figure_cell(bench, Machine::Flywheel, node, (0, 0))?;
                let f = cell
                    .flywheel
                    .as_ref()
                    .ok_or_else(|| format!("the {bench} Flywheel cell lost its stats"))?;
                Ok(vec![f.ec_residency, f.ec_hit_rate()])
            },
        )
    }

    /// The scenario name as emitted into CSV/JSON: anything that could break
    /// the hand-assembled formats (quotes, commas, newlines, non-ASCII) is
    /// replaced by `_`. Preset names pass through unchanged.
    fn emitted_name(&self) -> String {
        self.scenario
            .name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ' ') {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    }

    /// Telemetry events the process-global sink logged for `cell` (0 when
    /// telemetry is off — the column then stays all-zero, keeping
    /// telemetry-off emissions byte-identical across runs).
    fn telemetry_events_for(&self, cell: &ScenarioCell) -> u64 {
        if !crate::telemetry::telemetry_installed() {
            return 0;
        }
        crate::telemetry::logged_events(&cell.key(self.scenario.budget))
    }

    /// Emits the run as CSV (one row per cell, header included).
    ///
    /// The trailing `status` column is `ok` for succeeded cells. A degraded
    /// run appends one row per failed cell after the succeeded rows: the
    /// configuration columns are filled, every metric column is empty, and
    /// `status` is `failed:<kind>` (`failed:panic` / `failed:timeout`).
    ///
    /// A multi-seed run additionally appends one row per configuration point
    /// (see [`ScenarioRun::seed_aggregates`]) after the failed rows: `seed`
    /// is the literal `agg`, the metric columns carry the per-seed means, the
    /// `*_ci95` columns carry the 95% confidence half-widths, and `status` is
    /// the aggregate's `n=<got>/<want>` marker (prefixed `reduced:` when a
    /// failed seed shrank the sample). Single-seed runs leave the `*_ci95`
    /// columns empty and append no aggregate rows.
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "scenario,bench,seed,machine,node_nm,fe_pct,be_pct,iw,rob,ec_kb,mem_cycles,\
             instructions,be_cycles,fe_cycles,elapsed_ps,squashed,ipc,total_energy_pj,\
             avg_power_w,leak_frontend_pj,leak_backend_pj,leak_flywheel_pj,leak_fraction,\
             gated_fraction,ec_residency,ec_hit_rate,telemetry_events,\
             ipc_ci95,elapsed_ps_ci95,energy_pj_ci95,power_w_ci95,status\n",
        );
        let name = self.emitted_name();
        for (cell, r) in self.cells.iter().zip(&self.results) {
            let (res, hit) = match &r.flywheel {
                Some(f) => (
                    format!("{:.6}", f.ec_residency),
                    format!("{:.6}", f.ec_hit_rate()),
                ),
                None => (String::new(), String::new()),
            };
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.6},{:.3},{:.6},\
                 {:.3},{:.3},{:.3},{:.6},{:.6},{},{},{},,,,,ok\n",
                name,
                cell.bench,
                cell.seed,
                cell.machine,
                cell.node.feature_nm(),
                cell.fe_pct,
                cell.be_pct,
                cell.iw_entries,
                cell.rob_entries,
                cell.ec_kb,
                cell.mem_cycles,
                r.sim.instructions,
                r.sim.be_cycles,
                r.sim.fe_cycles,
                r.sim.elapsed_ps,
                r.sim.squashed,
                r.sim.ipc(),
                r.sim.energy.total_pj(),
                r.sim.average_power_w(),
                r.sim.energy.leakage_frontend_pj,
                r.sim.energy.leakage_backend_pj,
                r.sim.energy.leakage_flywheel_pj,
                r.sim.energy.leakage_fraction(),
                r.sim.gated_frontend_fraction,
                res,
                hit,
                self.telemetry_events_for(cell),
            ));
        }
        for f in &self.failed {
            let cell = &f.cell;
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},,,,,,,,,,,,,,,,,,,,,failed:{}\n",
                name,
                cell.bench,
                cell.seed,
                cell.machine,
                cell.node.feature_nm(),
                cell.fe_pct,
                cell.be_pct,
                cell.iw_entries,
                cell.rob_entries,
                cell.ec_kb,
                cell.mem_cycles,
                f.cause.kind(),
            ));
        }
        if self.scenario.seeds.len() > 1 {
            for a in self.seed_aggregates() {
                let cell = &a.cell;
                let res = match &a.ec_residency {
                    Some(m) => format!("{:.6}", m.mean()),
                    None => String::new(),
                };
                s.push_str(&format!(
                    "{},{},agg,{},{},{},{},{},{},{},{},,,,{:.3},,{:.6},{:.3},{:.6},\
                     ,,,,,{},,,{:.6},{:.3},{:.3},{:.6},{}\n",
                    name,
                    cell.bench,
                    cell.machine,
                    cell.node.feature_nm(),
                    cell.fe_pct,
                    cell.be_pct,
                    cell.iw_entries,
                    cell.rob_entries,
                    cell.ec_kb,
                    cell.mem_cycles,
                    a.elapsed_ps.mean(),
                    a.ipc.mean(),
                    a.energy_pj.mean(),
                    a.power_w.mean(),
                    res,
                    a.ipc.ci95_halfwidth(),
                    a.elapsed_ps.ci95_halfwidth(),
                    a.energy_pj.ci95_halfwidth(),
                    a.power_w.ci95_halfwidth(),
                    a.status(),
                ));
            }
        }
        s
    }

    /// Emits the run as JSON (hand-assembled: the container has no registry
    /// access for serde; every emitted string is sanitized plain ASCII, so no
    /// escaping is needed).
    pub fn to_json(&self) -> String {
        let b = self.scenario.budget;
        let mut s = String::from("{\n  \"schema\": \"flywheel-scenarios/3\",\n");
        s.push_str(&format!("  \"scenario\": \"{}\",\n", self.emitted_name()));
        s.push_str(&format!(
            "  \"budget\": {{\"warmup_instructions\": {}, \"measured_instructions\": {}}},\n",
            b.warmup_instructions, b.measured_instructions
        ));
        s.push_str(&format!("  \"cell_count\": {},\n", self.cells.len()));
        s.push_str(&format!("  \"failed_count\": {},\n", self.failed.len()));
        s.push_str(&format!(
            "  \"seeds\": [{}],\n",
            self.scenario
                .seeds
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str("  \"cells\": [\n");
        for (i, (cell, r)) in self.cells.iter().zip(&self.results).enumerate() {
            s.push_str(&format!(
                "    {{\"bench\": \"{}\", \"seed\": {}, \"machine\": \"{}\", \"node_nm\": {}, \
                 \"fe_pct\": {}, \"be_pct\": {}, \"iw\": {}, \"rob\": {}, \"ec_kb\": {}, \
                 \"mem_cycles\": {}, \"instructions\": {}, \"be_cycles\": {}, \"fe_cycles\": {}, \
                 \"elapsed_ps\": {}, \"squashed\": {}, \"ipc\": {:.6}, \"total_energy_pj\": {:.3}, \
                 \"avg_power_w\": {:.6}, \"leak_frontend_pj\": {:.3}, \"leak_backend_pj\": {:.3}, \
                 \"leak_flywheel_pj\": {:.3}, \"leak_fraction\": {:.6}",
                cell.bench,
                cell.seed,
                cell.machine,
                cell.node.feature_nm(),
                cell.fe_pct,
                cell.be_pct,
                cell.iw_entries,
                cell.rob_entries,
                cell.ec_kb,
                cell.mem_cycles,
                r.sim.instructions,
                r.sim.be_cycles,
                r.sim.fe_cycles,
                r.sim.elapsed_ps,
                r.sim.squashed,
                r.sim.ipc(),
                r.sim.energy.total_pj(),
                r.sim.average_power_w(),
                r.sim.energy.leakage_frontend_pj,
                r.sim.energy.leakage_backend_pj,
                r.sim.energy.leakage_flywheel_pj,
                r.sim.energy.leakage_fraction(),
            ));
            if let Some(f) = &r.flywheel {
                s.push_str(&format!(
                    ", \"ec_residency\": {:.6}, \"ec_hit_rate\": {:.6}",
                    f.ec_residency,
                    f.ec_hit_rate()
                ));
            }
            s.push_str(&format!(
                ", \"telemetry_events\": {}",
                self.telemetry_events_for(cell)
            ));
            s.push_str(if i + 1 < self.cells.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        s.push_str("  ],\n");
        s.push_str("  \"failed_cells\": [\n");
        for (i, f) in self.failed.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"label\": \"{}\", \"cause\": \"{}\", \"attempts\": {}, \"detail\": \"{}\"}}",
                json_safe(&f.cell.label()),
                f.cause.kind(),
                f.attempts,
                json_safe(f.cause.message()),
            ));
            s.push_str(if i + 1 < self.failed.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        // Seed-axis aggregates (empty for single-seed runs, where a mean of
        // one sample would only restate the cell rows).
        s.push_str("  \"seed_aggregates\": [\n");
        let aggs = if self.scenario.seeds.len() > 1 {
            self.seed_aggregates()
        } else {
            Vec::new()
        };
        for (i, a) in aggs.iter().enumerate() {
            let cell = &a.cell;
            s.push_str(&format!(
                "    {{\"bench\": \"{}\", \"machine\": \"{}\", \"node_nm\": {}, \
                 \"fe_pct\": {}, \"be_pct\": {}, \"iw\": {}, \"rob\": {}, \"ec_kb\": {}, \
                 \"mem_cycles\": {}, \"n\": {}, \"expected_n\": {}, \"reduced\": {}, \
                 \"ipc_mean\": {:.6}, \"ipc_ci95\": {:.6}, \
                 \"elapsed_ps_mean\": {:.3}, \"elapsed_ps_ci95\": {:.3}, \
                 \"energy_pj_mean\": {:.3}, \"energy_pj_ci95\": {:.3}, \
                 \"power_w_mean\": {:.6}, \"power_w_ci95\": {:.6}",
                cell.bench,
                cell.machine,
                cell.node.feature_nm(),
                cell.fe_pct,
                cell.be_pct,
                cell.iw_entries,
                cell.rob_entries,
                cell.ec_kb,
                cell.mem_cycles,
                a.n,
                a.expected_n,
                a.is_reduced(),
                a.ipc.mean(),
                a.ipc.ci95_halfwidth(),
                a.elapsed_ps.mean(),
                a.elapsed_ps.ci95_halfwidth(),
                a.energy_pj.mean(),
                a.energy_pj.ci95_halfwidth(),
                a.power_w.mean(),
                a.power_w.ci95_halfwidth(),
            ));
            if let Some(m) = &a.ec_residency {
                s.push_str(&format!(
                    ", \"ec_residency_mean\": {:.6}, \"ec_residency_ci95\": {:.6}",
                    m.mean(),
                    m.ci95_halfwidth()
                ));
            }
            s.push_str(if i + 1 < aggs.len() { "},\n" } else { "}\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Makes an arbitrary string safe to embed in the hand-assembled JSON without
/// an escaper: anything that would need escaping (quotes, backslashes,
/// control characters, non-ASCII) becomes `_`. Cell labels are already plain
/// ASCII; this guards the free-form panic messages.
fn json_safe(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_graphic() && c != '"' && c != '\\' || c == ' ' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flywheel_core::{FlywheelConfig, FlywheelResult, FlywheelSim};
    use flywheel_uarch::{BaselineConfig, BaselineSim};

    fn tiny_budget() -> SimBudget {
        SimBudget::new(500, 2_000)
    }

    #[test]
    fn machines_round_trip_through_names() {
        for &m in Machine::all() {
            assert_eq!(Machine::from_name(m.name()), Some(m));
        }
        assert_eq!(Machine::from_name("nope"), None);
    }

    #[test]
    fn presets_validate_and_have_the_expected_cell_counts() {
        use Machine::*;
        let b = tiny_budget();
        for (s, machines) in [
            (Scenario::new("t", b), &[Baseline, Flywheel][..]),
            (
                Scenario::fig2(b),
                &[Baseline, BaselineExtraFe, BaselinePipedWakeup],
            ),
            (Scenario::fig11(b), &[Baseline, RegAlloc, Flywheel]),
            (Scenario::ec_residency(b), &[Flywheel]),
        ] {
            assert_eq!(s.machines, machines, "{}", s.name);
        }
        for (s, per_bench) in [
            (Scenario::fig2(b), 3),
            (Scenario::fig11(b), 3),
            (Scenario::fig12(b), 6),
            (Scenario::fig15(b), 6),
            (Scenario::ec_residency(b), 1),
        ] {
            s.validate().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(s.cell_count(), s.benchmarks.len() * per_bench, "{}", s.name);
        }
        Scenario::smoke().validate().unwrap();
        Scenario::stress(b).validate().unwrap();
        Scenario::leakage(b).validate().unwrap();
        Scenario::multidomain(b).validate().unwrap();
        Scenario::dvfs(b).validate().unwrap();
    }

    #[test]
    fn figure_presets_render_every_figure_table() {
        let mut out = String::new();
        for name in Scenario::figure_names() {
            let mut s = Scenario::preset(name, tiny_budget()).unwrap();
            s.benchmarks = vec![Benchmark::Micro];
            out.push_str(&s.run().figure_tables().unwrap_or_else(|e| panic!("{e}")));
        }
        let titles: Vec<&str> = out.lines().filter(|l| l.starts_with("== ")).collect();
        assert_eq!(
            titles,
            [
                "== Figure 2: performance degradation (%) from pipeline-loop stretching ==",
                "== Figure 11: performance at the baseline clock, normalized to the baseline ==",
                "== Figure 12: relative performance ==",
                "== Figure 13: relative energy ==",
                "== Figure 14: relative power ==",
                "== Figure 15: relative energy of Flywheel (FE100%, BE50%) per technology node ==",
                "== Leakage attribution at 130nm (Flywheel at FE100%, BE50%) ==",
                "== Leakage attribution at 90nm (Flywheel at FE100%, BE50%) ==",
                "== Leakage attribution at 60nm (Flywheel at FE100%, BE50%) ==",
                "== Execution-path residency (paper reports an 88% average; vortex the lowest) ==",
            ]
        );
        // Non-figure presets render nothing.
        let mut smoke = Scenario::smoke();
        smoke.benchmarks = vec![Benchmark::Micro];
        smoke.budget = tiny_budget();
        assert_eq!(smoke.run().figure_tables().unwrap(), "");
    }

    #[test]
    fn new_family_presets_have_the_expected_grids() {
        let b = tiny_budget();
        // multidomain: baseline once, multi-domain machine per clock point.
        let s = Scenario::multidomain(b);
        assert_eq!(
            s.machines,
            vec![Machine::Baseline, Machine::MultiDomain],
            "the multidomain preset lists its machines"
        );
        assert_eq!(s.cell_count(), s.benchmarks.len() * 3);
        // dvfs: baseline once, Flywheel and governed Flywheel per clock point.
        let s = Scenario::dvfs(b);
        assert_eq!(
            s.machines,
            vec![Machine::Baseline, Machine::Flywheel, Machine::Dvfs]
        );
        assert_eq!(s.cell_count(), s.benchmarks.len() * 5);
    }

    #[test]
    fn new_families_flow_through_the_whole_engine_unchanged() {
        // One multi-domain and one DVFS cell run through expansion, the
        // guarded executor, the invariant layer and both emitters without any
        // machine-specific handling in those layers.
        for mut s in [
            Scenario::multidomain(tiny_budget()),
            Scenario::dvfs(tiny_budget()),
        ] {
            s.benchmarks = vec![Benchmark::PtrChase];
            let run = s.run();
            assert_eq!(run.cells.len(), s.cell_count(), "no failed cells");
            run.check_invariants().unwrap_or_else(|e| panic!("{e}"));
            let csv = run.to_csv();
            assert_eq!(csv.lines().count(), run.cells.len() + 1);
            assert!(csv.contains(&format!(",{},", s.machines.last().unwrap())));
            let json = run.to_json();
            assert!(json.contains(&format!("\"machine\": \"{}\"", s.machines[1])));
        }
    }

    #[test]
    fn leakage_preset_sweeps_node_machine_and_ec() {
        let s = Scenario::leakage(tiny_budget());
        assert_eq!(s.nodes, TechNode::power_study_nodes().to_vec());
        assert_eq!(s.clocks, vec![(100, 50)]);
        assert_eq!(s.ec_kb, vec![64, 128, 256]);
        // Per (bench, seed): baseline runs once per node; the Flywheel machine
        // multiplies over nodes x EC capacities.
        let nodes = s.nodes.len();
        assert_eq!(
            s.cell_count(),
            s.benchmarks.len() * (nodes + nodes * s.ec_kb.len())
        );
    }

    #[test]
    fn baseline_cells_do_not_multiply_over_flywheel_axes() {
        let mut s = Scenario::new("t", tiny_budget());
        s.benchmarks = vec![Benchmark::Micro];
        s.clocks = vec![(0, 50), (50, 50)];
        s.ec_kb = vec![64, 128];
        let cells = s.expand();
        let baseline = cells.iter().filter(|c| c.machine.is_baseline()).count();
        let flywheel = cells.iter().filter(|c| !c.machine.is_baseline()).count();
        assert_eq!(baseline, 1, "one reference baseline");
        assert_eq!(flywheel, 4, "clock x EC grid on the Flywheel machine");
    }

    #[test]
    fn paper_default_cells_reproduce_the_paper_configs() {
        // The executor's config_debug() is the exact Debug rendering that
        // enters the store key, so comparing it against the paper constructors
        // pins both the resolved configuration and the key derivation.
        let s = Scenario::new("t", tiny_budget());
        let cells = s.expand();
        let base = cells
            .iter()
            .find(|c| c.machine == Machine::Baseline)
            .unwrap();
        assert_eq!(
            base.executor().config_debug(),
            format!("{:?}", BaselineConfig::paper(TechNode::N130))
        );
        let fly = cells
            .iter()
            .find(|c| c.machine == Machine::Flywheel)
            .unwrap();
        assert_eq!(
            fly.executor().config_debug(),
            format!("{:?}", FlywheelConfig::paper_iso_clock(TechNode::N130))
        );
        let fig11 = Scenario::fig11(tiny_budget());
        let ra = fig11
            .expand()
            .into_iter()
            .find(|c| c.machine == Machine::RegAlloc)
            .unwrap();
        assert_eq!(
            ra.executor().config_debug(),
            format!(
                "{:?}",
                FlywheelConfig::register_allocation_only(TechNode::N130)
            )
        );
    }

    /// A baseline run straight on the kernel over the shared trace, as
    /// `golden` drives it: the oracle the engine path is checked against.
    fn direct_baseline(bench: Benchmark, budget: SimBudget) -> SimResult {
        direct_baseline_with(bench, BaselineConfig::paper(TechNode::N130), budget)
    }

    fn direct_baseline_with(bench: Benchmark, cfg: BaselineConfig, budget: SimBudget) -> SimResult {
        let trace = crate::shared_trace(bench, EXPERIMENT_SEED, budget);
        BaselineSim::new(cfg, trace.cursor()).run(budget)
    }

    fn direct_flywheel(bench: Benchmark, cfg: FlywheelConfig, budget: SimBudget) -> FlywheelResult {
        let trace = crate::shared_trace(bench, EXPERIMENT_SEED, budget);
        FlywheelSim::new(cfg, trace.cursor()).run(budget)
    }

    /// A figure preset over two benchmarks, and the table `title` those
    /// benchmarks render to when each row is computed by hand with `values`
    /// -- one direct kernel run per paper configuration.
    fn preset_and_expected_table(
        preset: fn(SimBudget) -> Scenario,
        title: &str,
        columns: &[String],
        values: impl Fn(Benchmark) -> Vec<f64>,
    ) -> (Scenario, String) {
        let mut preset = preset(tiny_budget());
        preset.benchmarks = vec![Benchmark::Micro, Benchmark::Gzip];
        let rows: Vec<Row> = preset
            .benchmarks
            .iter()
            .map(|&bench| Row {
                bench: bench.name(),
                values: values(bench),
            })
            .collect();
        (preset, format_table(title, columns, &rows))
    }

    #[test]
    fn scenario_run_matches_the_harness_runners_bitwise() {
        // The engine path (cell -> executor -> shared trace) must agree
        // exactly with driving the kernels by hand.
        let budget = tiny_budget();
        let mut s = Scenario::new("t", budget);
        s.benchmarks = vec![Benchmark::Micro];
        s.clocks = vec![(50, 50)];
        let run = s.run();
        run.check_invariants().unwrap_or_else(|e| panic!("{e}"));
        let at = |machine, clock| {
            run.result_at(
                Benchmark::Micro,
                EXPERIMENT_SEED,
                machine,
                TechNode::N130,
                clock,
            )
            .unwrap()
        };
        let base = at(Machine::Baseline, (0, 0));
        assert_eq!(base.sim, direct_baseline(Benchmark::Micro, budget));
        assert_eq!(base.flywheel, None);
        let fly = at(Machine::Flywheel, (50, 50));
        let direct = direct_flywheel(
            Benchmark::Micro,
            FlywheelConfig::paper(TechNode::N130, 50, 50),
            budget,
        );
        assert_eq!(fly.sim, direct.sim);
        assert_eq!(fly.flywheel, Some(direct.flywheel));
    }

    #[test]
    fn fig2_preset_table_is_byte_identical_to_the_experiments_path() {
        let budget = tiny_budget();
        let (preset, expected) = preset_and_expected_table(
            Scenario::fig2,
            "Figure 2: performance degradation (%) from pipeline-loop stretching",
            &["fetch+1 %".to_owned(), "wakeup/sel %".to_owned()],
            |bench| {
                let base = direct_baseline(bench, budget).elapsed_ps as f64;
                let paper = BaselineConfig::paper(TechNode::N130);
                [
                    paper.clone().with_extra_frontend_stage(),
                    paper.with_pipelined_wakeup(),
                ]
                .map(|cfg| {
                    let v = direct_baseline_with(bench, cfg, budget);
                    (v.elapsed_ps as f64 / base - 1.0) * 100.0
                })
                .to_vec()
            },
        );
        assert_eq!(preset.run().fig2_table().unwrap(), expected);
    }

    #[test]
    fn fig12_preset_table_is_byte_identical_to_the_experiments_path() {
        let budget = tiny_budget();
        let columns: Vec<String> = CLOCK_SWEEP
            .iter()
            .map(|(fe, be)| format!("FE{fe}/BE{be}"))
            .collect();
        let (preset, expected) = preset_and_expected_table(
            Scenario::fig12,
            "Figure 12: relative performance",
            &columns,
            |bench| {
                let base = direct_baseline(bench, budget);
                CLOCK_SWEEP
                    .iter()
                    .map(|&(fe, be)| {
                        let cfg = FlywheelConfig::paper(TechNode::N130, fe, be);
                        direct_flywheel(bench, cfg, budget).speedup_over(&base)
                    })
                    .collect()
            },
        );
        assert_eq!(preset.run().fig12_table().unwrap(), expected);
    }

    #[test]
    fn fig11_preset_table_is_byte_identical_to_the_experiments_path() {
        let budget = tiny_budget();
        let (preset, expected) = preset_and_expected_table(
            Scenario::fig11,
            "Figure 11: performance at the baseline clock, normalized to the baseline",
            &["reg-alloc".to_owned(), "flywheel".to_owned()],
            |bench| {
                let base = direct_baseline(bench, budget);
                [
                    FlywheelConfig::register_allocation_only(TechNode::N130),
                    FlywheelConfig::paper_iso_clock(TechNode::N130),
                ]
                .map(|cfg| direct_flywheel(bench, cfg, budget).speedup_over(&base))
                .to_vec()
            },
        );
        assert_eq!(preset.run().fig11_table().unwrap(), expected);
    }

    #[test]
    fn figure_tables_reject_grids_missing_their_cells() {
        // Rendering a figure from a grid that lacks the figure's machines or
        // collapses a multi-point axis must fail loudly, not mislabel output.
        let mut s = Scenario::fig2(tiny_budget());
        s.benchmarks = vec![Benchmark::Micro];
        s.machines = vec![Machine::Baseline]; // fig2 variants removed
        let run = s.run();
        let err = run.fig2_table().unwrap_err();
        assert!(err.contains("baseline-extra-fe"), "got: {err}");

        let mut s = Scenario::fig12(tiny_budget());
        s.benchmarks = vec![Benchmark::Micro];
        s.seeds = vec![1, 2]; // multi-point non-clock axis
        let run = s.run();
        let err = run.fig12_table().unwrap_err();
        assert!(err.contains("'seeds'"), "got: {err}");

        let mut s = Scenario::fig11(tiny_budget());
        s.benchmarks = vec![Benchmark::Micro];
        s.clocks = vec![(50, 50)]; // fig11 needs the (0, 0) point
        let run = s.run();
        assert!(run.fig11_table().is_err());

        let mut s = Scenario::fig15(tiny_budget());
        s.benchmarks = vec![Benchmark::Micro];
        s.nodes = vec![TechNode::N130]; // fig15 sweeps the power-study nodes
        let err = s.run().figure_tables().unwrap_err();
        assert!(err.contains("'nodes'"), "got: {err}");

        let mut s = Scenario::ec_residency(tiny_budget());
        s.benchmarks = vec![Benchmark::Micro];
        s.machines = vec![Machine::RegAlloc];
        let err = s.run().ec_residency_table().unwrap_err();
        assert!(err.contains("'flywheel'"), "got: {err}");
    }

    #[test]
    fn emitters_cover_every_cell() {
        let mut s = Scenario::smoke();
        s.benchmarks = vec![Benchmark::Micro];
        s.budget = tiny_budget();
        let run = s.run();
        let csv = run.to_csv();
        assert_eq!(csv.lines().count(), run.cells.len() + 1, "header + cells");
        let json = run.to_json();
        assert_eq!(json.matches("\"bench\"").count(), run.cells.len());
        assert!(json.contains("\"schema\": \"flywheel-scenarios/3\""));
        // A clean run advertises zero failures and an empty manifest.
        assert!(json.contains("\"failed_count\": 0"));
        assert!(json.contains("\"failed_cells\": [\n  ]"));
        // A single-seed run emits its seed axis but no aggregates.
        assert!(json.contains("\"seeds\": [2005]"));
        assert!(json.contains("\"seed_aggregates\": [\n  ]"));
        // Flywheel cells carry EC fields, baseline cells leave them empty.
        assert!(json.contains("\"ec_residency\""));
        // The leakage-attribution column family is emitted for every cell.
        assert!(json.contains("\"leak_flywheel_pj\""));
        let header = csv.lines().next().unwrap();
        assert!(header.contains("leak_flywheel_pj"));
        assert!(header.ends_with(
            ",telemetry_events,ipc_ci95,elapsed_ps_ci95,energy_pj_ci95,power_w_ci95,status"
        ));
        for line in csv.lines().skip(1) {
            assert_eq!(line.matches(',').count(), 31, "column count in {line}");
            assert!(line.ends_with(",ok"), "clean cells report ok: {line}");
            // Telemetry off: the event-count column stays zero, and a
            // single-seed run leaves the CI columns empty.
            assert!(line.ends_with(",0,,,,,ok"), "telemetry-off count in {line}");
        }
        assert!(json.contains("\"telemetry_events\": 0"));
        // A hostile scenario name must not break either format.
        let mut evil = s.clone();
        evil.name = "a\"b,c\nd".to_owned();
        let run = evil.run();
        assert!(run.to_json().contains("\"scenario\": \"a_b_c_d\""));
        for line in run.to_csv().lines().skip(1) {
            assert_eq!(line.matches(',').count(), 31, "column count in {line}");
        }
    }

    #[test]
    fn degraded_run_emits_failed_rows_and_manifest() {
        // Hand-build a degraded run (no fault plan needed): one succeeded
        // cell, one failed.
        let mut s = Scenario::new("t", tiny_budget());
        s.benchmarks = vec![Benchmark::Micro];
        let mut run = s.run_with_jobs(1);
        assert!(!run.is_degraded());
        let lost = run.cells.pop().unwrap();
        let lost_result = run.results.pop().unwrap();
        run.failed.push(FailedCell {
            cell: lost,
            cause: FailCause::Timeout("exceeded \"budget\"".to_owned()),
            attempts: 3,
        });
        assert!(run.is_degraded());
        assert_eq!(run.attempted(), run.cells.len() + 1);

        let csv = run.to_csv();
        let last = csv.lines().last().unwrap();
        assert!(last.ends_with(",failed:timeout"), "got: {last}");
        assert_eq!(last.matches(',').count(), 31, "column count in {last}");
        assert_eq!(
            csv.lines().filter(|l| l.ends_with(",ok")).count(),
            run.cells.len()
        );

        let json = run.to_json();
        assert!(json.contains("\"failed_count\": 1"));
        assert!(json.contains(&format!(
            "\"label\": \"{}\", \"cause\": \"timeout\", \"attempts\": 3",
            lost.label()
        )));
        // The free-form panic message is sanitized for the hand-built JSON.
        assert!(json.contains("\"detail\": \"exceeded _budget_\""));

        // Invariants still check the succeeded cells.
        run.check_invariants().unwrap();
        let _ = lost_result;
    }

    #[test]
    fn seed_axis_must_be_sorted_and_unique() {
        let mut s = Scenario::new("t", tiny_budget());
        s.benchmarks = vec![Benchmark::Micro];
        s.seeds = vec![1, 2, 2];
        let err = s.validate().unwrap_err();
        assert!(err.contains("duplicate seed 2"), "got: {err}");
        s.seeds = vec![2, 1];
        let err = s.validate().unwrap_err();
        assert!(err.contains("not sorted"), "got: {err}");
        s.seeds = vec![1, 2, 3];
        s.validate().unwrap();
    }

    #[test]
    fn a_repeated_axis_entry_is_rejected_on_every_axis() {
        let mut base = Scenario::new("t", tiny_budget());
        base.benchmarks = vec![Benchmark::Micro];
        base.validate().unwrap();
        type Repeat = fn(&mut Scenario);
        let repeats: [(&str, Repeat); 8] = [
            ("benchmark micro", |s| s.benchmarks.push(Benchmark::Micro)),
            ("machine flywheel", |s| s.machines.push(Machine::Flywheel)),
            ("node 130nm", |s| s.nodes.push(TechNode::N130)),
            ("clock 0:0", |s| s.clocks.push((0, 0))),
            ("window 128:128", |s| s.windows.push((128, 128))),
            ("ec_kb 128", |s| s.ec_kb.push(128)),
            ("mem_cycles 100", |s| s.mem_cycles.push(100)),
            ("seed 2005", |s| s.seeds.push(EXPERIMENT_SEED)),
        ];
        for (what, repeat) in repeats {
            let mut s = base.clone();
            repeat(&mut s);
            let err = s.validate().unwrap_err();
            let axis = what.split(' ').next().unwrap();
            assert!(
                err.contains(&format!("duplicate {what} in the {axis} axis")),
                "got: {err}"
            );
        }
    }

    #[test]
    fn multi_seed_runs_aggregate_per_configuration_point() {
        let mut s = Scenario::new("multiseed", tiny_budget());
        s.benchmarks = vec![Benchmark::Micro];
        s.seeds = vec![1, 2, 3];
        let run = s.run_with_jobs(1);
        run.check_invariants().unwrap();
        let aggs = run.seed_aggregates();
        assert_eq!(aggs.len(), 2, "one point per machine");
        for a in &aggs {
            assert_eq!((a.n, a.expected_n), (3, 3));
            assert!(!a.is_reduced());
            assert_eq!(a.ipc.n(), 3);
            assert!(a.ipc.ci95_halfwidth() >= 0.0);
        }
        // The aggregate is exactly the fold of the per-seed cell results.
        let mut by_hand = Aggregate::new();
        for (cell, r) in run.cells.iter().zip(&run.results) {
            if cell.machine == Machine::Baseline {
                by_hand.add(r.sim.ipc());
            }
        }
        let base = aggs
            .iter()
            .find(|a| a.cell.machine == Machine::Baseline)
            .unwrap();
        assert_eq!(base.ipc, by_hand);
        assert!(base.ec_residency.is_none());
        let fly = aggs
            .iter()
            .find(|a| a.cell.machine == Machine::Flywheel)
            .unwrap();
        assert_eq!(fly.ec_residency.as_ref().unwrap().n(), 3);

        // CSV: one aggregate row per point, CI columns filled, n marker set.
        let csv = run.to_csv();
        let agg_rows: Vec<&str> = csv.lines().filter(|l| l.contains(",agg,")).collect();
        assert_eq!(agg_rows.len(), 2);
        for line in &agg_rows {
            assert_eq!(line.matches(',').count(), 31, "column count in {line}");
            assert!(line.ends_with(",aggregate:n=3/3"), "got: {line}");
        }
        // JSON: the seed axis and one aggregate object per point.
        let json = run.to_json();
        assert!(json.contains("\"seeds\": [1, 2, 3]"));
        assert_eq!(json.matches("\"expected_n\": 3").count(), 2);
        assert_eq!(json.matches("\"reduced\": false").count(), 2);
        assert!(json.contains("\"ipc_mean\""));
        assert!(json.contains("\"ec_residency_ci95\""));
    }

    #[test]
    fn reduced_aggregates_exclude_failed_seeds_never_average_them() {
        let mut s = Scenario::new("reduced", tiny_budget());
        s.benchmarks = vec![Benchmark::Micro];
        s.seeds = vec![1, 2, 3];
        let mut run = s.run_with_jobs(1);
        // Fail one baseline seed by hand: the cell moves to the manifest.
        let idx = run
            .cells
            .iter()
            .position(|c| c.machine == Machine::Baseline && c.seed == 3)
            .unwrap();
        let lost = run.cells.remove(idx);
        run.results.remove(idx);
        run.failed.push(FailedCell {
            cell: lost,
            cause: FailCause::Panic("injected".to_owned()),
            attempts: 3,
        });
        run.check_invariants().unwrap();

        let aggs = run.seed_aggregates();
        let base = aggs
            .iter()
            .find(|a| a.cell.machine == Machine::Baseline)
            .unwrap();
        assert_eq!((base.n, base.expected_n), (2, 3));
        assert!(base.is_reduced());
        // The mean is over the two surviving seeds only.
        let mut survivors = Aggregate::new();
        for (cell, r) in run.cells.iter().zip(&run.results) {
            if cell.machine == Machine::Baseline {
                survivors.add(r.sim.ipc());
            }
        }
        assert_eq!(base.ipc, survivors);
        // Both emitters flag the reduced sample explicitly.
        assert!(run.to_csv().contains(",aggregate:reduced:n=2/3"));
        let json = run.to_json();
        assert!(json.contains("\"n\": 2, \"expected_n\": 3, \"reduced\": true"));

        // A seed that disappears *without* a manifest entry is a silent drop:
        // the aggregate invariants must reject it.
        run.failed.clear();
        let err = run.check_invariants().unwrap_err();
        assert!(err.contains("failed cells recorded"), "got: {err}");
    }

    #[test]
    fn invariant_checker_rejects_a_corrupted_cell() {
        let mut s = Scenario::new("t", tiny_budget());
        s.benchmarks = vec![Benchmark::Micro];
        let mut run = s.run();
        run.check_invariants().unwrap();
        run.results[0].sim.instructions += 1;
        assert!(run.check_invariants().is_err());
    }
}
