//! Layered host-time benchmark of the Flywheel reproduction.
//!
//! Three workloads, each a closed loop with one client that repeats a *pass*
//! until the run's time is up:
//!
//! * `figures-cold` — the `fig2`, `fig11` and `fig12` presets swept in
//!   sequence into a fresh on-disk store (the cold populate of the paper
//!   figures): long cells, dominated by the kernels; the store's write side.
//! * `stress-armed` — the stress and adversarial benchmarks across five
//!   machine families, clocks and memory latencies at golden's budget, with
//!   telemetry armed, invariants checked and JSON/CSV emitted: short cells,
//!   so per-cell set-up weighs more; the only workload running the
//!   multi-domain and DVFS families, telemetry and the emitters.
//! * `warm-recall` — the edit, re-run, `report --check` loop over a copy of
//!   the committed store: no kernel work; the store's read side, the
//!   executor's keys, the report renderer and the sweep service's warm hit.
//!
//! A plain run measures the end-to-end metrics. A traced run additionally
//! drives the calls that `Scenario::run_with_store_jobs` hides — `expand`,
//! `key`, `get`, `Executor::simulate`, `insert` — from this crate, timing each
//! call into a layer as a [`spans::Span`].

pub mod metrics;
pub mod spans;
pub mod verify;

use flywheel_bench::executor::Machine;
use flywheel_bench::scenario::{CellResult, Scenario, ScenarioRun};
use flywheel_bench::spec::scenario_to_spec;
use flywheel_bench::store::{ResultStore, RunStats, StoreKey};
use flywheel_bench::supervisor::SupervisorConfig;
use flywheel_bench::telemetry::{finish_global_telemetry, install_global_telemetry};
use flywheel_bench::{experiment_budget, parallel_map_jobs, shared_program, shared_trace};
use flywheel_report::{experiments_block, extract_block, sensitivity_seeds, Source};
use flywheel_rng::SimRng;
use flywheel_server::service::{ServeConfig, Submitted, SweepService};
use flywheel_uarch::telemetry::DEFAULT_SAMPLE_INTERVAL;
use flywheel_uarch::SimBudget;
use flywheel_workloads::{Benchmark, RecordedTrace};
use metrics::{median, quantile, Metric};
use spans::Tracer;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use verify::{check_cold_runs, golden_budget, golden_index, References, Verdict};

/// The end-to-end metrics every plain run reports, as `BENCHMARK.json`
/// lists them.
pub const END_TO_END: [&str; 3] = ["pass_ms_p50", "setup_s", "peak_rss_mb"];

/// The kernel layers, one per machine family (the `uarch.baseline` layer
/// also runs the two Figure 2 baseline variants).
const KERNEL_LAYERS: [&str; 5] = [
    "uarch.baseline",
    "uarch.multidomain",
    "core.flywheel",
    "core.regalloc",
    "core.dvfs",
];

/// Set-up is repeated until it has taken [`SETUP_SPAN`], at least
/// [`MIN_SETUP_REPS`] and at most [`MAX_SETUP_REPS`] times, so its median is
/// steady.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 400;
const SETUP_SPAN: Duration = Duration::from_millis(1500);

/// `num / den`, 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold sweep of the paper-figure presets.
    FiguresCold,
    /// Telemetry-armed sweep of the stress grid.
    StressArmed,
    /// Warm recall of the figures, docs block and service hits.
    WarmRecall,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FiguresCold,
        Workload::StressArmed,
        Workload::WarmRecall,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresCold => "figures-cold",
            Workload::StressArmed => "stress-armed",
            Workload::WarmRecall => "warm-recall",
        }
    }

    /// Parses [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the committed artifacts pin for this workload.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::StressArmed => verify::GOLDEN_SEED,
            Workload::FiguresCold | Workload::WarmRecall => flywheel_bench::EXPERIMENT_SEED,
        }
    }
}

/// What one run of a workload executes.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed the run's inputs are made from.
    pub seed: u64,
    /// Sweep worker threads.
    pub jobs: usize,
    /// The grids one pass runs, in order.
    pub scenarios: Vec<Scenario>,
    /// Passes a run makes even when its time is up.
    pub min_passes: usize,
}

impl Plan {
    /// The plan of `workload` with inputs made from `seed`.
    ///
    /// Programs are synthesized at the seeds the committed artifacts pin, so
    /// every cell is checked byte-for-byte against them; `seed` shuffles the
    /// order the grids, and the benchmarks within each grid, run in. The
    /// workload's default seed keeps the presets' own order.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let budget = experiment_budget();
        let pinned = workload.default_seed();
        let (jobs, mut scenarios, min_passes) = match workload {
            Workload::FiguresCold => (
                cores.min(2),
                vec![
                    Scenario::fig2(budget),
                    Scenario::fig11(budget),
                    Scenario::fig12(budget),
                ],
                1,
            ),
            Workload::StressArmed => {
                let mut s = Scenario::stress(golden_budget());
                s.name = "stress-armed".to_owned();
                s.machines = vec![
                    Machine::Baseline,
                    Machine::RegAlloc,
                    Machine::Flywheel,
                    Machine::MultiDomain,
                    Machine::Dvfs,
                ];
                s.windows = vec![(128, 128)];
                s.seeds = vec![pinned];
                (1, vec![s], 1)
            }
            Workload::WarmRecall => {
                let mut fig11 = Scenario::fig11(budget);
                fig11.seeds = sensitivity_seeds().to_vec();
                let scenarios = vec![Scenario::fig2(budget), Scenario::fig12(budget), fig11];
                // p90 keeps at least ten samples beyond it.
                (cores.min(2), scenarios, 100)
            }
        };
        if seed != pinned {
            let mut rng = SimRng::seed_from_u64(seed);
            if workload == Workload::WarmRecall {
                shuffle(&mut scenarios, &mut rng);
            }
            for s in &mut scenarios {
                shuffle(&mut s.benchmarks, &mut rng);
            }
        }
        Plan {
            workload,
            seed,
            jobs,
            scenarios,
            min_passes,
        }
    }

    /// Whether passes arm telemetry, check invariants and emit JSON and CSV.
    fn armed(&self) -> bool {
        self.workload == Workload::StressArmed
    }

    /// Every (benchmark, seed) pair the sweeps simulate, with the largest
    /// budget it is simulated at. Empty for the warm workload, which only
    /// recalls.
    fn traces(&self) -> Vec<(Benchmark, u64, SimBudget)> {
        let mut out: Vec<(Benchmark, u64, SimBudget)> = Vec::new();
        if self.workload == Workload::WarmRecall {
            return out;
        }
        for s in &self.scenarios {
            for &bench in &s.benchmarks {
                for &seed in &s.seeds {
                    match out.iter_mut().find(|(b, sd, _)| *b == bench && *sd == seed) {
                        Some(e) if s.budget.total() > e.2.total() => e.2 = s.budget,
                        Some(_) => {}
                        None => out.push((bench, seed, s.budget)),
                    }
                }
            }
        }
        out
    }
}

/// Fisher-Yates shuffle of `items` driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_usize(0, i + 1));
    }
}

/// How a run is measured.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// How long the passes are repeated for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// A private directory for the run's temp files.
    pub scratch: PathBuf,
}

/// What a run measured and found.
pub struct Outcome {
    /// Outputs checked and failed.
    pub verdict: Verdict,
    /// Every metric the run printed for people.
    pub metrics: Vec<Metric>,
    /// Timed (untraced) passes.
    pub passes: usize,
    /// Set-up repetitions.
    pub setup_reps: usize,
    /// The traced run's spans and counts.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// The metrics of the result line: the end-to-end ones of a plain run;
    /// of a traced run, every per-layer one, each ratio followed by its
    /// numerator and denominator.
    pub fn contract(&self, trace: bool) -> Vec<Metric> {
        if !trace {
            return END_TO_END
                .iter()
                .filter_map(|name| self.metrics.iter().find(|m| m.name == *name))
                .cloned()
                .collect();
        }
        self.metrics
            .iter()
            .filter(|m| {
                !END_TO_END.contains(&m.name.as_str()) && !PEOPLE_ONLY.contains(&m.name.as_str())
            })
            .flat_map(Metric::with_basis)
            .collect()
    }
}

/// Metrics printed for people but kept off the result line: each applies to
/// some workloads only (`sim_mips` to the cold ones, `pass_ms_p90` to the warm
/// one), and `fail_frac` is the result line's `failed`/`attempted`.
const PEOPLE_ONLY: [&str; 3] = ["sim_mips", "pass_ms_p90", "fail_frac"];

/// Runs `plan`, checking its outputs against `refs`.
pub fn run(plan: &Plan, refs: &References, opts: &RunOptions) -> Result<Outcome, String> {
    match plan.workload {
        Workload::WarmRecall => run_warm(plan, refs, opts),
        Workload::FiguresCold | Workload::StressArmed => run_cold(plan, refs, opts),
    }
}

/// Repeats `pass` until `seconds` are used up (a pass is not started when
/// the previous one says it would overrun), at least `min_passes` times.
fn repeat(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let started = Instant::now();
    let mut n = 0;
    loop {
        let this = Instant::now();
        at_stack_offset(n, || pass(n))?;
        n += 1;
        let projected = started.elapsed() + this.elapsed();
        if n >= min_passes && projected.as_secs_f64() > seconds {
            return Ok(n);
        }
    }
}

/// Runs `f` with the stack moved down by a number of frames that cycles
/// with `pass`.
///
/// How fast a pass runs depends on where its stack frames sit within a page,
/// by up to a third on the 2-vCPU x86-64 host the benchmark was tuned on.
/// Cycling the offset over the passes makes the median cover every placement
/// instead of the one a build's frame layout happens to give.
fn at_stack_offset<R>(pass: usize, f: impl FnOnce() -> R) -> R {
    #[inline(never)]
    fn descend<R>(depth: usize, f: &mut dyn FnMut() -> R) -> R {
        let pad = [0u8; 64];
        black_box(&pad);
        let r = if depth == 0 {
            f()
        } else {
            descend(depth - 1, f)
        };
        black_box(&pad);
        r
    }
    let mut f = Some(f);
    descend(pass * 37 % 64, &mut || (f.take().expect("called once"))())
}

/// Set-up timings, one entry per repetition.
#[derive(Debug, Default)]
struct Setup {
    total_s: Vec<f64>,
    synthesize_ms: Vec<f64>,
    record_ns: Vec<f64>,
    recorded_insts: u64,
    arena_bytes: u64,
}

impl Setup {
    fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", median(&self.total_s), "s"),
            Metric::new("workloads.synthesize_ms", median(&self.synthesize_ms), "ms"),
            Metric::new(
                "workloads.record_ns_per_inst",
                median(&self.record_ns) / (self.recorded_insts.max(1) as f64),
                "ns",
            ),
            Metric::new(
                "workloads.arena_kib",
                self.arena_bytes as f64 / 1024.0,
                "KiB",
            ),
        ]
    }

    fn done(&self, started: Instant) -> bool {
        let reps = self.total_s.len();
        reps >= MAX_SETUP_REPS || (reps >= MIN_SETUP_REPS && started.elapsed() >= SETUP_SPAN)
    }
}

/// Synthesizes every program and records every trace the sweeps replay. The
/// first repetition fills the process-wide caches through `shared_program`
/// and `shared_trace`; the others repeat the same work uncached, so the
/// median is taken over equal repetitions.
fn setup_traces(plan: &Plan) -> Setup {
    let pairs = plan.traces();
    let mut setup = Setup::default();
    let started = Instant::now();
    while !setup.done(started) {
        let first = setup.total_s.is_empty();
        let (mut synth, mut record) = (Duration::ZERO, Duration::ZERO);
        let rep = Instant::now();
        for &(bench, seed, budget) in &pairs {
            let t0 = Instant::now();
            let program = if first {
                shared_program(bench, seed)
            } else {
                Arc::new(bench.synthesize(seed))
            };
            let t1 = Instant::now();
            let trace = if first {
                shared_trace(bench, seed, budget)
            } else {
                let len = RecordedTrace::capture_len_for(budget.total());
                Arc::new(RecordedTrace::record(&program, seed, len))
            };
            synth += t1 - t0;
            record += t1.elapsed();
            if first {
                setup.recorded_insts += trace.len() as u64;
                setup.arena_bytes += trace.arena_bytes() as u64;
            }
            black_box(&trace);
        }
        setup.total_s.push(rep.elapsed().as_secs_f64());
        setup.synthesize_ms.push(ms(synth));
        setup.record_ns.push(record.as_nanos() as f64);
    }
    setup
}

fn fresh_store(scratch: &Path) -> Result<PathBuf, String> {
    let path = scratch.join("sweep.store");
    match std::fs::remove_file(&path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", path.display()))
        }
        _ => Ok(path),
    }
}

fn cell_result(r: RunStats) -> CellResult {
    CellResult {
        sim: r.sim,
        flywheel: r.flywheel,
    }
}

fn emit(run: &ScenarioRun, scratch: &Path) -> Result<(), String> {
    for (ext, body) in [("json", run.to_json()), ("csv", run.to_csv())] {
        let path = scratch.join(format!("{}.{ext}", run.scenario.name));
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

fn arm_telemetry(scratch: &Path) -> Result<(), String> {
    install_global_telemetry(&scratch.join("sweep.events"), DEFAULT_SAMPLE_INTERVAL)
}

/// One pass of a cold workload.
struct ColdPass {
    wall: Duration,
    runs: Vec<ScenarioRun>,
    simulated_insts: u64,
}

/// A cold pass as users run it: every grid through `run_with_store_jobs`
/// into a fresh store; when `armed`, with telemetry on.
fn cold_pass(plan: &Plan, scratch: &Path, armed: bool) -> Result<ColdPass, String> {
    let store_path = fresh_store(scratch)?;
    let started = Instant::now();
    let mut store = ResultStore::open(&store_path).map_err(|e| e.to_string())?;
    if armed {
        arm_telemetry(scratch)?;
    }
    let mut runs = Vec::new();
    let mut simulated_insts = 0;
    for s in &plan.scenarios {
        let (run, summary) = s.run_with_store_jobs(&mut store, plan.jobs);
        simulated_insts += summary.simulated as u64 * s.budget.total();
        runs.push(run);
    }
    if plan.armed() {
        for run in &runs {
            // Part of the workload; verification repeats the check per cell
            // to count the failing ones.
            black_box(run.check_invariants()).ok();
            emit(run, scratch)?;
        }
    }
    if armed {
        finish_global_telemetry();
    }
    Ok(ColdPass {
        wall: started.elapsed(),
        runs,
        simulated_insts,
    })
}

/// The kernel layer a machine family's cells run in.
fn kernel_layer(machine: Machine) -> &'static str {
    match machine.name() {
        "multidomain" => "uarch.multidomain",
        "flywheel" => "core.flywheel",
        "regalloc" => "core.regalloc",
        "dvfs" => "core.dvfs",
        _ => "uarch.baseline",
    }
}

fn count_kernel(t: &mut Tracer, layer: &str, budget: SimBudget, r: &RunStats) {
    let mut add = |what: &str, n: u64| t.add(&format!("{layer}.{what}"), n);
    add("insts", budget.total());
    add("be_cycles", r.sim.be_cycles);
    add("committed", r.sim.instructions);
    add("squashed", r.sim.squashed);
    if let Some(f) = &r.flywheel {
        add("ec_lookups", f.ec_lookups);
        add("ec_hits", f.ec_hits);
        add("trace_switches", f.trace_switches);
        add("divergences", f.trace_divergences);
    }
}

/// A cold pass with the calls `run_with_store_jobs` makes driven from here,
/// in its order and with its worker count: `expand`, `key`, `get`, the
/// kernel through `Executor::simulate` (the shared trace's replay, with
/// telemetry armed when installed), then `insert`.
fn cold_pass_traced(plan: &Plan, scratch: &Path, t: &mut Tracer) -> Result<ColdPass, String> {
    let store_path = fresh_store(scratch)?;
    let started = Instant::now();
    let pass = t.open("pass");
    let mut store = t
        .span("store.open", || ResultStore::open(&store_path))
        .map_err(|e| e.to_string())?;
    if plan.armed() {
        arm_telemetry(scratch)?;
    }
    let mut runs = Vec::new();
    let mut simulated_insts = 0;
    for s in &plan.scenarios {
        let budget = s.budget;
        let grid = t.span("scenario.expand", || s.expand());
        let keys: Vec<StoreKey> = grid
            .iter()
            .map(|c| t.span("executor.key", || c.key(budget)))
            .collect();
        let mut slots: Vec<Option<CellResult>> = keys
            .iter()
            .map(|k| {
                let hit = t.span("store.get", || store.get(k).cloned());
                t.add("store.lookups", 1);
                t.add("store.hits", u64::from(hit.is_some()));
                hit.map(cell_result)
            })
            .collect();
        let misses: Vec<usize> = (0..grid.len()).filter(|&i| slots[i].is_none()).collect();
        let origin = t.origin();
        let simulated = parallel_map_jobs(&misses, plan.jobs, |&i| {
            let exec = grid[i].executor();
            let start = origin.elapsed();
            let r = exec.simulate(budget);
            (r, start, origin.elapsed())
        });
        for (&i, (r, start, end)) in misses.iter().zip(simulated) {
            let layer = kernel_layer(grid[i].machine);
            t.record(layer, start.as_nanos() as u64, end.as_nanos() as u64);
            count_kernel(t, layer, budget, &r);
            let label = grid[i].label();
            t.span("store.insert", || store.insert(keys[i], &label, r.clone()))
                .map_err(|e| e.to_string())?;
            slots[i] = Some(cell_result(r));
        }
        simulated_insts += misses.len() as u64 * budget.total();
        runs.push(ScenarioRun {
            scenario: s.clone(),
            cells: grid,
            results: slots.into_iter().flatten().collect(),
            failed: Vec::new(),
        });
    }
    if plan.armed() {
        for run in &runs {
            black_box(t.span("scenario.check_invariants", || run.check_invariants())).ok();
            t.span("scenario.emit", || emit(run, scratch))?;
        }
        if let Some(s) = t.span("telemetry.finish", finish_global_telemetry) {
            t.add("telemetry.events", s.events);
            t.add("telemetry.dropped", s.dropped);
        }
    }
    t.close(pass);
    Ok(ColdPass {
        wall: started.elapsed(),
        runs,
        simulated_insts,
    })
}

fn run_cold(plan: &Plan, refs: &References, opts: &RunOptions) -> Result<Outcome, String> {
    let setup = setup_traces(plan);
    // Each artifact pins cells at one budget: the store the figures', golden
    // the stress grid's. The machine invariants are checked at any budget.
    let at_budget = |b: SimBudget| plan.scenarios.iter().all(|s| s.budget == b);
    let reference = if at_budget(experiment_budget()) {
        Some(refs.open_store_copy(&opts.scratch.join("reference.store"))?)
    } else {
        None
    };
    let index = golden_index(&refs.golden);
    let golden = at_budget(golden_budget()).then_some(&index);
    let mut verdict = Verdict::default();
    let mut tracer = opts.trace.then(Tracer::default);
    let (mut walls, mut mips) = (Vec::new(), Vec::new());
    let (mut traced, mut disarmed) = (Vec::new(), Vec::new());
    let passes = repeat(opts.seconds, plan.min_passes, |n| {
        let p = cold_pass(plan, &opts.scratch, plan.armed())?;
        check_cold_runs(&p.runs, reference.as_ref(), golden, &mut verdict);
        walls.push(ms(p.wall));
        mips.push(p.simulated_insts as f64 / p.wall.as_secs_f64() / 1e6);
        if let Some(t) = tracer.as_mut() {
            t.set_run(n as u64);
            let p = cold_pass_traced(plan, &opts.scratch, t)?;
            check_cold_runs(&p.runs, reference.as_ref(), golden, &mut verdict);
            traced.push(ms(p.wall));
            if plan.armed() {
                let p = cold_pass(plan, &opts.scratch, false)?;
                check_cold_runs(&p.runs, reference.as_ref(), golden, &mut verdict);
                disarmed.push(ms(p.wall));
            }
        }
        Ok(())
    })?;
    let mut metrics = vec![
        Metric::new("sim_mips", median(&mips), "MIPS"),
        Metric::new("pass_ms_p50", median(&walls), "ms"),
    ];
    finish_metrics(&mut metrics, &setup, &verdict);
    if let Some(t) = &tracer {
        metrics.extend(layer_metrics(t, &walls, &traced, &disarmed));
    }
    Ok(Outcome {
        verdict,
        metrics,
        passes,
        setup_reps: setup.total_s.len(),
        tracer,
    })
}

/// Appends the metrics every workload reports after its pass metrics.
fn finish_metrics(metrics: &mut Vec<Metric>, setup: &Setup, verdict: &Verdict) {
    metrics.extend(setup.metrics());
    metrics.push(Metric::new("peak_rss_mb", metrics::peak_rss_mb(), "MB"));
    metrics.push(Metric::ratio(
        "fail_frac",
        "failed/attempted",
        verdict.failed,
        verdict.attempted,
    ));
}

/// The per-layer metrics of a traced run. Times and counts are per traced
/// pass; `untraced`, `traced` and `disarmed` are pass walls in ms.
fn layer_metrics(t: &Tracer, untraced: &[f64], traced: &[f64], disarmed: &[f64]) -> Vec<Metric> {
    let passes = traced.len().max(1) as u64;
    let per_pass = |c: &str| t.counter(c) / passes;
    let mut m = Vec::new();
    for layer in KERNEL_LAYERS {
        let busy = t.busy_ns(layer);
        m.push(Metric::new(
            format!("{layer}.busy_s"),
            busy as f64 / 1e9 / passes as f64,
            "s",
        ));
        let insts = t.counter(&format!("{layer}.insts"));
        m.push(Metric::new(
            format!("{layer}.ns_per_inst"),
            ratio(busy, insts),
            "ns",
        ));
        if matches!(layer, "uarch.baseline" | "core.flywheel") {
            let cycles = t.counter(&format!("{layer}.be_cycles"));
            m.push(Metric::new(
                format!("{layer}.ns_per_be_cycle"),
                ratio(busy, cycles),
                "ns",
            ));
        }
    }
    let squashed = per_pass("uarch.baseline.squashed");
    m.push(Metric::ratio(
        "uarch.baseline.squash_ratio",
        "squashed/(squashed+committed)",
        squashed,
        squashed + per_pass("uarch.baseline.committed"),
    ));
    m.push(Metric::ratio(
        "core.flywheel.ec_hit_rate",
        "ec_hits/ec_lookups",
        per_pass("core.flywheel.ec_hits"),
        per_pass("core.flywheel.ec_lookups"),
    ));
    m.push(Metric::ratio(
        "core.flywheel.divergence_ratio",
        "divergences/trace_switches",
        per_pass("core.flywheel.divergences"),
        per_pass("core.flywheel.trace_switches"),
    ));
    let us = |name: &str| t.mean_ns(name) / 1e3;
    let msec = |name: &str| t.mean_ns(name) / 1e6;
    m.push(Metric::new("executor.key_us", us("executor.key"), "us"));
    m.push(Metric::new(
        "scenario.expand_us",
        us("scenario.expand"),
        "us",
    ));
    m.push(Metric::new(
        "scenario.seed_aggregates_ms",
        msec("scenario.seed_aggregates"),
        "ms",
    ));
    m.push(Metric::new(
        "scenario.check_invariants_ms",
        msec("scenario.check_invariants"),
        "ms",
    ));
    m.push(Metric::new("scenario.emit_ms", msec("scenario.emit"), "ms"));
    m.push(Metric::new("store.open_ms", msec("store.open"), "ms"));
    m.push(Metric::new("store.get_ns", t.mean_ns("store.get"), "ns"));
    m.push(Metric::ratio(
        "store.hit_ratio",
        "hits/lookups",
        per_pass("store.hits"),
        per_pass("store.lookups"),
    ));
    m.push(Metric::new("store.insert_us", us("store.insert"), "us"));
    let events = per_pass("telemetry.events");
    let dropped = per_pass("telemetry.dropped");
    m.push(Metric::new("telemetry.events", events as f64, "count"));
    m.push(Metric::ratio(
        "telemetry.dropped_ratio",
        "dropped/(events+dropped)",
        dropped,
        events + dropped,
    ));
    m.push(Metric::new(
        "telemetry.finish_ms",
        msec("telemetry.finish"),
        "ms",
    ));
    m.push(Metric::ratio_of(
        "telemetry.overhead_ratio",
        "armed/disarmed pass",
        if disarmed.is_empty() {
            0.0
        } else {
            median(untraced)
        },
        median(disarmed),
        "ms",
    ));
    m.push(Metric::new(
        "report.experiments_block_ms",
        msec("report.experiments_block"),
        "ms",
    ));
    m.push(Metric::new(
        "server.warm_submit_ms",
        msec("server.warm_submit"),
        "ms",
    ));
    m.push(Metric::ratio_of(
        "trace_overhead",
        "traced/untraced pass",
        median(traced),
        median(untraced),
        "ms",
    ));
    m
}

/// What a warm pass keeps between passes: the store copy and the service
/// answering from it, and the specs it is sent.
struct WarmState {
    store: PathBuf,
    service: SweepService,
    specs: Vec<String>,
}

/// Copies the committed store, files every cell the warm grids recall under
/// its scenario key, and starts the sweep service over the copy; repeated
/// like the cold set-up, keeping the last copy and service.
fn setup_warm(
    plan: &Plan,
    refs: &References,
    scratch: &Path,
) -> Result<(Setup, WarmState), String> {
    let mut setup = Setup::default();
    let mut state: Option<WarmState> = None;
    let started = Instant::now();
    while !setup.done(started) {
        if let Some(old) = state.take() {
            old.service.shutdown();
            std::fs::remove_file(&old.store)
                .map_err(|e| format!("removing {}: {e}", old.store.display()))?;
        }
        let rep = Instant::now();
        let store = scratch.join("recall.store");
        prepare_recall_store(plan, refs, &store)?;
        let specs = plan
            .scenarios
            .iter()
            .map(|s| scenario_to_spec(s).map_err(|e| e.to_string()))
            .collect::<Result<Vec<String>, String>>()?;
        let service = SweepService::start(ServeConfig {
            store: store.clone(),
            // The warm path answers from the store and spawns no worker; a
            // sweep that is not warm fails fast instead of running one.
            supervisor: SupervisorConfig::new(1, scratch.join("no-worker"), scratch.join("status")),
        });
        setup.total_s.push(rep.elapsed().as_secs_f64());
        state = Some(WarmState {
            store,
            service,
            specs,
        });
    }
    Ok((setup, state.expect("set-up runs at least once")))
}

/// Copies the committed store to `dest` and files the records the
/// `experiments` binary stored under its own keys (see
/// [`verify::experiments_key`]) under the scenario keys as well, which is the
/// state a first scenario sweep of the same grids leaves behind.
fn prepare_recall_store(plan: &Plan, refs: &References, dest: &Path) -> Result<(), String> {
    let mut store = refs.open_store_copy(dest)?;
    for s in &plan.scenarios {
        for cell in s.expand() {
            let key = cell.key(s.budget);
            if store.contains(&key) {
                continue;
            }
            if let Some(r) = store
                .get(&verify::experiments_key(&cell, s.budget))
                .cloned()
            {
                store
                    .insert(key, &cell.label(), r)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(())
}

/// One pass of the warm workload.
struct WarmPass {
    wall: Duration,
    runs: Vec<ScenarioRun>,
    simulated: usize,
    aggregates: Result<(), String>,
    block: Result<String, String>,
    submits: Vec<Result<Submitted, String>>,
}

fn seed_aggregates(runs: &[ScenarioRun]) -> Result<(), String> {
    for run in runs {
        black_box(run.seed_aggregates());
        run.check_aggregate_invariants()?;
    }
    Ok(())
}

/// A warm pass as users run it: open the store, recall every grid through
/// `run_with_store_jobs`, aggregate the seeds, render the EXPERIMENTS.md
/// block, and submit every grid to the service.
fn warm_pass(plan: &Plan, st: &WarmState) -> Result<WarmPass, String> {
    let started = Instant::now();
    let mut store = ResultStore::open(&st.store).map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut simulated = 0;
    for s in &plan.scenarios {
        let (run, summary) = s.run_with_store_jobs(&mut store, plan.jobs);
        simulated += summary.simulated;
        runs.push(run);
    }
    let aggregates = seed_aggregates(&runs);
    let block = experiments_block(&mut Source::read_only(&mut store), experiment_budget());
    let submits = st
        .specs
        .iter()
        .map(|spec| st.service.submit(spec))
        .collect();
    Ok(WarmPass {
        wall: started.elapsed(),
        runs,
        simulated,
        aggregates,
        block,
        submits,
    })
}

/// A warm pass with the recall that `run_with_store_jobs` hides driven from
/// here: `expand`, then `key` and `get` for every cell.
fn warm_pass_traced(plan: &Plan, st: &WarmState, t: &mut Tracer) -> Result<WarmPass, String> {
    let started = Instant::now();
    let pass = t.open("pass");
    let mut store = t
        .span("store.open", || ResultStore::open(&st.store))
        .map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut simulated = 0;
    for s in &plan.scenarios {
        let mut run = ScenarioRun {
            scenario: s.clone(),
            cells: Vec::new(),
            results: Vec::new(),
            failed: Vec::new(),
        };
        for cell in t.span("scenario.expand", || s.expand()) {
            let key = t.span("executor.key", || cell.key(s.budget));
            let hit = t.span("store.get", || store.get(&key).cloned());
            t.add("store.lookups", 1);
            t.add("store.hits", u64::from(hit.is_some()));
            match hit {
                Some(r) => {
                    run.cells.push(cell);
                    run.results.push(cell_result(r));
                }
                // A miss is a cell the untraced pass would have simulated.
                None => simulated += 1,
            }
        }
        runs.push(run);
    }
    let aggregates = t.span("scenario.seed_aggregates", || seed_aggregates(&runs));
    let block = t.span("report.experiments_block", || {
        experiments_block(&mut Source::read_only(&mut store), experiment_budget())
    });
    let submits = st
        .specs
        .iter()
        .map(|spec| t.span("server.warm_submit", || st.service.submit(spec)))
        .collect();
    t.close(pass);
    Ok(WarmPass {
        wall: started.elapsed(),
        runs,
        simulated,
        aggregates,
        block,
        submits,
    })
}

fn check_warm(p: &WarmPass, expected_block: &str) -> Vec<String> {
    verify::check_warm_pass(
        &p.runs,
        p.simulated,
        &p.aggregates,
        &p.block,
        &p.submits,
        expected_block,
    )
}

fn run_warm(plan: &Plan, refs: &References, opts: &RunOptions) -> Result<Outcome, String> {
    let expected = extract_block(&refs.experiments_md)?.to_owned();
    let (setup, state) = setup_warm(plan, refs, &opts.scratch)?;
    let mut verdict = Verdict::default();
    let mut tracer = opts.trace.then(Tracer::default);
    let (mut walls, mut traced) = (Vec::new(), Vec::new());
    let passes = repeat(opts.seconds, plan.min_passes, |n| {
        let p = warm_pass(plan, &state)?;
        verdict.tally(check_warm(&p, &expected));
        walls.push(ms(p.wall));
        if let Some(t) = tracer.as_mut() {
            t.set_run(n as u64);
            let p = warm_pass_traced(plan, &state, t)?;
            verdict.tally(check_warm(&p, &expected));
            traced.push(ms(p.wall));
        }
        Ok(())
    });
    state.service.shutdown();
    let passes = passes?;
    let mut metrics = vec![
        Metric::new("pass_ms_p50", median(&walls), "ms"),
        Metric::new("pass_ms_p90", quantile(&walls, 0.9), "ms"),
    ];
    finish_metrics(&mut metrics, &setup, &verdict);
    if let Some(t) = &tracer {
        metrics.extend(layer_metrics(t, &walls, &traced, &[]));
    }
    Ok(Outcome {
        verdict,
        metrics,
        passes,
        setup_reps: setup.total_s.len(),
        tracer,
    })
}
