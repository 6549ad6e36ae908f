//! # flywheel-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation.
//!
//! Each figure is a [`scenario`] preset — a grid of baseline and Flywheel
//! cells over the paper's benchmark suite — plus one renderer on
//! [`scenario::ScenarioRun`] that reports the normalized quantities the paper
//! plots (relative performance, energy and power). Every cell runs through
//! [`executor::Executor::simulate`] and is memoized in the content-addressed
//! [`store`]. The `scenarios` binary and the `flywheel-report` crate both
//! render through that one path: `scenarios` prints any one table or figure,
//! and `report --populate` fills the published store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod fault;
pub mod scenario;
pub mod search;
pub mod spec;
pub mod stats;
pub mod store;
pub mod supervisor;
pub mod telemetry;

use flywheel_uarch::SimBudget;
use flywheel_workloads::{Benchmark, RecordedTrace, SyntheticProgram};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Seed used for every experiment (results are deterministic).
pub const EXPERIMENT_SEED: u64 = 2005;

/// The clock configurations swept in Figures 12-14: (front-end %, back-end %).
pub const CLOCK_SWEEP: [(u32, u32); 5] = [(0, 50), (25, 50), (50, 50), (75, 50), (100, 50)];

/// Process-wide cache of synthesized programs and recorded traces, keyed by
/// `(benchmark, seed)`. Every sweep cell of every experiment replays the same
/// per-benchmark dynamic stream, so each program is synthesized once and each
/// trace is generated once per process (per budget growth), instead of once per
/// (machine, benchmark, configuration) cell.
#[derive(Default)]
struct WorkloadCache {
    programs: HashMap<(Benchmark, u64), Arc<SyntheticProgram>>,
    traces: HashMap<(Benchmark, u64), Arc<RecordedTrace>>,
}

fn cache() -> &'static Mutex<WorkloadCache> {
    static CACHE: OnceLock<Mutex<WorkloadCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(WorkloadCache::default()))
}

fn locked_program(c: &mut WorkloadCache, bench: Benchmark, seed: u64) -> Arc<SyntheticProgram> {
    c.programs
        .entry((bench, seed))
        .or_insert_with(|| Arc::new(bench.synthesize(seed)))
        .clone()
}

/// The shared synthesized program for `(bench, seed)` (cached per process).
pub fn shared_program(bench: Benchmark, seed: u64) -> Arc<SyntheticProgram> {
    locked_program(
        &mut cache().lock().unwrap_or_else(PoisonError::into_inner),
        bench,
        seed,
    )
}

/// The shared recorded trace for `(bench, seed)`, captured long enough for
/// `budget` (see [`RecordedTrace::capture_len_for`]) and cached per process.
///
/// If a later call asks for a larger budget than the cached capture covers, the
/// trace is re-recorded at the larger bound and replaces the cached one; the
/// longer capture replays the identical stream (bounded captures are prefixes of
/// unbounded generation), so results do not depend on the request order.
pub fn shared_trace(bench: Benchmark, seed: u64, budget: SimBudget) -> Arc<RecordedTrace> {
    let need = RecordedTrace::capture_len_for(budget.total());
    // The cache holds only fully-constructed immutable Arcs, so a thread that
    // panicked mid-cell cannot have left it inconsistent — recover the lock.
    let mut c = cache().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(t) = c.traces.get(&(bench, seed)) {
        if t.len() >= need {
            return t.clone();
        }
    }
    let program = locked_program(&mut c, bench, seed);
    let trace = Arc::new(RecordedTrace::record(&program, seed, need));
    c.traces.insert((bench, seed), trace.clone());
    trace
}

/// One row of a per-benchmark, per-configuration result table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name (paper label).
    pub bench: &'static str,
    /// One value per swept configuration.
    pub values: Vec<f64>,
}

/// Renders a table of rows plus their average row, Figure-style, to a string.
///
/// The single formatting path for figure tables: every figure renderer on
/// [`scenario::ScenarioRun`] formats through it, whether the `scenarios`
/// binary or `flywheel-report` asked for the table.
pub fn format_table(title: &str, columns: &[String], rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = write!(out, "{:<10}", "bench");
    for c in columns {
        let _ = write!(out, " {c:>10}");
    }
    let _ = writeln!(out);
    let mut sums = vec![0.0; columns.len()];
    for row in rows {
        let _ = write!(out, "{:<10}", row.bench);
        for (i, v) in row.values.iter().enumerate() {
            sums[i] += v;
            let _ = write!(out, " {v:>10.3}");
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<10}", "average");
    for s in &sums {
        let _ = write!(out, " {:>10.3}", s / rows.len() as f64);
    }
    let _ = writeln!(out);
    out
}

/// Applies `f` to every item on a pool of scoped worker threads and returns the
/// results in input order.
///
/// Experiment cells — one (benchmark, configuration) simulation each — are
/// deterministic and fully independent, so the figure sweeps scale across
/// cores. Work is handed out through a shared atomic cursor, which balances the
/// load even though cell runtimes differ by benchmark.
///
/// The container has no access to crates.io (no rayon), so this is a small
/// hand-rolled scoped-thread fan-out; `FLYWHEEL_JOBS` caps the worker count
/// (default: all available cores).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_jobs(items, worker_count(), f)
}

/// [`parallel_map`] with an explicit worker count instead of the
/// `FLYWHEEL_JOBS`/core-count default.
///
/// Exposed so the scenario engine (and the parallel-identity tests) can pin
/// the worker count without mutating process-wide environment variables.
pub fn parallel_map_jobs<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let results = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    local.push((i, f(item)));
                }
                results
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(local);
            });
        }
    });
    let mut indexed = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    indexed.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// The number of sweep worker threads [`parallel_map`] uses: the `FLYWHEEL_JOBS`
/// override if set, otherwise all available cores.
pub fn worker_count() -> usize {
    std::env::var("FLYWHEEL_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Simulator throughput in simulated MIPS: how many millions of simulated
/// instructions the kernel retires per second of host wall-clock time.
pub fn simulated_mips(instructions: u64, wall: std::time::Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        instructions as f64 / secs / 1e6
    }
}

/// The budget of every published figure: the default of the `scenarios`
/// figure presets and of the `report` binary unless `--insts` overrides it.
pub fn experiment_budget() -> SimBudget {
    SimBudget::new(50_000, 250_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Machine;
    use crate::scenario::ScenarioCell;
    use flywheel_timing::TechNode;
    use flywheel_uarch::{BaselineConfig, BaselineSim};

    /// Simulates one paper-point cell of `machine` through its executor.
    fn simulate(machine: Machine, fe_pct: u32, budget: SimBudget) -> store::RunStats {
        let cell = ScenarioCell {
            bench: Benchmark::Micro,
            seed: EXPERIMENT_SEED,
            machine,
            node: TechNode::N130,
            fe_pct,
            be_pct: if fe_pct == 0 { 0 } else { 50 },
            iw_entries: 128,
            rob_entries: 128,
            ec_kb: 128,
            mem_cycles: 100,
        };
        cell.executor().simulate(budget)
    }

    #[test]
    fn harness_runs_a_tiny_experiment_end_to_end() {
        let budget = SimBudget::new(1_000, 5_000);
        let base = simulate(Machine::Baseline, 0, budget);
        let fly = simulate(Machine::Flywheel, 0, budget);
        assert_eq!(base.sim.instructions, fly.sim.instructions);
        assert!(fly.sim.speedup_over(&base.sim) > 0.2);
    }

    #[test]
    fn shared_recorded_trace_matches_direct_generation() {
        // The cached RecordedTrace replay must be bit-identical to handing the
        // simulator a live TraceGenerator, and escalating the budget (which
        // re-records a longer capture) must not change earlier results.
        use flywheel_workloads::TraceGenerator;
        let budget = SimBudget::new(1_000, 5_000);
        let program = Benchmark::Micro.synthesize(EXPERIMENT_SEED);
        let direct = BaselineSim::new(
            BaselineConfig::paper(TechNode::N130),
            TraceGenerator::new(&program, EXPERIMENT_SEED),
        )
        .run(budget);
        let cached = simulate(Machine::Baseline, 0, budget);
        assert_eq!(direct, cached.sim);
        // Grow the cached capture, then re-run the small budget.
        let _ = shared_trace(
            Benchmark::Micro,
            EXPERIMENT_SEED,
            SimBudget::new(2_000, 10_000),
        );
        assert_eq!(direct, simulate(Machine::Baseline, 0, budget).sim);
    }

    #[test]
    fn shared_workloads_are_cached() {
        let budget = SimBudget::new(500, 2_000);
        let p1 = shared_program(Benchmark::Micro, EXPERIMENT_SEED);
        let p2 = shared_program(Benchmark::Micro, EXPERIMENT_SEED);
        assert!(Arc::ptr_eq(&p1, &p2), "program must be synthesized once");
        let t1 = shared_trace(Benchmark::Micro, EXPERIMENT_SEED, budget);
        let t2 = shared_trace(Benchmark::Micro, EXPERIMENT_SEED, budget);
        assert!(Arc::ptr_eq(&t1, &t2), "trace must be recorded once");
        assert!(t1.len() >= RecordedTrace::capture_len_for(budget.total()));
    }

    #[test]
    fn parallel_map_matches_serial_map_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let parallel = parallel_map(&items, |&x| x * x + 1);
        assert_eq!(serial, parallel);
        assert!(parallel_map::<u64, u64, _>(&[], |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_sweep_results_match_serial_results() {
        // The sweep cells must be bitwise independent of scheduling: the same
        // simulation run on a worker thread gives the same result as inline.
        let budget = SimBudget::new(1_000, 4_000);
        let cells = [0, 50];
        let parallel = parallel_map(&cells, |&fe| simulate(Machine::Flywheel, fe, budget));
        for (i, &fe) in cells.iter().enumerate() {
            let serial = simulate(Machine::Flywheel, fe, budget);
            assert_eq!(serial, parallel[i], "cell FE{fe} diverged across threads");
        }
    }

    #[test]
    fn simulated_mips_is_sane() {
        let mips = simulated_mips(2_000_000, std::time::Duration::from_secs(1));
        assert!((mips - 2.0).abs() < 1e-9);
        assert_eq!(simulated_mips(1, std::time::Duration::ZERO), 0.0);
    }

    #[test]
    fn clock_sweep_matches_the_paper_axes() {
        assert_eq!(CLOCK_SWEEP.len(), 5);
        assert!(CLOCK_SWEEP.iter().all(|(_, be)| *be == 50));
        assert_eq!(CLOCK_SWEEP[0].0, 0);
        assert_eq!(CLOCK_SWEEP[4].0, 100);
    }
}
