//! Output verification against the committed artifacts.
//!
//! Simulated statistics are deterministic, so they are compared exactly
//! rather than gated: a host-speed change that moves one shows up as a failed
//! cell. With a seed the artifacts do not pin, the machine invariants are the
//! check.

use flywheel_bench::scenario::{check_cell_invariants, CellResult, ScenarioCell, ScenarioRun};
use flywheel_bench::store::{family_key, ResultStore, RunStats, StoreKey};
use flywheel_core::FlywheelResult;
use flywheel_server::service::Submitted;
use flywheel_timing::TechNode;
use flywheel_uarch::SimBudget;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The seed `golden.txt` is generated at.
pub const GOLDEN_SEED: u64 = 42;

/// The budget `golden.txt` is generated at.
pub fn golden_budget() -> SimBudget {
    SimBudget::new(5_000, 40_000)
}

/// The committed artifacts a run is checked against. They are read into
/// memory (or copied before opening), so a run never writes to them.
pub struct References {
    /// The committed `results.store`.
    pub store: PathBuf,
    /// The committed `golden.txt`.
    pub golden: String,
    /// The committed `EXPERIMENTS.md`.
    pub experiments_md: String,
}

impl References {
    /// Loads the artifacts committed at the repository root `root`.
    pub fn load(root: &Path) -> Result<References, String> {
        let read = |name: &str| {
            std::fs::read_to_string(root.join(name))
                .map_err(|e| format!("reading {}: {e}", root.join(name).display()))
        };
        let store = root.join("results.store");
        if !store.is_file() {
            return Err(format!("{} is missing", store.display()));
        }
        Ok(References {
            store,
            golden: read("golden.txt")?,
            experiments_md: read("EXPERIMENTS.md")?,
        })
    }

    /// Copies the committed store to `dest` and opens the copy.
    pub fn open_store_copy(&self, dest: &Path) -> Result<ResultStore, String> {
        std::fs::copy(&self.store, dest)
            .map_err(|e| format!("copying {}: {e}", self.store.display()))?;
        ResultStore::open(dest).map_err(|e| e.to_string())
    }
}

/// The key the `experiments` binary files `cell` under: the machine kind's
/// name (`baseline` or `flywheel`) with the cell's full configuration. It is
/// [`ScenarioCell::key`] except for the Figure 2 baseline variants and the
/// register-allocation machine, which the executor registry names apart, so
/// the committed store holds those cells under this key only.
pub fn experiments_key(cell: &ScenarioCell, budget: SimBudget) -> StoreKey {
    let kind = if cell.machine.is_baseline() {
        "baseline"
    } else {
        "flywheel"
    };
    let config = cell.executor().config_debug();
    family_key(kind, &config, cell.bench, cell.seed, budget)
}

/// The record `store` holds for `cell`, under its own key or the key the
/// `experiments` binary files it under.
pub fn stored_record<'a>(
    store: &'a ResultStore,
    cell: &ScenarioCell,
    budget: SimBudget,
) -> Option<&'a RunStats> {
    store
        .get(&cell.key(budget))
        .or_else(|| store.get(&experiments_key(cell, budget)))
}

/// `golden.txt` indexed by line label (`machine/bench/config`).
pub fn golden_index(golden: &str) -> HashMap<&str, &str> {
    golden.lines().filter_map(|l| l.split_once(": ")).collect()
}

/// The `golden.txt` label of `cell`, when the cell sits at one of golden's
/// configuration points.
pub fn golden_label(cell: &ScenarioCell) -> Option<String> {
    let paper_point = cell.seed == GOLDEN_SEED
        && cell.node == TechNode::N130
        && (cell.iw_entries, cell.rob_entries) == (128, 128)
        && cell.ec_kb == 128
        && cell.mem_cycles == 100;
    if !paper_point {
        return None;
    }
    let (machine, config) = match (cell.machine.name(), cell.fe_pct, cell.be_pct) {
        ("baseline", 0, 0) => ("baseline", "paper_n130"),
        ("flywheel", 0, 0) => ("flywheel", "iso_clock"),
        ("flywheel", 50, 50) => ("flywheel", "fe50_be50"),
        ("flywheel", 100, 50) => ("flywheel", "fe100_be50"),
        ("regalloc", 0, 0) => ("flywheel", "reg_alloc_only"),
        ("multidomain", 0, 0) => ("multidomain", "paper_n130"),
        ("dvfs", 0, 0) => ("dvfs", "iso_clock"),
        ("dvfs", 50, 50) => ("dvfs", "fe50_be50"),
        _ => return None,
    };
    Some(format!("{machine}/{}/{config}", cell.bench))
}

/// The digest `golden.txt`'s generator prints for a result.
pub fn golden_digest(r: &CellResult) -> String {
    match r.flywheel {
        None => format!("{:?}", r.sim),
        Some(flywheel) => format!(
            "{:?}",
            FlywheelResult {
                sim: r.sim.clone(),
                flywheel
            }
        ),
    }
}

/// What the checks of one or more passes found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Cells (or passes) checked.
    pub attempted: u64,
    /// Cells (or passes) that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Verdict {
    /// Counts one checked item, failed when `problems` is non-empty.
    pub fn tally(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }
}

/// Checks every cell of a cold sweep: no failed cells, the machine
/// invariants, and, where given, equality with the committed store record
/// and with the cell's `golden.txt` line.
pub fn check_cold_runs(
    runs: &[ScenarioRun],
    reference: Option<&ResultStore>,
    golden: Option<&HashMap<&str, &str>>,
    verdict: &mut Verdict,
) {
    for run in runs {
        let budget = run.scenario.budget;
        for f in &run.failed {
            verdict.tally(vec![format!("cell {} failed: {}", f.cell.label(), f.cause)]);
        }
        for (cell, r) in run.cells.iter().zip(&run.results) {
            let mut problems = Vec::new();
            if let Err(e) = check_cell_invariants(cell, budget, r) {
                problems.push(e);
            }
            if let Some(store) = reference {
                match stored_record(store, cell, budget) {
                    Some(rec) if rec.sim == r.sim && rec.flywheel == r.flywheel => {}
                    Some(_) => problems.push(format!(
                        "cell {}: differs from the committed results.store record",
                        cell.label()
                    )),
                    None => problems.push(format!(
                        "cell {}: no committed results.store record",
                        cell.label()
                    )),
                }
            }
            if let (Some(golden), Some(label)) = (golden, golden_label(cell)) {
                match golden.get(label.as_str()) {
                    Some(line) if *line == golden_digest(r) => {}
                    Some(_) => problems.push(format!(
                        "cell {}: differs from golden.txt line {label}",
                        cell.label()
                    )),
                    None => problems.push(format!("golden.txt has no line {label}")),
                }
            }
            verdict.tally(problems);
        }
        if let Err(e) = run.check_aggregate_invariants() {
            verdict.failed += 1;
            verdict.failures.push(e);
        }
    }
}

/// Checks one warm pass: nothing simulated or failed, the seed aggregates
/// hold, the rendered block equals the committed EXPERIMENTS.md block, and
/// the service answered every grid warm.
pub fn check_warm_pass(
    runs: &[ScenarioRun],
    simulated: usize,
    aggregates: &Result<(), String>,
    block: &Result<String, String>,
    submits: &[Result<Submitted, String>],
    expected_block: &str,
) -> Vec<String> {
    let mut problems = Vec::new();
    if simulated != 0 {
        problems.push(format!("{simulated} cells simulated instead of recalled"));
    }
    for run in runs {
        for f in &run.failed {
            problems.push(format!("cell {} failed: {}", f.cell.label(), f.cause));
        }
    }
    if let Err(e) = aggregates {
        problems.push(e.clone());
    }
    match block {
        Ok(b) => {
            if let Err(e) = flywheel_report::diff_texts(b, expected_block, "EXPERIMENTS.md block") {
                problems.push(e);
            }
        }
        Err(e) => problems.push(format!("rendering the EXPERIMENTS.md block: {e}")),
    }
    for (run, submit) in runs.iter().zip(submits) {
        let cells = run.scenario.cell_count();
        match submit {
            Ok(Submitted::Warm { cells: c }) if *c == cells => {}
            other => problems.push(format!(
                "submit of {}: {other:?}, expected Warm {{ cells: {cells} }}",
                run.scenario.name
            )),
        }
    }
    if submits.len() != runs.len() {
        problems.push(format!(
            "{} submits for {} grids",
            submits.len(),
            runs.len()
        ));
    }
    problems
}
