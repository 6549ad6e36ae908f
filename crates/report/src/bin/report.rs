//! Regenerates (or verifies) the repo's published result documents from the
//! content-addressed result store.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p flywheel-report --bin report -- [options]
//!
//! --store PATH        result store to read (default: results.store)
//! --insts N           measured instructions per cell, N/10 warm-up on top
//!                     (at least 1; default: the experiment budget, 250000)
//! --results PATH      RESULTS.md artifact (default: RESULTS.md)
//! --experiments PATH  document carrying the generated figure block
//!                     (default: EXPERIMENTS.md)
//! --scenario-json PATH  scenario run JSON (the `scenarios` binary's `--json`
//!                     output); appends a "Degraded cells" section to
//!                     RESULTS.md surfacing any failed-cell manifest
//! --telemetry-log PATH  flywheel-telemetry/1 event log (written under
//!                     `--telemetry`); appends a "Kernel telemetry" section
//!                     with per-cell EC-residency timelines and occupancy
//!                     sparklines
//! --populate          simulate (and store) any record the figures need that
//!                     the store is missing, instead of failing; this is how
//!                     a fresh store is filled
//! --check             verify the committed documents against the store and
//!                     exit non-zero on any disagreement, writing nothing
//! ```
//!
//! Without `--check`, the binary writes RESULTS.md and rewrites the generated
//! block of EXPERIMENTS.md in place. With `--check` (the CI gate), both files
//! are regenerated in memory and byte-compared against what is committed —
//! the paper tables in the docs therefore provably match `golden.txt`-pinned
//! simulator behaviour.

use flywheel_bench::store::ResultStore;
use flywheel_bench::telemetry::TelemetryLog;
use flywheel_report::{
    check_block, degraded_cells_section, diff_texts, experiments_block, patch_block, populate,
    results_markdown, telemetry_section, Source,
};
use flywheel_uarch::SimBudget;

fn usage() -> ! {
    eprintln!(
        "usage: report [--store PATH] [--insts N] [--results PATH] \
         [--experiments PATH] [--scenario-json PATH] [--telemetry-log PATH] \
         [--populate] [--check]"
    );
    std::process::exit(1);
}

fn fail(msg: &str) -> ! {
    eprintln!("report: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut store_path = "results.store".to_owned();
    let mut results_path = "RESULTS.md".to_owned();
    let mut experiments_path = "EXPERIMENTS.md".to_owned();
    let mut scenario_json_path: Option<String> = None;
    let mut telemetry_log_path: Option<String> = None;
    let mut budget = flywheel_bench::experiment_budget();
    let mut do_populate = false;
    let mut do_check = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::to_owned).unwrap_or_else(|| usage());
        match arg.as_str() {
            "--store" => store_path = value(),
            "--results" => results_path = value(),
            "--experiments" => experiments_path = value(),
            "--scenario-json" => scenario_json_path = Some(value()),
            "--telemetry-log" => telemetry_log_path = Some(value()),
            "--insts" => match value().parse::<u64>() {
                // A zero budget would store and render cells that retired
                // nothing; refuse it before the store is opened.
                Ok(n) if n > 0 => budget = SimBudget::new(n / 10, n),
                _ => usage(),
            },
            "--populate" => do_populate = true,
            "--check" => do_check = true,
            _ => usage(),
        }
    }

    let mut store = ResultStore::open(&store_path)
        .unwrap_or_else(|e| fail(&format!("could not open store {store_path}: {e}")));
    println!("store {store_path}: {} records", store.len());

    if do_populate {
        let summary = populate(&mut store, budget).unwrap_or_else(|e| fail(&e));
        println!(
            "populate: {} cells recalled, {} simulated, {} records total",
            summary.hits,
            summary.simulated,
            store.len()
        );
    }

    let mut src = Source::read_only(&mut store);
    let mut results = results_markdown(&mut src, budget).unwrap_or_else(|e| fail(&e));
    if let Some(path) = &scenario_json_path {
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("could not read {path}: {e}")));
        let section =
            degraded_cells_section(&json).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        results.push_str(&section);
    }
    if let Some(path) = &telemetry_log_path {
        let log = TelemetryLog::read(std::path::Path::new(path)).unwrap_or_else(|e| fail(&e));
        println!("telemetry log {path}: {}", log.describe());
        results.push_str(&telemetry_section(&log));
    }
    let block = experiments_block(&mut src, budget).unwrap_or_else(|e| fail(&e));

    if do_check {
        let mut failures = Vec::new();
        match std::fs::read_to_string(&results_path) {
            Ok(committed) => {
                if let Err(e) = diff_texts(&committed, &results, &results_path) {
                    failures.push(e);
                }
            }
            Err(e) => failures.push(format!("{results_path}: {e}")),
        }
        match std::fs::read_to_string(&experiments_path) {
            Ok(committed) => {
                if let Err(e) = check_block(&committed, &block, &experiments_path) {
                    failures.push(e);
                }
            }
            Err(e) => failures.push(format!("{experiments_path}: {e}")),
        }
        if failures.is_empty() {
            println!("check: {results_path} and {experiments_path} match the store");
        } else {
            for f in &failures {
                eprintln!("report: {f}");
            }
            eprintln!(
                "report: committed docs drifted from the result store; regenerate them with \
                 `cargo run --release -p flywheel-report --bin report`"
            );
            std::process::exit(1);
        }
    } else {
        std::fs::write(&results_path, &results)
            .unwrap_or_else(|e| fail(&format!("could not write {results_path}: {e}")));
        println!("wrote {results_path}");
        let doc = std::fs::read_to_string(&experiments_path)
            .unwrap_or_else(|e| fail(&format!("could not read {experiments_path}: {e}")));
        let patched =
            patch_block(&doc, &block).unwrap_or_else(|e| fail(&format!("{experiments_path}: {e}")));
        if patched != doc {
            std::fs::write(&experiments_path, patched)
                .unwrap_or_else(|e| fail(&format!("could not write {experiments_path}: {e}")));
            println!("updated the generated block of {experiments_path}");
        } else {
            println!("{experiments_path} already up to date");
        }
    }
}
