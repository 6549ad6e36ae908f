//! Self-tests of the benchmark: every workload runs end to end at a tiny
//! budget, and a tampered store record, golden line or docs block is
//! reported as a failure, so a wrong-answer speed-up cannot pass.
//!
//! Run with `cargo test --release` in this directory; they read the
//! artifacts committed at the repository root.

use flywheel_bench::scenario::Scenario;
use flywheel_perfbench::verify::{golden_budget, References};
use flywheel_perfbench::{run, Outcome, Plan, RunOptions, Workload, END_TO_END};
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Runs share process-wide state (the telemetry sink, the trace cache), so
/// the tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn refs() -> References {
    References::load(&root()).expect("committed artifacts")
}

/// A private scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = root()
        .join(".perfbench-out")
        .join(format!("test-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `plan` once (one pass) and removes its scratch directory.
fn run_once(test: &str, plan: &Plan, refs: &References, trace: bool) -> Outcome {
    let dir = scratch(test);
    let opts = RunOptions {
        seconds: 0.0,
        trace,
        scratch: dir.clone(),
    };
    let outcome = run(plan, refs, &opts).expect("run completes");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    outcome
}

fn shrink(plan: &mut Plan, benches: &[Benchmark], budget: SimBudget) {
    plan.min_passes = 1;
    for s in &mut plan.scenarios {
        s.benchmarks = benches.to_vec();
        s.budget = budget;
    }
}

/// The metric names a `BENCHMARK.json` section lists.
fn listed(section: &str) -> Vec<String> {
    let doc = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = doc
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_owned())
        .collect()
}

fn names(outcome: &Outcome, trace: bool) -> Vec<String> {
    outcome
        .contract(trace)
        .into_iter()
        .map(|m| m.name)
        .collect()
}

#[test]
fn every_workload_runs_end_to_end_at_a_tiny_budget() {
    let _turn = serial();
    let refs = refs();
    let tiny = SimBudget::new(500, 2_000);
    let per_layer = listed("per_layer");
    for workload in Workload::ALL {
        let mut plan = Plan::new(workload, 7);
        if workload == Workload::WarmRecall {
            plan.min_passes = 1;
        } else {
            shrink(&mut plan, &[Benchmark::Gzip, Benchmark::PtrChase], tiny);
        }
        for trace in [false, true] {
            let outcome = run_once(workload.name(), &plan, &refs, trace);
            let v = &outcome.verdict;
            assert!(v.attempted > 0, "{}: nothing checked", workload.name());
            assert_eq!(v.failed, 0, "{}: {:?}", workload.name(), v.failures);
            if trace {
                assert_eq!(names(&outcome, true), per_layer, "{}", workload.name());
            } else {
                assert_eq!(names(&outcome, false), END_TO_END, "{}", workload.name());
            }
        }
    }
    assert_eq!(listed("end_to_end"), END_TO_END);
}

#[test]
fn tampered_store_record_is_a_failure() {
    let _turn = serial();
    let refs = refs();
    let mut plan = Plan::new(Workload::FiguresCold, Workload::FiguresCold.default_seed());
    plan.scenarios.retain(|s| s.name == "fig11"); // baseline, regalloc, flywheel
    shrink(
        &mut plan,
        &[Benchmark::Gzip],
        flywheel_bench::experiment_budget(),
    );
    assert_eq!(
        run_once("store-clean", &plan, &refs, false).verdict.failed,
        0
    );

    // Append a record with one statistic changed under the flywheel cell's
    // key; the latest record wins when the store is reopened.
    let dir = scratch("store-tamper");
    let tampered = dir.join("tampered.store");
    let mut store = refs.open_store_copy(&tampered).expect("store copy");
    let cell = plan.scenarios[0].expand()[2];
    let key = cell.key(plan.scenarios[0].budget);
    let mut record = store.get(&key).expect("committed record").clone();
    record.sim.be_cycles += 1;
    store.insert(key, "tampered", record).expect("append");
    drop(store);
    let bad = References {
        store: tampered,
        ..refs
    };
    let outcome = run_once("store-tampered", &plan, &bad, false);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert_eq!(outcome.verdict.failed, 1, "{:?}", outcome.verdict.failures);
    assert!(outcome.verdict.failures[0].contains("differs from the committed results.store"));
}

#[test]
fn tampered_golden_line_is_a_failure() {
    let _turn = serial();
    let refs = refs();
    let mut plan = Plan::new(Workload::StressArmed, Workload::StressArmed.default_seed());
    shrink(&mut plan, &[Benchmark::PtrChase], golden_budget());
    assert_eq!(
        run_once("golden-clean", &plan, &refs, false).verdict.failed,
        0
    );

    let line = refs
        .golden
        .lines()
        .find(|l| l.starts_with("dvfs/ptrchase/fe50_be50: "))
        .expect("golden line");
    let bad = References {
        golden: refs
            .golden
            .replace(line, &line.replacen("be_cycles: ", "be_cycles: 1", 1)),
        ..References::load(&root()).expect("committed artifacts")
    };
    let outcome = run_once("golden-tampered", &plan, &bad, false);
    assert_eq!(outcome.verdict.failed, 1, "{:?}", outcome.verdict.failures);
    assert!(outcome.verdict.failures[0]
        .contains("differs from golden.txt line dvfs/ptrchase/fe50_be50"));
}

#[test]
fn tampered_docs_block_is_a_failure() {
    let _turn = serial();
    let refs = refs();
    let mut plan = Plan::new(Workload::WarmRecall, Workload::WarmRecall.default_seed());
    plan.min_passes = 1;
    let block = flywheel_report::extract_block(&refs.experiments_md).expect("block");
    let bad = References {
        experiments_md: refs
            .experiments_md
            .replace(block, &block.replacen("gzip ", "gzip!", 1)),
        ..References::load(&root()).expect("committed artifacts")
    };
    let outcome = run_once("docs-tampered", &plan, &bad, false);
    assert_eq!(outcome.verdict.attempted, 1);
    assert_eq!(outcome.verdict.failed, 1);
    assert!(outcome.verdict.failures[0].contains("EXPERIMENTS.md block"));
}

#[test]
fn seeds_reorder_the_grid_but_keep_its_cells() {
    let _turn = serial();
    for workload in Workload::ALL {
        let pinned = Plan::new(workload, workload.default_seed());
        let cells = |p: &Plan| {
            let mut labels: Vec<String> = p
                .scenarios
                .iter()
                .flat_map(Scenario::expand)
                .map(|c| c.label())
                .collect();
            labels.sort();
            labels
        };
        let other = Plan::new(workload, 12345);
        assert_eq!(cells(&pinned), cells(&other), "{}", workload.name());
        assert_ne!(
            format!("{:?}", pinned.scenarios),
            format!("{:?}", other.scenarios),
            "{}: the seed reorders the grid",
            workload.name()
        );
        assert_eq!(
            format!("{:?}", Plan::new(workload, 12345).scenarios),
            format!("{:?}", other.scenarios),
            "the same seed gives the same inputs"
        );
    }
}
