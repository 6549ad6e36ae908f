//! End-to-end `flywheel-telemetry` pipeline: install the process-global sink,
//! simulate cells on both kernels, finish, and read the event log back; then
//! drive the `scenarios` binary (via `CARGO_BIN_EXE_scenarios`) to show that
//! a log holds exactly the events of the cells that produced a result, and
//! that it is a pure function of the grid whatever the worker or shard count.
//!
//! Kept in its own integration-test binary: the telemetry sink is
//! process-global (one log for every thread), so the in-process test must
//! not share a process with tests that simulate cells of their own. The
//! grid tests spawn `scenarios`, which installs its own sink.

use flywheel_bench::executor::{Executor, Machine};
use flywheel_bench::scenario::{Scenario, ScenarioCell};
use flywheel_bench::spec::scenario_to_spec;
use flywheel_bench::store::{self, StoreKey};
use flywheel_bench::telemetry::{
    finish_global_telemetry, install_global_telemetry, telemetry_installed, TelemetryLog,
};
use flywheel_core::FlywheelConfig;
use flywheel_report::telemetry_section;
use flywheel_timing::TechNode;
use flywheel_uarch::telemetry::TelemetryEvent;
use flywheel_uarch::{BaselineConfig, SimBudget};
use flywheel_workloads::Benchmark;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fw-telemetry-e2e-{}-{name}", std::process::id()))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = tmp(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the `scenarios` binary with the whitespace-separated `args` in
/// `dir`, with `FLYWHEEL_JOBS` set to `jobs` when given, and fails the test
/// on a non-zero exit.
fn run_scenarios(dir: &Path, jobs: Option<usize>, args: &str) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_scenarios"));
    cmd.args(args.split_whitespace())
        .current_dir(dir)
        .env("RUST_BACKTRACE", "0");
    if let Some(jobs) = jobs {
        cmd.env("FLYWHEEL_JOBS", jobs.to_string());
    }
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "scenarios {args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The `custom` grid `scenarios` expands from `--benches micro,ptrchase
/// --machines baseline,flywheel --insts <insts>`.
fn custom_grid(insts: u64) -> Scenario {
    let mut s = Scenario::new("custom", SimBudget::new(insts / 10, insts));
    s.benchmarks = vec![Benchmark::Micro, Benchmark::PtrChase];
    s.machines = vec![Machine::Baseline, Machine::Flywheel];
    s
}

/// The paper-point executor of `machine` on the micro benchmark, seed 42.
fn executor(machine: Machine) -> Executor {
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
    .executor()
}

#[test]
fn armed_runs_flush_a_clean_content_addressed_event_log() {
    let budget = SimBudget::new(500, 20_000);
    let bcfg = BaselineConfig::paper(TechNode::N130);
    let fcfg = FlywheelConfig::paper_iso_clock(TechNode::N130);
    let (base, fly) = (executor(Machine::Baseline), executor(Machine::Flywheel));

    // Disarmed process: no sink, kernels must record nothing.
    assert!(!telemetry_installed());
    let disarmed = fly.simulate(budget);

    let path = tmp("log.events");
    install_global_telemetry(&path, 256).expect("sink installs");
    assert!(telemetry_installed());
    assert!(
        install_global_telemetry(&path, 256).is_err(),
        "double install must be rejected"
    );

    let _armed_b = base.simulate(budget);
    let armed_f = fly.simulate(budget);
    // Telemetry is observational only: armed and disarmed runs simulate
    // identical machines.
    assert_eq!(armed_f.sim, disarmed.sim);
    assert_eq!(armed_f.flywheel, disarmed.flywheel);

    let summary = finish_global_telemetry().expect("sink was installed");
    assert!(!telemetry_installed());
    assert!(finish_global_telemetry().is_none(), "already finished");
    assert_eq!(summary.path, path);
    assert!(summary.events > 0, "armed cells must emit events");
    assert_eq!(summary.dropped, 0, "the sink never drops events");

    let log = TelemetryLog::read(&path).expect("log reads back");
    assert!(log.is_clean(), "log must be CRC-clean: {}", log.describe());
    assert_eq!(log.records.len() as u64, summary.events);

    // Content addressing: every record's key is one of the two cells' store
    // keys, paired with that cell's label.
    let bkey = store::family_key(
        "baseline",
        &format!("{bcfg:?}"),
        Benchmark::Micro,
        42,
        budget,
    );
    let fkey = store::family_key(
        "flywheel",
        &format!("{fcfg:?}"),
        Benchmark::Micro,
        42,
        budget,
    );
    let blabel = store::cell_label("baseline", Benchmark::Micro, 42);
    let flabel = store::cell_label("flywheel", Benchmark::Micro, 42);
    let mut baseline_events = 0u64;
    let mut flywheel_events = 0u64;
    for r in &log.records {
        if r.key == bkey {
            assert_eq!(r.label, blabel);
            baseline_events += 1;
        } else if r.key == fkey {
            assert_eq!(r.label, flabel);
            flywheel_events += 1;
        } else {
            panic!("record with unknown key {}: {:?}", r.key.hex(), r);
        }
    }
    assert!(baseline_events > 0, "baseline cell must sample occupancy");
    assert!(flywheel_events > 0, "flywheel cell must emit events");

    // The flywheel cell reaches Execution-Cache mode on the micro benchmark:
    // its residency timeline must be reconstructible (enters ≥ exits, and at
    // least one front-end gating interval accompanies the visits).
    let enters = log
        .records
        .iter()
        .filter(|r| matches!(r.event, TelemetryEvent::EcEnter { .. }))
        .count();
    let exits = log
        .records
        .iter()
        .filter(|r| matches!(r.event, TelemetryEvent::EcExit { .. }))
        .count();
    let gated = log
        .records
        .iter()
        .filter(|r| matches!(r.event, TelemetryEvent::GatedInterval { .. }))
        .count();
    assert!(enters > 0, "flywheel cell never entered the EC");
    assert!(enters >= exits, "more exits than enters");
    assert!(gated > 0, "EC visits must produce gating intervals");

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn failed_attempts_leave_no_events_in_the_log() {
    let dir = temp_dir("failed-attempts");
    // The ptrchase cells outrun the 15k-cycle cap on every attempt; the
    // micro cells finish well inside it.
    run_scenarios(
        &dir,
        None,
        "custom --benches micro,ptrchase --machines baseline,flywheel --insts 2000 \
         --faults seed=1,max-cycles=15000 --telemetry mix.events --csv mix.csv",
    );
    let grid = custom_grid(2_000);
    let keys: HashMap<(String, String), StoreKey> = grid
        .expand()
        .iter()
        .map(|c| {
            let coords = (c.bench.to_string(), c.machine.to_string());
            (coords, c.key(grid.budget))
        })
        .collect();

    // Each succeeded cell's `telemetry_events` column, by store key.
    let csv = std::fs::read_to_string(dir.join("mix.csv")).unwrap();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name).unwrap();
    let mut expected: BTreeMap<StoreKey, u64> = BTreeMap::new();
    let mut failed = 0;
    for row in lines {
        let f: Vec<&str> = row.split(',').collect();
        let key = keys[&(f[col("bench")].to_owned(), f[col("machine")].to_owned())];
        if f[col("status")] == "ok" {
            expected.insert(key, f[col("telemetry_events")].parse().unwrap());
        } else {
            failed += 1;
        }
    }
    assert_eq!(failed, 2, "both ptrchase cells must fail every attempt");
    assert_eq!(expected.len(), 2);

    // The log holds exactly the succeeded cells' events: nothing from the
    // six failed attempts, and each cell's count matches its column.
    let log = TelemetryLog::read(&dir.join("mix.events")).unwrap();
    assert!(log.is_clean(), "{}", log.describe());
    let mut logged: BTreeMap<StoreKey, u64> = BTreeMap::new();
    for r in &log.records {
        *logged.entry(r.key).or_default() += 1;
    }
    assert_eq!(logged, expected);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Asserts that every cell's records form one contiguous block of `log`.
fn assert_cell_blocks_contiguous(log: &TelemetryLog, what: &str) {
    let mut blocks: Vec<StoreKey> = log.records.iter().map(|r| r.key).collect();
    blocks.dedup();
    let cells: HashSet<StoreKey> = blocks.iter().copied().collect();
    assert_eq!(
        blocks.len(),
        cells.len(),
        "{what}: a cell is split into more than one block"
    );
}

/// Each cell's event sequence, by (label, key).
fn events_by_cell(log: &TelemetryLog) -> BTreeMap<(String, StoreKey), Vec<TelemetryEvent>> {
    let mut cells: BTreeMap<(String, StoreKey), Vec<TelemetryEvent>> = BTreeMap::new();
    for r in &log.records {
        cells
            .entry((r.label.clone(), r.key))
            .or_default()
            .push(r.event);
    }
    cells
}

#[test]
fn event_logs_are_a_pure_function_of_the_grid() {
    let dir = temp_dir("determinism");
    let mut grid = custom_grid(20_000);
    grid.mem_cycles = vec![100, 300];
    let run = |jobs: usize, log: &str| {
        let args = format!(
            "custom --benches micro,ptrchase --machines baseline,flywheel --mem 100,300 \
             --insts 20000 --telemetry {log}"
        );
        run_scenarios(&dir, Some(jobs), &args);
    };
    run(1, "lone-a.events");
    run(1, "lone-b.events");
    run(4, "wide.events");
    let spec = scenario_to_spec(&grid).unwrap();
    run_scenarios(
        &dir,
        None,
        &format!("sweep --spec {spec} --store sweep.store --shards 3 --telemetry sweep.events"),
    );

    let read = |name: &str| TelemetryLog::read(&dir.join(name)).unwrap();
    let lone_bytes = std::fs::read(dir.join("lone-a.events")).unwrap();
    assert_eq!(
        lone_bytes,
        std::fs::read(dir.join("lone-b.events")).unwrap(),
        "two one-worker runs must write byte-identical logs"
    );
    let reference = read("lone-a.events");
    assert!(reference.is_clean(), "{}", reference.describe());
    let cells = events_by_cell(&reference);
    assert_eq!(cells.len(), grid.cell_count(), "every cell logs events");
    let section = telemetry_section(&reference);
    for name in [
        "lone-a.events",
        "lone-b.events",
        "wide.events",
        "sweep.events",
    ] {
        let log = read(name);
        assert!(log.is_clean(), "{name}: {}", log.describe());
        assert_cell_blocks_contiguous(&log, name);
        assert!(
            events_by_cell(&log) == cells,
            "{name}: per-cell events differ"
        );
        assert_eq!(telemetry_section(&log), section, "{name}");
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
