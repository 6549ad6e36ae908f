//! End-to-end `flywheel-telemetry` pipeline: install the process-global sink,
//! simulate cells on both kernels, finish, and read the event log back.
//!
//! Kept in its own integration-test binary: the telemetry sink is
//! process-global (one drain thread, one log), so this must not share a
//! process with tests that arm their own sessions or count events.

use flywheel_bench::executor::{CellAxes, Executor, Machine};
use flywheel_bench::store;
use flywheel_bench::telemetry::{
    finish_global_telemetry, install_global_telemetry, telemetry_installed, TelemetryLog,
};
use flywheel_core::FlywheelConfig;
use flywheel_timing::TechNode;
use flywheel_uarch::telemetry::TelemetryEvent;
use flywheel_uarch::{BaselineConfig, SimBudget};
use flywheel_workloads::Benchmark;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fw-telemetry-e2e-{}-{name}", std::process::id()))
}

/// The paper-point executor of `machine` on the micro benchmark, seed 42.
fn executor(machine: Machine) -> Box<dyn Executor> {
    machine.family().builder.build(&CellAxes {
        bench: Benchmark::Micro,
        seed: 42,
        node: TechNode::N130,
        fe_pct: 0,
        be_pct: 0,
        iw_entries: 128,
        rob_entries: 128,
        ec_kb: 128,
        mem_cycles: 100,
    })
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
    assert_eq!(summary.dropped, 0, "nothing should drop at this volume");

    let log = TelemetryLog::read(&path).expect("log reads back");
    assert!(log.is_clean(), "log must be CRC-clean: {}", log.describe());
    assert_eq!(log.records.len() as u64, summary.events);
    assert_eq!(log.dropped, 0);

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
