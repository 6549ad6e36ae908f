//! Pins the exact bytes of the scenario CSV and JSON emitters on a
//! hand-built run: the header, both cell-row shapes, a failed row, a full and
//! a reduced seed aggregate, name sanitising and JSON-safe panic messages.

use flywheel_bench::scenario::{FailCause, FailedCell, Machine, Scenario, ScenarioRun};
use flywheel_bench::store::RunStats;
use flywheel_core::FlywheelStats;
use flywheel_power::EnergyBreakdown;
use flywheel_uarch::{SimBudget, SimResult};
use flywheel_workloads::Benchmark;

/// Made-up statistics that differ by seed and machine.
fn stats(seed: u64, machine: Machine) -> RunStats {
    let fly = machine == Machine::Flywheel;
    let be_cycles = 400 + 100 * seed;
    let sim = SimResult {
        instructions: 1_000,
        be_cycles,
        fe_cycles: if fly { 2 * be_cycles } else { be_cycles },
        elapsed_ps: 1_000 * be_cycles,
        squashed: 7 * seed,
        bpred: Default::default(),
        caches: Default::default(),
        energy: EnergyBreakdown {
            frontend_pj: 100.0 * seed as f64,
            backend_pj: 200.5,
            flywheel_pj: if fly { 30.25 } else { 0.0 },
            clock_pj: 50.0,
            leakage_frontend_pj: 10.0,
            leakage_backend_pj: 20.0,
            leakage_flywheel_pj: if fly { 5.0 } else { 0.0 },
            elapsed_ps: 1_000 * be_cycles,
        },
        gated_frontend_fraction: if fly { 0.625 } else { 0.0 },
    };
    let flywheel = fly.then(|| FlywheelStats {
        ec_residency: 0.75,
        ec_lookups: 8,
        ec_hits: 6,
        ..Default::default()
    });
    RunStats { sim, flywheel }
}

/// Baseline seeds 1 and 2 and Flywheel seed 1 succeeded; Flywheel seed 2
/// failed with a message that needs sanitising.
fn pinned_run() -> ScenarioRun {
    let mut scenario = Scenario::new("pin,\"me\"", SimBudget::new(100, 1_000));
    scenario.benchmarks = vec![Benchmark::Micro];
    scenario.seeds = vec![1, 2];
    let mut cells = scenario.expand();
    let lost = cells.pop().expect("four cells");
    assert_eq!((lost.machine, lost.seed), (Machine::Flywheel, 2));
    let results = cells.iter().map(|c| stats(c.seed, c.machine)).collect();
    let failed = vec![FailedCell {
        cell: lost,
        cause: FailCause::Panic("bad \"cell\"\\".to_owned()),
        attempts: 3,
    }];
    ScenarioRun {
        scenario,
        cells,
        results,
        failed,
    }
}

#[test]
fn csv_bytes_are_pinned() {
    assert_eq!(pinned_run().to_csv(), CSV);
}

#[test]
fn json_bytes_are_pinned() {
    assert_eq!(pinned_run().to_json(), JSON);
}

const CSV: &str = r"scenario,bench,seed,machine,node_nm,fe_pct,be_pct,iw,rob,ec_kb,mem_cycles,instructions,be_cycles,fe_cycles,elapsed_ps,squashed,ipc,total_energy_pj,avg_power_w,leak_frontend_pj,leak_backend_pj,leak_flywheel_pj,leak_fraction,gated_fraction,ec_residency,ec_hit_rate,telemetry_events,ipc_ci95,elapsed_ps_ci95,energy_pj_ci95,power_w_ci95,status
pin__me_,micro,1,baseline,130,0,0,128,128,128,100,1000,500,500,500000,7,2.000000,380.500,0.000761,10.000,20.000,0.000,0.078844,0.000000,,,0,,,,,ok
pin__me_,micro,1,flywheel,130,0,0,128,128,128,100,1000,500,1000,500000,7,2.000000,415.750,0.000831,10.000,20.000,5.000,0.084185,0.625000,0.750000,0.750000,0,,,,,ok
pin__me_,micro,2,baseline,130,0,0,128,128,128,100,1000,600,600,600000,14,1.666667,480.500,0.000801,10.000,20.000,0.000,0.062435,0.000000,,,0,,,,,ok
pin__me_,micro,2,flywheel,130,0,0,128,128,128,100,,,,,,,,,,,,,,,,,,,,,failed:panic
pin__me_,micro,agg,baseline,130,0,0,128,128,128,100,,,,550000.000,,1.833333,430.500,0.000781,,,,,,,,,2.117667,635300.000,635.300,0.000253,aggregate:n=2/2
pin__me_,micro,agg,flywheel,130,0,0,128,128,128,100,,,,500000.000,,2.000000,415.750,0.000831,,,,,,0.750000,,,0.000000,0.000,0.000,0.000000,aggregate:reduced:n=1/2
";

const JSON: &str = r#"{
  "schema": "flywheel-scenarios/3",
  "scenario": "pin__me_",
  "budget": {"warmup_instructions": 100, "measured_instructions": 1000},
  "cell_count": 3,
  "failed_count": 1,
  "seeds": [1, 2],
  "cells": [
    {"bench": "micro", "seed": 1, "machine": "baseline", "node_nm": 130, "fe_pct": 0, "be_pct": 0, "iw": 128, "rob": 128, "ec_kb": 128, "mem_cycles": 100, "instructions": 1000, "be_cycles": 500, "fe_cycles": 500, "elapsed_ps": 500000, "squashed": 7, "ipc": 2.000000, "total_energy_pj": 380.500, "avg_power_w": 0.000761, "leak_frontend_pj": 10.000, "leak_backend_pj": 20.000, "leak_flywheel_pj": 0.000, "leak_fraction": 0.078844, "telemetry_events": 0},
    {"bench": "micro", "seed": 1, "machine": "flywheel", "node_nm": 130, "fe_pct": 0, "be_pct": 0, "iw": 128, "rob": 128, "ec_kb": 128, "mem_cycles": 100, "instructions": 1000, "be_cycles": 500, "fe_cycles": 1000, "elapsed_ps": 500000, "squashed": 7, "ipc": 2.000000, "total_energy_pj": 415.750, "avg_power_w": 0.000831, "leak_frontend_pj": 10.000, "leak_backend_pj": 20.000, "leak_flywheel_pj": 5.000, "leak_fraction": 0.084185, "ec_residency": 0.750000, "ec_hit_rate": 0.750000, "telemetry_events": 0},
    {"bench": "micro", "seed": 2, "machine": "baseline", "node_nm": 130, "fe_pct": 0, "be_pct": 0, "iw": 128, "rob": 128, "ec_kb": 128, "mem_cycles": 100, "instructions": 1000, "be_cycles": 600, "fe_cycles": 600, "elapsed_ps": 600000, "squashed": 14, "ipc": 1.666667, "total_energy_pj": 480.500, "avg_power_w": 0.000801, "leak_frontend_pj": 10.000, "leak_backend_pj": 20.000, "leak_flywheel_pj": 0.000, "leak_fraction": 0.062435, "telemetry_events": 0}
  ],
  "failed_cells": [
    {"label": "flywheel/micro/s2/130nm/FE0+BE0/iw128rob128/ec128K/mem100", "cause": "panic", "attempts": 3, "detail": "bad _cell__"}
  ],
  "seed_aggregates": [
    {"bench": "micro", "machine": "baseline", "node_nm": 130, "fe_pct": 0, "be_pct": 0, "iw": 128, "rob": 128, "ec_kb": 128, "mem_cycles": 100, "n": 2, "expected_n": 2, "reduced": false, "ipc_mean": 1.833333, "ipc_ci95": 2.117667, "elapsed_ps_mean": 550000.000, "elapsed_ps_ci95": 635300.000, "energy_pj_mean": 430.500, "energy_pj_ci95": 635.300, "power_w_mean": 0.000781, "power_w_ci95": 0.000253},
    {"bench": "micro", "machine": "flywheel", "node_nm": 130, "fe_pct": 0, "be_pct": 0, "iw": 128, "rob": 128, "ec_kb": 128, "mem_cycles": 100, "n": 1, "expected_n": 2, "reduced": true, "ipc_mean": 2.000000, "ipc_ci95": 0.000000, "elapsed_ps_mean": 500000.000, "elapsed_ps_ci95": 0.000, "energy_pj_mean": 415.750, "energy_pj_ci95": 0.000, "power_w_mean": 0.000831, "power_w_ci95": 0.000000, "ec_residency_mean": 0.750000, "ec_residency_ci95": 0.000000}
  ]
}
"#;
