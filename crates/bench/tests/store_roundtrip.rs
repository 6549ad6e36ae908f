//! Integration tests of the content-addressed result store: on-disk
//! round-trips, key stability, and the incremental-sweep guarantee that a
//! warm store performs zero simulations for unchanged cells.

use flywheel_bench::scenario::{Machine, Scenario, ScenarioCell};
use flywheel_bench::store::{ResultStore, StoreKey};
use flywheel_timing::TechNode;
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;
use std::path::PathBuf;

/// A unique throwaway path under the system temp dir (no tempfile crate in
/// the container; the process id plus a per-test tag keeps runs disjoint).
fn temp_store(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("flywheel-{}-{tag}.store", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn tiny_scenario() -> Scenario {
    let mut s = Scenario::new("roundtrip", SimBudget::new(300, 1_200));
    s.benchmarks = vec![Benchmark::Micro, Benchmark::PtrChase];
    s.clocks = vec![(0, 50), (50, 50)];
    s.mem_cycles = vec![100, 300];
    s
}

#[test]
fn warm_store_simulates_zero_cells_and_replays_bit_identically() {
    let path = temp_store("warm");
    let scenario = tiny_scenario();
    let cold_reference = scenario.run();

    let mut store = ResultStore::open(&path).unwrap();
    let (cold, first) = scenario.run_with_store(&mut store);
    assert_eq!(first.hits, 0);
    assert_eq!(first.simulated, scenario.cell_count());
    assert_eq!(
        cold.results, cold_reference.results,
        "store-mediated run must equal the direct run bitwise"
    );
    drop(store);

    // Re-open the store from disk in a "second process" and re-run: every
    // cell must be recalled, none simulated, and the results must round-trip
    // bit-identically (floats are stored as IEEE-754 bit patterns).
    let mut store = ResultStore::open(&path).unwrap();
    assert_eq!(store.len(), scenario.cell_count());
    let (warm, second) = scenario.run_with_store(&mut store);
    assert_eq!(
        second.simulated, 0,
        "warm store must perform zero simulations"
    );
    assert_eq!(second.hits, scenario.cell_count());
    assert_eq!(warm.results, cold_reference.results);
    assert_eq!(warm.to_csv(), cold_reference.to_csv());
    assert_eq!(warm.to_json(), cold_reference.to_json());
    warm.check_invariants().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn touching_one_axis_only_resimulates_the_affected_cells() {
    let path = temp_store("incremental");
    let scenario = tiny_scenario();
    let mut store = ResultStore::open(&path).unwrap();
    let (_, first) = scenario.run_with_store(&mut store);
    assert_eq!(first.simulated, scenario.cell_count());

    // Add one memory latency point: the existing cells stay warm and only the
    // new latency's cells are simulated.
    let mut edited = scenario.clone();
    edited.mem_cycles = vec![100, 300, 200];
    let (run, second) = edited.run_with_store(&mut store);
    let new_cells = edited.cell_count() - scenario.cell_count();
    assert!(new_cells > 0);
    assert_eq!(second.hits, scenario.cell_count());
    assert_eq!(second.simulated, new_cells);
    run.check_invariants().unwrap();

    // Changing the budget changes every key: nothing is reused.
    let mut rebudgeted = scenario.clone();
    rebudgeted.budget = SimBudget::new(300, 1_300);
    let (_, third) = rebudgeted.run_with_store(&mut store);
    assert_eq!(third.hits, 0);
    assert_eq!(third.simulated, rebudgeted.cell_count());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn keys_cover_the_full_cell_input() {
    let budget = SimBudget::new(500, 2_000);
    let cell = ScenarioCell {
        bench: Benchmark::Micro,
        seed: 7,
        machine: Machine::Flywheel,
        node: TechNode::N130,
        fe_pct: 50,
        be_pct: 50,
        iw_entries: 128,
        rob_entries: 128,
        ec_kb: 128,
        mem_cycles: 100,
    };
    let base = cell.key(budget);
    let mutations: Vec<ScenarioCell> = vec![
        ScenarioCell {
            bench: Benchmark::Gzip,
            ..cell
        },
        ScenarioCell { seed: 8, ..cell },
        ScenarioCell {
            machine: Machine::RegAlloc,
            ..cell
        },
        ScenarioCell {
            node: TechNode::N90,
            ..cell
        },
        ScenarioCell { fe_pct: 75, ..cell },
        ScenarioCell {
            iw_entries: 64,
            ..cell
        },
        ScenarioCell { ec_kb: 64, ..cell },
        ScenarioCell {
            mem_cycles: 300,
            ..cell
        },
    ];
    for m in mutations {
        assert_ne!(m.key(budget), base, "key must depend on {m:?}");
    }
    assert_ne!(cell.key(SimBudget::new(500, 2_001)), base);
    assert_ne!(cell.key(SimBudget::new(501, 2_000)), base);
    // Same inputs, fresh derivation: the address is a pure function.
    assert_eq!(cell.key(budget), base);
}

#[test]
fn baseline_and_flywheel_families_never_share_keys() {
    let budget = SimBudget::test();
    let cell = |machine| ScenarioCell {
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
    };
    assert_ne!(
        cell(Machine::Baseline).key(budget),
        cell(Machine::Flywheel).key(budget)
    );
}

#[test]
fn key_derivation_is_stable_across_processes() {
    // The key is a pure function of the canonical input string — no process
    // state (addresses, hash seeds, iteration order) enters it. Pin the hash
    // of a fixed input: if this assertion ever fails, the key function itself
    // changed and every committed store is invalidated (which must be a
    // deliberate, documented decision — see crates/bench/src/store.rs).
    let k = StoreKey::of_input("flywheel-store-stability-probe");
    assert_eq!(k.hex(), "f6a6454aa462e530fac5a831b1b8669c");
}

#[test]
fn read_only_open_has_no_side_effects() {
    // `report --check` opens the store without writing; a missing file must
    // stay missing (no stray header-only store at a wrong path).
    let path = temp_store("readonly");
    let store = ResultStore::open(&path).unwrap();
    assert!(store.is_empty());
    assert!(!path.exists(), "open must not create the backing file");
}

#[test]
fn empty_and_hostile_labels_round_trip_through_disk() {
    use flywheel_bench::store::RunStats;
    let path = temp_store("labels");
    let scenario = tiny_scenario();
    let cell = scenario.expand()[0];
    let sim = cell.run(scenario.budget).sim;
    let mut store = ResultStore::open(&path).unwrap();
    for (i, label) in ["", "a b\tc", "-"].iter().enumerate() {
        let key = StoreKey(1, i as u64);
        store
            .insert(key, label, RunStats::from_baseline(sim.clone()))
            .unwrap();
    }
    let reopened = ResultStore::open(&path).unwrap();
    assert_eq!(reopened.len(), 3, "every label shape must parse back");
    assert_eq!(reopened.get(&StoreKey(1, 0)).unwrap().sim, sim);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn store_rejects_corruption_and_unknown_schemas() {
    let path = temp_store("corrupt");
    std::fs::write(&path, "flywheel-store/999\n").unwrap();
    assert!(ResultStore::open(&path).is_err(), "unknown schema");
    std::fs::write(&path, "flywheel-store/1\ndeadbeef not-a-record B\n").unwrap();
    assert!(ResultStore::open(&path).is_err(), "corrupt record");
    let _ = std::fs::remove_file(&path);
}
