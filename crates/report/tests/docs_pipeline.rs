//! End-to-end tests of the self-regenerating docs pipeline: populate a store,
//! render the documents, verify the `--check` logic accepts faithful docs and
//! catches tampered ones, and prove the committed store holds every cell the
//! published tables read.

use flywheel_bench::scenario::Scenario;
use flywheel_bench::store::ResultStore;
use flywheel_bench::{experiment_budget, format_table, shared_trace, Row, EXPERIMENT_SEED};
use flywheel_core::{FlywheelConfig, FlywheelSim};
use flywheel_report::{
    all_figure_tables, check_block, diff_texts, experiments_block, patch_block, populate,
    report_grids, results_markdown, sensitivity_seeds, Source, BLOCK_BEGIN, BLOCK_END,
};
use flywheel_timing::TechNode;
use flywheel_uarch::{BaselineConfig, BaselineSim, SimBudget};
use flywheel_workloads::Benchmark;

fn tiny_budget() -> SimBudget {
    SimBudget::new(150, 600)
}

#[test]
fn pipeline_regenerates_checks_and_catches_tampering() {
    let budget = tiny_budget();
    let mut store = ResultStore::in_memory();

    // Cold populate simulates every figure cell; a second populate is free.
    let first = populate(&mut store, budget).unwrap();
    assert!(first.simulated > 0);
    let second = populate(&mut store, budget).unwrap();
    assert_eq!(second.simulated, 0, "populate must be incremental");
    assert_eq!(second.hits, first.hits + first.simulated);

    // Regeneration is deterministic: two renders are byte-identical.
    let mut src = Source::read_only(&mut store);
    let results = results_markdown(&mut src, budget).unwrap();
    let block = experiments_block(&mut src, budget).unwrap();
    let mut src = Source::read_only(&mut store);
    assert_eq!(results, results_markdown(&mut src, budget).unwrap());

    // A faithful document passes the check.
    let doc =
        format!("# Experiments\n\nprose\n\n{BLOCK_BEGIN}\nstale\n{BLOCK_END}\n\nmore prose\n");
    let published = patch_block(&doc, &block).unwrap();
    check_block(&published, &block, "EXPERIMENTS.md").unwrap();
    diff_texts(&results, &results, "RESULTS.md").unwrap();

    // Tamper with one digit inside a figure table: the check must fail and
    // point at the divergence.
    let digit = published
        .char_indices()
        .skip(published.find("== Figure 11").unwrap())
        .find(|(_, c)| c.is_ascii_digit())
        .map(|(i, _)| i)
        .unwrap();
    let mut tampered = published.clone();
    let old = tampered.remove(digit);
    tampered.insert(digit, if old == '9' { '8' } else { '9' });
    let err = check_block(&tampered, &block, "EXPERIMENTS.md").unwrap_err();
    assert!(err.contains("out of sync"), "got: {err}");

    // Deleting a marker is reported as such, not as a silent pass.
    let headless = published.replace(BLOCK_END, "");
    assert!(check_block(&headless, &block, "EXPERIMENTS.md").is_err());

    // Tampering RESULTS.md is caught by the same diff.
    let tampered_results = results.replacen("average", "avg", 1);
    assert!(diff_texts(&tampered_results, &results, "RESULTS.md").is_err());
}

#[test]
fn store_backed_tables_match_the_simulation_path_byte_for_byte() {
    // Render Figure 11 and the EC-residency study from stored records and
    // recompute them from direct kernel runs, through the same shared
    // format_table; the bytes must agree.
    let budget = tiny_budget();
    let mut store = ResultStore::in_memory();
    populate(&mut store, budget).unwrap();
    let mut src = Source::read_only(&mut store);
    let fig11 = src.run(&Scenario::fig11(budget)).unwrap();
    let residency = src.run(&Scenario::ec_residency(budget)).unwrap();
    assert_eq!(src.summary().simulated, 0, "read-only sources only recall");

    let node = TechNode::N130;
    let (mut rows, mut res_rows) = (Vec::new(), Vec::new());
    for &bench in Benchmark::paper_suite() {
        let trace = shared_trace(bench, EXPERIMENT_SEED, budget);
        let base = BaselineSim::new(BaselineConfig::paper(node), trace.cursor()).run(budget);
        let fly = |cfg| FlywheelSim::new(cfg, trace.cursor()).run(budget);
        let regalloc = fly(FlywheelConfig::register_allocation_only(node));
        let flywheel = fly(FlywheelConfig::paper_iso_clock(node));
        let row = |values| Row {
            bench: bench.name(),
            values,
        };
        rows.push(row(vec![
            regalloc.speedup_over(&base),
            flywheel.speedup_over(&base),
        ]));
        let f = flywheel.flywheel;
        res_rows.push(row(vec![f.ec_residency, f.ec_hit_rate()]));
    }
    let columns = |names: [&str; 2]| names.map(str::to_owned);
    let expected = format_table(
        "Figure 11: performance at the baseline clock, normalized to the baseline",
        &columns(["reg-alloc", "flywheel"]),
        &rows,
    );
    assert_eq!(fig11.fig11_table().unwrap(), expected);
    let expected = format_table(
        "Execution-path residency (paper reports an 88% average; vortex the lowest)",
        &columns(["residency", "ec hit rate"]),
        &res_rows,
    );
    assert_eq!(residency.ec_residency_table().unwrap(), expected);
}

#[test]
fn committed_store_holds_every_cell_the_report_reads() {
    // Keys only, nothing simulated: every grid `report --check` runs must be
    // fully recallable from the committed store.
    let budget = experiment_budget();
    let grids = report_grids(budget);
    let shape: Vec<(&str, &[u64])> = grids
        .iter()
        .map(|s| (s.name.as_str(), s.seeds.as_slice()))
        .collect();
    let one: &[u64] = &[flywheel_bench::EXPERIMENT_SEED];
    assert_eq!(
        shape,
        [
            ("fig2", one),
            ("fig11", one),
            ("fig12", one),
            ("fig15", one),
            ("ec_residency", one),
            ("fig11", sensitivity_seeds()),
            ("fig15", sensitivity_seeds()),
        ]
    );
    let store = ResultStore::open(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results.store"))
        .expect("committed store opens");
    for s in &grids {
        for cell in s.expand() {
            assert!(
                store.contains(&cell.key(s.budget)),
                "committed results.store lacks {} ({} grid)",
                cell.label(),
                s.name
            );
        }
    }
}

#[test]
fn missing_records_name_the_populate_commands() {
    let mut store = ResultStore::in_memory();
    let mut src = Source::read_only(&mut store);
    let err = all_figure_tables(&mut src, tiny_budget()).unwrap_err();
    assert!(err.contains("--populate"), "got: {err}");
    assert!(err.contains("--store results.store"), "got: {err}");
}
