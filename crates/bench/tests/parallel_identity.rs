//! Parallel sweeps must be byte-identical to serial ones, and recorded-trace
//! cursors must replay identically when restarted mid-grid.
//!
//! The sweep driver hands cells to worker threads through an atomic cursor, so
//! the *assignment* of cells to workers is racy by design — the *results* must
//! not be. These tests pin the worker count explicitly
//! ([`Scenario::run_with_jobs`]) instead of mutating `FLYWHEEL_JOBS`, which
//! would race with other tests in the process.

use flywheel_bench::scenario::{Machine, Scenario};
use flywheel_bench::shared_trace;
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;

fn grid() -> Scenario {
    let mut s = Scenario::new("parallel-identity", SimBudget::new(500, 2_000));
    s.benchmarks = vec![Benchmark::Micro, Benchmark::StoreStorm, Benchmark::PtrChase];
    s.machines = vec![Machine::Baseline, Machine::Flywheel];
    s.clocks = vec![(0, 50), (50, 50)];
    s.windows = vec![(64, 64), (128, 128)];
    s
}

#[test]
fn parallel_grid_is_byte_identical_to_serial() {
    let s = grid();
    let serial = s.run_with_jobs(1);
    for jobs in [2, 4, 8] {
        let parallel = s.run_with_jobs(jobs);
        assert_eq!(serial.cells, parallel.cells, "{jobs} jobs reordered cells");
        assert_eq!(
            serial.results, parallel.results,
            "{jobs} jobs changed results"
        );
        // The emitted artifacts are part of the contract too.
        assert_eq!(serial.to_csv(), parallel.to_csv(), "{jobs} jobs: CSV drift");
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "{jobs} jobs: JSON drift"
        );
    }
}

#[test]
fn trace_cursor_restart_replays_identically_mid_grid() {
    // Run a grid (which populates and exercises the shared trace cache), then
    // re-run single cells from partially consumed, restarted cursors of the
    // same shared traces: the results must match the grid's bit for bit.
    let s = grid();
    let run = s.run();
    let budget = s.budget;
    for (i, cell) in run.cells.iter().enumerate() {
        if i % 3 != 0 {
            continue; // a sample of cells keeps the test fast
        }
        let trace = shared_trace(cell.bench, cell.seed, budget);
        let mut cursor = trace.cursor();
        // Consume an arbitrary prefix, as an interrupted cell would have, then
        // rewind.
        let consumed = (i * 97) % 1_500;
        assert_eq!(cursor.by_ref().take(consumed).count(), consumed);
        cursor.restart();
        // The executor replays the cell's machine directly on the restarted
        // cursor, bypassing every store and cache — any machine, with no
        // machine dispatch here.
        let replayed = cell.executor().replay(cursor, budget);
        assert_eq!(
            replayed.sim,
            run.results[i].sim,
            "cell {} diverged after cursor restart",
            cell.label()
        );
    }
}
