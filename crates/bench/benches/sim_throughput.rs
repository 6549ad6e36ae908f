//! Simulator-kernel throughput: how many simulated instructions per wall-clock
//! second each machine model sustains.
//!
//! This is the bench guarding the hot-path optimisations (slab-indexed in-flight
//! table, ready-list wakeup, allocation-free cycle loop): any regression in the
//! per-cycle bookkeeping shows up directly as lower simulated-MIPS here. Each
//! run replays the shared recorded trace directly on the kernel, as the
//! `golden` binary does, so the numbers measure the kernel alone.

use criterion::{criterion_group, criterion_main, Criterion};
use flywheel_bench::{shared_trace, simulated_mips, EXPERIMENT_SEED};
use flywheel_core::{FlywheelConfig, FlywheelSim};
use flywheel_timing::TechNode;
use flywheel_uarch::{BaselineConfig, BaselineSim, SimBudget, SimResult};
use flywheel_workloads::Benchmark;
use std::time::Instant;

fn baseline(bench: Benchmark, budget: SimBudget) -> SimResult {
    let trace = shared_trace(bench, EXPERIMENT_SEED, budget);
    BaselineSim::new(BaselineConfig::paper(TechNode::N130), trace.cursor()).run(budget)
}

fn flywheel(bench: Benchmark, cfg: FlywheelConfig, budget: SimBudget) -> SimResult {
    let trace = shared_trace(bench, EXPERIMENT_SEED, budget);
    FlywheelSim::new(cfg, trace.cursor()).run(budget).sim
}

fn sim_throughput(c: &mut Criterion) {
    let node = TechNode::N130;
    let budget = SimBudget::new(10_000, 200_000);

    // Headline numbers: simulated MIPS for one representative run of each kernel.
    type Runner = Box<dyn Fn() -> u64>;
    let headline: Vec<(&str, Runner)> = vec![
        (
            "baseline/gzip",
            Box::new(move || baseline(Benchmark::Gzip, budget).instructions),
        ),
        (
            "flywheel/gzip",
            Box::new(move || {
                flywheel(
                    Benchmark::Gzip,
                    FlywheelConfig::paper_iso_clock(node),
                    budget,
                )
                .instructions
            }),
        ),
    ];
    for (name, run) in headline {
        // Record the shared trace first, so the timing covers the kernel only.
        let _ = shared_trace(Benchmark::Gzip, EXPERIMENT_SEED, budget);
        let start = Instant::now();
        let measured = run();
        let wall = start.elapsed();
        println!(
            "sim_throughput {name}: {:.2} simulated MIPS ({} simulated instructions, {measured} \
             measured, in {:.3} s)",
            simulated_mips(budget.total(), wall),
            budget.total(),
            wall.as_secs_f64()
        );
    }

    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.bench_function("baseline_gzip_210k", |b| {
        b.iter(|| criterion::black_box(baseline(Benchmark::Gzip, budget)))
    });
    group.bench_function("baseline_equake_210k", |b| {
        b.iter(|| criterion::black_box(baseline(Benchmark::Equake, budget)))
    });
    group.bench_function("flywheel_iso_gzip_210k", |b| {
        b.iter(|| {
            criterion::black_box(flywheel(
                Benchmark::Gzip,
                FlywheelConfig::paper_iso_clock(node),
                budget,
            ))
        })
    });
    group.bench_function("flywheel_fe50_be50_ijpeg_210k", |b| {
        b.iter(|| {
            criterion::black_box(flywheel(
                Benchmark::Ijpeg,
                FlywheelConfig::paper(node, 50, 50),
                budget,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, sim_throughput);
criterion_main!(benches);
