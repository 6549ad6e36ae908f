//! Ablation studies for the design choices called out in DESIGN.md: the Speculative
//! Remapping Table, the Execution Cache block size and the Dual-Clock synchronization
//! latency. Each run replays the shared recorded trace directly on the kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use flywheel_bench::{bench_budget, shared_trace, EXPERIMENT_SEED};
use flywheel_core::{FlywheelConfig, FlywheelResult, FlywheelSim};
use flywheel_timing::TechNode;
use flywheel_uarch::{BaselineConfig, BaselineSim, SimBudget};
use flywheel_workloads::Benchmark;

fn flywheel(bench: Benchmark, cfg: FlywheelConfig, budget: SimBudget) -> FlywheelResult {
    let trace = shared_trace(bench, EXPERIMENT_SEED, budget);
    FlywheelSim::new(cfg, trace.cursor()).run(budget)
}

fn ablations(c: &mut Criterion) {
    let budget = bench_budget();
    let node = TechNode::N130;
    let bench = Benchmark::Gzip;
    let trace = shared_trace(bench, EXPERIMENT_SEED, budget);
    let base = BaselineSim::new(BaselineConfig::paper(node), trace.cursor()).run(budget);

    // Speculative Remapping Table on/off.
    let with_srt = flywheel(bench, FlywheelConfig::paper(node, 50, 50), budget);
    let mut no_srt_cfg = FlywheelConfig::paper(node, 50, 50);
    no_srt_cfg.srt = false;
    let without_srt = flywheel(bench, no_srt_cfg, budget);
    println!(
        "ablation srt {bench}: with {:.3}, without {:.3} (normalized performance)",
        with_srt.speedup_over(&base),
        without_srt.speedup_over(&base)
    );

    // Execution Cache block size sweep (8 in the paper).
    for block in [4u32, 8, 16] {
        let mut cfg = FlywheelConfig::paper(node, 50, 50);
        cfg.ec.block_insts = block;
        let r = flywheel(bench, cfg, budget);
        println!(
            "ablation ec_block {bench}: {block}-instruction blocks -> {:.3} perf, residency {:.2}",
            r.speedup_over(&base),
            r.flywheel.ec_residency
        );
    }

    // Dual-Clock Issue Window synchronization latency.
    for sync in [0u32, 1, 2] {
        let mut cfg = FlywheelConfig::paper(node, 50, 50);
        cfg.base.sync_latency_be_cycles = sync;
        let r = flywheel(bench, cfg, budget);
        println!(
            "ablation sync_latency {bench}: {sync} cycles -> {:.3} perf",
            r.speedup_over(&base)
        );
    }

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.bench_function("flywheel_gzip_short", |b| {
        b.iter(|| {
            criterion::black_box(flywheel(
                Benchmark::Gzip,
                FlywheelConfig::paper(node, 50, 50),
                SimBudget::new(1_000, 5_000),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, ablations);
criterion_main!(benches);
