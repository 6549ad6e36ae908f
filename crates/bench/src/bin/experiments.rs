//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p flywheel-bench --bin experiments -- [experiment] [measured-insts] [--store PATH] [--telemetry PATH]
//! ```
//!
//! where `experiment` is one of `table1`, `fig1`, `fig2`, `fig11`, `fig12`, `fig13`,
//! `fig14`, `fig15`, `ec_residency` or `all` (default). The optional second argument
//! overrides the measured instruction count per benchmark.
//!
//! Every simulated figure is a scenario preset run through
//! `Scenario::run_with_store` and rendered by its one renderer on
//! `ScenarioRun` — the same definition the `scenarios` binary and the
//! `report` binary use. Figures 12–14 are three views of one clock-sweep run,
//! so `fig12`, `fig13` and `fig14` each run it once and print all three
//! tables; `fig15` prints its per-node leakage-attribution tables too.
//!
//! With `--store PATH`, results are memoized in a persistent content-addressed
//! store (see `flywheel_bench::store`): cells whose full input — machine
//! configuration, workload, seed, budget, code-version salt — is already
//! stored are recalled instead of simulated, so a warm re-run performs zero
//! simulations and a run after touching one knob only simulates the affected
//! cells. Without it, the entries share an in-memory store, so a baseline
//! cell several figures read is simulated once. The same store feeds the
//! `report` binary (`flywheel-report`), which regenerates RESULTS.md and the
//! EXPERIMENTS.md figure tables from it.
//!
//! The simulation sweeps fan out across all cores (`FLYWHEEL_JOBS` caps the
//! worker count); every cell is an independent deterministic simulation, so the
//! tables are identical to a serial run. After each experiment's tables the
//! binary prints one line with its wall-clock time, simulated instructions and
//! simulated MIPS (recalled cells count zero). That is a single run's reading;
//! `python3 perfbench/run.py` measures the simulator's speed with repeated
//! samples.

use flywheel_bench::scenario::Scenario;
use flywheel_bench::store::{ResultStore, StoreSummary};
use flywheel_bench::{experiment_budget, simulated_mips};
use flywheel_timing::{paper, ModuleFrequencies, StructureLatency, TechNode};
use flywheel_timing::{CacheGeometry, IssueWindowGeometry, RegFileGeometry};
use flywheel_uarch::SimBudget;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [table1|fig1|fig2|fig11|fig12|fig13|fig14|fig15|ec_residency|all] \
         [measured-insts] [--store PATH] [--telemetry PATH]"
    );
    std::process::exit(1);
}

fn main() {
    let mut store_path: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--store" {
            store_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--store needs a path");
                std::process::exit(1);
            }));
        } else if arg == "--telemetry" {
            telemetry_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--telemetry needs a path");
                std::process::exit(1);
            }));
        } else {
            positional.push(arg);
        }
    }
    let (which, budget) = match positional.as_slice() {
        [] => ("all", experiment_budget()),
        [which] => (which.as_str(), experiment_budget()),
        [which, n] => match n.parse::<u64>() {
            Ok(n) => (which.as_str(), SimBudget::new(n / 10, n)),
            Err(_) => usage(),
        },
        _ => usage(),
    };
    let mut store = match &store_path {
        Some(path) => match ResultStore::open(path) {
            Ok(store) => {
                println!("store {path}: {} records", store.len());
                store
            }
            Err(e) => {
                eprintln!("could not open result store {path}: {e}");
                std::process::exit(1);
            }
        },
        None => ResultStore::in_memory(),
    };

    if let Some(path) = &telemetry_path {
        let interval = flywheel_uarch::telemetry::DEFAULT_SAMPLE_INTERVAL;
        if let Err(e) = flywheel_bench::telemetry::install_global_telemetry(
            std::path::Path::new(path),
            interval,
        ) {
            eprintln!("could not install telemetry sink at {path}: {e}");
            std::process::exit(1);
        }
        println!("telemetry armed: event log {path} (sample interval {interval} cycles)");
    }

    let presets: Vec<&'static str> = match which {
        "table1" => {
            table1();
            Vec::new()
        }
        "fig1" => {
            fig1();
            Vec::new()
        }
        "all" => {
            table1();
            fig1();
            Scenario::figure_names().collect()
        }
        // Figures 13 and 14 are views of the Figure 12 run.
        "fig12-14" | "fig13" | "fig14" => vec!["fig12"],
        other => match Scenario::figure_names().find(|&name| name == other) {
            Some(name) => vec![name],
            None => {
                eprintln!("unknown experiment '{other}'");
                std::process::exit(1);
            }
        },
    };

    let mut total = StoreSummary::default();
    for preset in presets {
        // Figures 12-14 share one run, timed as one entry.
        let name = if preset == "fig12" {
            "fig12-14"
        } else {
            preset
        };
        let scenario = Scenario::preset(preset, budget).expect("figure presets are registered");
        let start = Instant::now();
        let (run, summary) = scenario.run_with_store(&mut store);
        let tables = run.figure_tables().unwrap_or_else(|e| {
            eprintln!("{name}: {e}");
            std::process::exit(1);
        });
        print!("{tables}");
        let wall = start.elapsed();
        // Recalled cells count zero, so throughput always describes real
        // simulator work: a fully warm sweep honestly reports 0 instructions
        // and 0 MIPS rather than absurd recall speeds.
        let simulated_instructions = summary.simulated as u64 * budget.total();
        let mips = simulated_mips(simulated_instructions, wall);
        let recalled = simulated_instructions == 0;
        println!(
            "[{name}] {:.2} s wall, {simulated_instructions} simulated instructions, {mips:.2} MIPS{}",
            wall.as_secs_f64(),
            if recalled { " (recalled)" } else { "" }
        );
        total += summary;
    }

    if telemetry_path.is_some() {
        if let Some(summary) = flywheel_bench::telemetry::finish_global_telemetry() {
            println!(
                "telemetry: {} events logged to {}",
                summary.events,
                summary.path.display()
            );
        }
    }

    if let Some(path) = &store_path {
        println!(
            "store {path}: {} recalled, {} simulated, {} records total",
            total.hits,
            total.simulated,
            store.len()
        );
    }
}

/// Table 1: module clock frequencies per technology node, model vs paper.
fn table1() {
    println!("\n== Table 1: module clock frequencies (MHz), modelled vs published ==");
    let published = paper::published_table1();
    let modelled = paper::modeled_table1();
    print!("{:<34}", "module");
    for n in paper::TABLE1_NODES {
        print!(" {:>16}", n.to_string());
    }
    println!();
    for (p, m) in published.iter().zip(&modelled) {
        print!("{:<34}", p.module);
        for i in 0..4 {
            print!(" {:>7.0}/{:<8.0}", m.mhz[i], p.mhz[i]);
        }
        println!();
    }
    println!("(each cell: modelled / published)");
    for n in [TechNode::N180, TechNode::N60] {
        let f = ModuleFrequencies::for_node(n);
        println!(
            "{n}: max front-end speed-up {:.2}x, max back-end speed-up {:.2}x over the Issue Window clock",
            f.max_frontend_speedup(),
            f.max_backend_speedup()
        );
    }
}

/// Figure 1: latency scaling of issue windows, caches and register files.
fn fig1() {
    println!("\n== Figure 1: access latency (ps) across technology nodes ==");
    let structures: Vec<(&str, Box<dyn StructureLatency>)> = vec![
        (
            "IW 128-entry/6-way",
            Box::new(IssueWindowGeometry::new(128, 6)),
        ),
        (
            "IW 64-entry/4-way",
            Box::new(IssueWindowGeometry::new(64, 4)),
        ),
        (
            "Cache 64K/2w/1port",
            Box::new(CacheGeometry::new(64 * 1024, 2, 1, 64)),
        ),
        (
            "Cache 32K/4w/2port",
            Box::new(CacheGeometry::new(32 * 1024, 4, 2, 64)),
        ),
        ("RF 128 entries", Box::new(RegFileGeometry::new(128, 18))),
        ("RF 256 entries", Box::new(RegFileGeometry::new(256, 18))),
    ];
    print!("{:<22}", "structure");
    for n in TechNode::all() {
        print!(" {:>8}", n.to_string());
    }
    println!();
    for (name, s) in &structures {
        print!("{name:<22}");
        for n in TechNode::all() {
            print!(" {:>8.0}", s.latency_ps(*n));
        }
        println!();
    }
}
