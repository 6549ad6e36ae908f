//! Runs declarative scenario grids: figure presets, stress sweeps, or fully
//! custom axis products.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p flywheel-bench --bin scenarios -- <preset> [options]
//! cargo run --release -p flywheel-bench --bin scenarios -- custom [axes] [options]
//! ```
//!
//! Presets (`Scenario::preset`): the paper figures `fig2`, `fig11`, `fig12`
//! (with Figures 13 and 14), `fig15` (with its leakage-attribution tables) and
//! `ec_residency`, which print their figure tables — the same renderers the
//! `experiments` and `report` binaries use — plus `smoke` (the CI grid),
//! `stress` (the stress-workload family over three config axes), `leakage`
//! (technology node x machine x Execution Cache capacity, the
//! attributed-leakage sweep), `multidomain` (the baseline against the
//! LSQ-in-its-own-clock-domain machine) and `dvfs` (the Flywheel against its
//! governed-clock variant).
//!
//! `scenarios list-machines [--names]` prints the machines: name,
//! power-model kind, which axes each machine sweeps and a one-line summary.
//! `--names` emits bare names, one per line, for shell iteration (CI's
//! per-machine solo grid loops over it).
//!
//! Axes (comma-separated lists; `custom` starts from the paper's single-point
//! defaults):
//!
//! ```text
//! --benches gzip,ptrchase   --machines baseline,flywheel,regalloc
//! --nodes 130,90            --clocks 0:50,50:50      (FE%:BE%)
//! --windows 64:64,128:128   (IW:ROB)                 --ec 64,128  (KiB)
//! --mem 100,300             (baseline cycles)        --seeds 2005,7
//! ```
//!
//! Options: `--insts N` (measured instructions per cell with N/10 warm-up on
//! top, matching the `experiments` binary's budget argument — applies to every
//! preset, including `smoke`), `--check` (assert the machine invariants on
//! every cell), `--json PATH`, `--csv PATH`, `--store PATH` (memoize cells in
//! a persistent content-addressed result store: cells already present are
//! recalled bit-identically instead of simulated, so warm re-runs simulate
//! nothing and edited scenarios only simulate the cells they changed),
//! `--faults SPEC` (install a deterministic fault-injection plan, e.g.
//! `seed=7,panic=2,torn=3` — see `flywheel_bench::fault`), `--telemetry PATH`
//! (arm the kernels' telemetry and append each simulated cell's events, as
//! one block, to a CRC-framed, content-addressed event log at PATH; off by
//! default, and a disarmed run is byte-identical to one built without the
//! flag).
//!
//! A panicking or runaway cell no longer aborts the sweep: it is retried a
//! bounded number of times and, if it keeps failing, reported in a
//! degraded-mode completion summary (and in the JSON/CSV failed-cell
//! manifest) while every other cell's results stand.
//!
//! `scenarios fsck [--store PATH]` verifies a result store and repairs any
//! damage (torn appends, flipped bits, previous-schema files): valid records
//! are kept, damaged lines are quarantined to `<store>.quarantine`, and a
//! one-line summary is printed. A clean store is left byte-untouched.
//!
//! `scenarios fsck-events <path>` verifies a telemetry event log: the schema
//! header and every CRC32 frame are checked and a one-line summary (event and
//! damaged-line counts) is printed; damage exits non-zero.
//!
//! `scenarios merge <A> <B> [--out C]` unions result stores: without `--out`,
//! B's records are appended into A; with it, A then B are merged into C and
//! the inputs are untouched. A same-key/different-stats conflict refuses the
//! merge with a per-key report and a non-zero exit.
//!
//! `scenarios sweep <preset|--spec SPEC> --store PATH [--shards N]` runs the
//! grid as a *supervised multi-process* sweep: N worker processes each sweep
//! a disjoint shard of cells into `<store>.shard-K`, heartbeating to status
//! files; the supervisor restarts crashed or stalled workers with capped
//! exponential backoff (restarted workers re-run only the cells their dead
//! predecessor never landed), then merges the shards into the main store.
//! A shard that exhausts its restart budget degrades the sweep to a
//! failed-cell manifest instead of aborting it. Knobs: `--max-restarts N`,
//! `--backoff-ms N`, `--stall-timeout-ms N`, `--deadline-ms N`,
//! `--status-dir D`, `--faults SPEC` (cell faults run inside workers;
//! `abort=`/`sigkill=`/`hang=` doom whole worker processes).
//!
//! `scenarios search [--objective max|min|both] [--seed S] [--generations G]
//! [--population P] [--children C] [--insts N] [--top K] [--store PATH]` runs
//! the deterministic adversarial workload search (see
//! `flywheel_bench::search`): an evolutionary loop over the stress-family
//! generator knobs that maximizes (`max`) or minimizes (`min`) the
//! Flywheel-vs-baseline speedup, printing the ranked frontier(s) and a
//! `frontier hash:` digest over the combined rendering. The hash is
//! byte-stable for a fixed seed, warm or cold — CI re-runs the search and
//! compares digests. With `--store`, evaluation legs are memoized in the
//! content-addressed result store, so repeated or widened searches only pay
//! for candidates they have not seen.
//!
//! Single-process sweeps fan out across all cores (`FLYWHEEL_JOBS` caps the
//! workers); results are byte-identical for any worker count.

use flywheel_bench::scenario::{Machine, Scenario};
use flywheel_bench::store::{MergeError, ResultStore};
use flywheel_bench::supervisor::{self, SupervisorConfig};
use flywheel_bench::{experiment_budget, fault, search, simulated_mips, spec, worker_count};
use flywheel_timing::TechNode;
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;
use std::time::{Duration, Instant};

fn usage() -> ! {
    let presets: Vec<&str> = Scenario::preset_names().collect();
    eprintln!(
        "usage: scenarios <{}|custom> \
         [--benches a,b] [--machines m,..] [--nodes 130,..] [--clocks FE:BE,..] \
         [--windows IW:ROB,..] [--ec KB,..] [--mem CYC,..] [--seeds S,..] \
         [--insts N] [--check] [--json PATH] [--csv PATH] [--store PATH] \
         [--faults SPEC] [--telemetry PATH]\
         \n       scenarios list-machines [--names]\n       scenarios fsck [--store PATH]\
         \n       scenarios fsck-events <path>\
         \n       scenarios merge <A> <B> [--out C]\
         \n       scenarios sweep <preset|--spec SPEC> [--store PATH] [--shards N] \
         [--insts N] [--max-restarts N] [--backoff-ms N] [--stall-timeout-ms N] \
         [--deadline-ms N] [--status-dir D] [--faults SPEC] [--telemetry PATH]\
         \n       scenarios search [--objective max|min|both] [--seed S] \
         [--generations G] [--population P] [--children C] [--insts N] \
         [--top K] [--store PATH]",
        presets.join("|")
    );
    std::process::exit(1);
}

/// `scenarios list-machines [--names]`: print the machines. The default
/// rendering is a human-readable table; `--names` emits bare machine names
/// one per line so shell loops (notably CI's per-machine solo grid) can
/// iterate them without parsing.
fn list_machines(args: &[String]) -> ! {
    let mut names_only = false;
    for arg in args {
        match arg.as_str() {
            "--names" => names_only = true,
            _ => usage(),
        }
    }
    if names_only {
        for m in Machine::all() {
            println!("{}", m.name());
        }
        std::process::exit(0);
    }
    println!("{} machines:", Machine::all().len());
    for &m in Machine::all() {
        let axes = match (m.uses_clock_axis(), m.uses_ec_axis()) {
            (true, true) => "clock+ec axes",
            (true, false) => "clock axis",
            (false, true) => "ec axis",
            (false, false) => "no swept axes",
        };
        println!(
            "  {:<22} kind={:<8?} {:<14} {}",
            m.name(),
            m.kind(),
            axes,
            m.summary(),
        );
    }
    std::process::exit(0);
}

/// `scenarios merge <A> <B> [--out C]`: union stores, refuse conflicts with a
/// per-key report and exit 2.
fn merge_cmd(args: &[String]) -> ! {
    let mut inputs: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            other if !other.starts_with('-') => inputs.push(other.to_owned()),
            _ => usage(),
        }
    }
    let [a, b] = inputs.as_slice() else { usage() };
    let open = |path: &str| {
        ResultStore::open(path).unwrap_or_else(|e| {
            eprintln!("merge: cannot open {path}: {e}");
            std::process::exit(1);
        })
    };
    // Without --out, B merges into A in place; with it, A then B merge into
    // a (possibly fresh) C and the inputs stay untouched.
    let (mut target, target_path, sources) = match &out {
        None => (open(a), a.clone(), vec![b.clone()]),
        Some(c) => (open(c), c.clone(), vec![a.clone(), b.clone()]),
    };
    for source in &sources {
        match target.merge(&open(source)) {
            Ok(outcome) => println!(
                "merged {source} into {target_path}: {} added, {} identical",
                outcome.added, outcome.identical
            ),
            Err(MergeError::Conflict { conflicts }) => {
                eprintln!(
                    "merge conflict: {} key(s) exist in both {target_path} and {source} \
                     with different stats; nothing was merged:",
                    conflicts.len()
                );
                for c in &conflicts {
                    eprintln!("  {} ('{}')", c.key.hex(), c.label);
                }
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("merge failed: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{target_path}: {} records total", target.len());
    std::process::exit(0);
}

/// `scenarios sweep ...`: run a grid as a supervised multi-process sharded
/// sweep (see the module docs).
fn sweep_cmd(args: &[String]) -> ! {
    let mut spec_arg: Option<String> = None;
    let mut preset: Option<String> = None;
    let mut store_path = "results.store".to_owned();
    let mut shards: Option<usize> = None;
    let mut insts: Option<u64> = None;
    let mut faults_spec: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut status_dir: Option<String> = None;
    let mut max_restarts: Option<u32> = None;
    let mut backoff_ms: Option<u64> = None;
    let mut stall_timeout_ms: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        let num = |value: String| -> u64 { value.parse().unwrap_or_else(|_| usage()) };
        match arg.as_str() {
            "--spec" => spec_arg = Some(value()),
            "--store" => store_path = value(),
            "--shards" => shards = Some(num(value()) as usize),
            "--insts" => insts = Some(num(value())),
            "--faults" => faults_spec = Some(value()),
            "--telemetry" => telemetry_path = Some(value()),
            "--status-dir" => status_dir = Some(value()),
            "--max-restarts" => max_restarts = Some(num(value()) as u32),
            "--backoff-ms" => backoff_ms = Some(num(value())),
            "--stall-timeout-ms" => stall_timeout_ms = Some(num(value())),
            "--deadline-ms" => deadline_ms = Some(num(value())),
            other if !other.starts_with('-') && preset.is_none() => preset = Some(other.to_owned()),
            _ => usage(),
        }
    }
    let spec_text = match (&spec_arg, &preset) {
        (Some(s), None) => s.clone(),
        (None, Some(p)) => format!("preset={p}"),
        _ => usage(),
    };
    let mut scenario = spec::scenario_from_spec(&spec_text).unwrap_or_else(|e| {
        eprintln!("sweep: invalid spec: {e}");
        std::process::exit(1);
    });
    if let Some(n) = insts {
        scenario.budget = SimBudget::new(n / 10, n);
    }

    let faults = match &faults_spec {
        Some(s) => match fault::FaultPlan::parse(s) {
            Ok(plan) => {
                println!("fault injection enabled: {plan:?}");
                Some(plan)
            }
            Err(e) => {
                eprintln!("invalid --faults spec: {e}");
                std::process::exit(1);
            }
        },
        None => None,
    };

    let worker_exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("sweep: cannot determine worker executable: {e}");
        std::process::exit(1);
    });
    let status_dir =
        std::path::PathBuf::from(status_dir.unwrap_or_else(|| format!("{store_path}.status")));
    let shard_count = shards.unwrap_or_else(|| worker_count().clamp(1, 8));
    let mut cfg = SupervisorConfig::new(shard_count, worker_exe, status_dir);
    cfg.faults = faults;
    cfg.telemetry = telemetry_path.as_ref().map(std::path::PathBuf::from);
    if let Some(n) = max_restarts {
        cfg.max_restarts = n;
    }
    if let Some(n) = backoff_ms {
        cfg.backoff = Duration::from_millis(n);
    }
    if let Some(n) = stall_timeout_ms {
        cfg.stall_timeout = Duration::from_millis(n);
    }
    if let Some(n) = deadline_ms {
        cfg.shard_deadline = Duration::from_millis(n);
    }

    println!(
        "supervised sweep '{}': {} cells across {} shard workers into {store_path}",
        scenario.name,
        scenario.cell_count(),
        cfg.shards,
    );
    let start = Instant::now();
    let outcome =
        supervisor::run_supervised(&scenario, std::path::Path::new(&store_path), &cfg, |e| {
            println!("  {}", e.describe())
        })
        .unwrap_or_else(|e| {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        });
    println!(
        "sweep done in {:.2} s: {} cells ({} warm, {} healed from shard stores, {} simulated), \
         {} restart{}",
        start.elapsed().as_secs_f64(),
        outcome.cells,
        outcome.warm_cells,
        outcome.hits,
        outcome.simulated,
        outcome.restarts,
        if outcome.restarts == 1 { "" } else { "s" },
    );
    if let Some(path) = &telemetry_path {
        match flywheel_bench::telemetry::TelemetryLog::read(std::path::Path::new(path)) {
            Ok(log) => println!("telemetry {path}: {}", log.describe()),
            Err(e) => println!("telemetry {path}: {e}"),
        }
    }
    if outcome.is_complete() {
        println!("complete: every cell has a record in {store_path}");
    } else {
        println!(
            "degraded-mode completion: {} of {} cells failed; sweep continued without them",
            outcome.failed_cells.len(),
            outcome.cells
        );
        for shard in &outcome.failed_shards {
            println!("  shard {shard}: restart budget exhausted");
        }
        for f in &outcome.failed_cells {
            println!("  failed cell {} [{}]: {}", f.label, f.kind, f.message);
        }
    }
    std::process::exit(0);
}

/// `scenarios fsck-events <path>`: verify a telemetry event log's schema
/// header and CRC framing, print a one-line summary, exit non-zero on damage.
fn fsck_events(args: &[String]) -> ! {
    let mut path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--log" => path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            other if !other.starts_with('-') => path = Some(other.to_owned()),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    match flywheel_bench::telemetry::TelemetryLog::read(std::path::Path::new(&path)) {
        Ok(log) => {
            println!("fsck-events {path}: {}", log.describe());
            std::process::exit(if log.is_clean() { 0 } else { 2 });
        }
        Err(e) => {
            eprintln!("fsck-events {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `scenarios fsck [--store PATH]`: verify/repair a store, print a summary.
fn fsck(args: &[String]) -> ! {
    let mut store_path = "results.store".to_owned();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => store_path = it.next().cloned().unwrap_or_else(|| usage()),
            other if !other.starts_with('-') => store_path = other.to_owned(),
            _ => usage(),
        }
    }
    match ResultStore::open_recovering(&store_path) {
        Ok((_, report)) => {
            println!("fsck {store_path}: {}", report.describe());
            if report.quarantined_lines > 0 {
                println!("  damaged lines preserved in {store_path}.quarantine");
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("fsck {store_path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `scenarios search ...`: run the deterministic adversarial workload search
/// and print the ranked frontier(s) plus a byte-stable digest.
fn search_cmd(args: &[String]) -> ! {
    let mut objectives = vec![
        search::Objective::MaximizeGap,
        search::Objective::MinimizeGap,
    ];
    let mut cfg = search::SearchConfig::default();
    let mut store_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        let parse_u64 = |s: String| s.parse::<u64>().unwrap_or_else(|_| usage());
        match arg.as_str() {
            "--objective" => {
                objectives = match value().as_str() {
                    "both" => {
                        vec![
                            search::Objective::MaximizeGap,
                            search::Objective::MinimizeGap,
                        ]
                    }
                    name => vec![search::Objective::from_name(name).unwrap_or_else(|| usage())],
                }
            }
            "--seed" => cfg.seed = parse_u64(value()),
            "--generations" => cfg.generations = parse_u64(value()) as u32,
            "--population" => cfg.population = parse_u64(value()).max(1) as usize,
            "--children" => cfg.children_per_parent = parse_u64(value()).max(1) as usize,
            "--insts" => {
                let n = parse_u64(value());
                cfg.budget = SimBudget::new(n / 10, n);
            }
            "--top" => cfg.top = parse_u64(value()).max(1) as usize,
            "--store" => store_path = Some(value()),
            _ => usage(),
        }
    }

    let mut store = match &store_path {
        Some(path) => ResultStore::open(path).unwrap_or_else(|e| {
            eprintln!("could not open result store {path}: {e}");
            std::process::exit(1);
        }),
        None => ResultStore::in_memory(),
    };

    let start = Instant::now();
    let mut rendered = String::new();
    let mut outcomes = Vec::new();
    for objective in &objectives {
        let outcome = search::run_search(*objective, &cfg, &mut store);
        rendered.push_str(&search::render_frontier(&outcome));
        outcomes.push(outcome);
    }
    let simulated: usize = outcomes.iter().map(|o| o.simulated).sum();
    let recalled: usize = outcomes.iter().map(|o| o.recalled).sum();
    print!("{rendered}");
    println!("frontier hash: {}", search::frontier_hash(&rendered));
    // Promotion hints: the full parameter vector of each frontier head, for
    // freezing a discovered extreme into a named benchmark constructor.
    for outcome in &outcomes {
        if let Some(best) = outcome.frontier.first() {
            println!(
                "top {}-gap profile: {:?}",
                outcome.objective.name(),
                best.profile
            );
        }
    }
    println!(
        "search seed {}: {} legs simulated, {} recalled in {:.2} s",
        cfg.seed,
        simulated,
        recalled,
        start.elapsed().as_secs_f64()
    );
    if let Some(path) = &store_path {
        println!("store {path}: {} records total", store.len());
    }
    std::process::exit(0);
}

fn parse_list<T>(arg: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    let items: Vec<T> = arg
        .split(',')
        .filter(|s| !s.is_empty())
        .filter_map(|s| {
            let v = parse(s);
            if v.is_none() {
                eprintln!("unknown {what} '{s}'");
                std::process::exit(1);
            }
            v
        })
        .collect();
    if items.is_empty() {
        eprintln!("empty {what} list '{arg}'");
        std::process::exit(1);
    }
    items
}

fn parse_pair(s: &str) -> Option<(u32, u32)> {
    let (a, b) = s.split_once(':')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

fn parse_node(s: &str) -> Option<TechNode> {
    TechNode::all()
        .iter()
        .copied()
        .find(|n| n.feature_nm().to_string() == s)
}

fn main() {
    // When spawned as a supervised shard worker, run the shard and exit.
    supervisor::maybe_run_shard_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first() else { usage() };
    if which == "list-machines" {
        list_machines(&args[1..]);
    }
    if which == "fsck" {
        fsck(&args[1..]);
    }
    if which == "fsck-events" {
        fsck_events(&args[1..]);
    }
    if which == "merge" {
        merge_cmd(&args[1..]);
    }
    if which == "sweep" {
        sweep_cmd(&args[1..]);
    }
    if which == "search" {
        search_cmd(&args[1..]);
    }

    // Scan for --insts first: presets embed the budget at construction.
    let mut insts_override: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--insts" {
            let n: u64 = it
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage());
            insts_override = Some(n);
        }
    }
    let budget = match insts_override {
        Some(n) => SimBudget::new(n / 10, n),
        // The smoke grid keeps its own tiny budget unless --insts overrides it.
        None if which == "smoke" => Scenario::smoke().budget,
        None => experiment_budget(),
    };
    let mut scenario = match which.as_str() {
        "custom" => Scenario::new("custom", budget),
        name => Scenario::preset(name, budget).unwrap_or_else(|| usage()),
    };

    let mut check = false;
    let mut json_path: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut store_path: Option<String> = None;
    let mut faults_spec: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match arg.as_str() {
            "--benches" => {
                scenario.benchmarks = parse_list(value(), "benchmark", Benchmark::from_name)
            }
            "--machines" => scenario.machines = parse_list(value(), "machine", Machine::from_name),
            "--nodes" => scenario.nodes = parse_list(value(), "node", parse_node),
            "--clocks" => scenario.clocks = parse_list(value(), "clock pair", parse_pair),
            "--windows" => scenario.windows = parse_list(value(), "window pair", parse_pair),
            "--ec" => scenario.ec_kb = parse_list(value(), "EC size", |s| s.parse().ok()),
            "--mem" => {
                scenario.mem_cycles = parse_list(value(), "memory latency", |s| s.parse().ok())
            }
            "--seeds" => scenario.seeds = parse_list(value(), "seed", |s| s.parse().ok()),
            "--insts" => {
                let _ = value(); // already applied above
            }
            "--check" => check = true,
            "--json" => json_path = Some(value().to_owned()),
            "--csv" => csv_path = Some(value().to_owned()),
            "--store" => store_path = Some(value().to_owned()),
            "--faults" => faults_spec = Some(value().to_owned()),
            "--telemetry" => telemetry_path = Some(value().to_owned()),
            _ => usage(),
        }
    }

    if let Err(e) = scenario.validate() {
        eprintln!("invalid scenario: {e}");
        std::process::exit(1);
    }

    if let Some(spec) = &faults_spec {
        match fault::FaultPlan::parse(spec) {
            Ok(plan) => {
                println!("fault injection enabled: {plan:?}");
                fault::install(plan);
            }
            Err(e) => {
                eprintln!("invalid --faults spec: {e}");
                std::process::exit(1);
            }
        }
    }

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

    let cell_count = scenario.cell_count();
    println!(
        "scenario '{}': {} cells x {} instructions on {} workers",
        scenario.name,
        cell_count,
        scenario.budget.total(),
        worker_count().min(cell_count.max(1)),
    );
    let start = Instant::now();
    let mut store = match &store_path {
        Some(path) => ResultStore::open(path).unwrap_or_else(|e| {
            eprintln!("could not open result store {path}: {e}");
            std::process::exit(1);
        }),
        None => ResultStore::in_memory(),
    };
    let (run, summary) = scenario.run_with_store(&mut store);
    let wall = start.elapsed();
    // Recalled and failed cells did no simulator work.
    let insts = summary.simulated as u64 * scenario.budget.total();
    println!(
        "[{}] {:.2} s wall, {} simulated instructions, {:.2} MIPS",
        scenario.name,
        wall.as_secs_f64(),
        insts,
        simulated_mips(insts, wall)
    );
    if let Some(path) = &store_path {
        println!(
            "store {path}: {} cells recalled, {} simulated, {} records total",
            summary.hits,
            summary.simulated,
            store.len()
        );
    }
    if run.is_degraded() {
        println!(
            "degraded-mode completion: {} of {} cells failed; sweep continued without them",
            run.failed.len(),
            run.attempted()
        );
        for f in &run.failed {
            println!(
                "  failed cell {} [{}] after {} attempt{}: {}",
                f.cell.label(),
                f.cause.kind(),
                f.attempts,
                if f.attempts == 1 { "" } else { "s" },
                f.cause.message()
            );
        }
    }

    match run.figure_tables() {
        Ok(tables) => print!("{tables}"),
        // Axis overrides can strip cells a figure needs or move it off the
        // paper configuration; the run (and any requested artifacts) still
        // stand, only the figure table is refused.
        Err(e) => eprintln!("cannot render the figure table: {e}"),
    }

    // Artifacts are written before the invariant gate so a failing grid still
    // leaves its data behind for inspection.
    if let Some(path) = &csv_path {
        std::fs::write(path, run.to_csv()).unwrap_or_else(|e| {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    if let Some(path) = &json_path {
        std::fs::write(path, run.to_json()).unwrap_or_else(|e| {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }

    // The emitters above query live per-cell counts, so the sink is torn down
    // only after every artifact is on disk.
    if telemetry_path.is_some() {
        if let Some(summary) = flywheel_bench::telemetry::finish_global_telemetry() {
            println!(
                "telemetry: {} events logged to {}",
                summary.events,
                summary.path.display()
            );
        }
    }

    if check {
        match run.check_invariants() {
            Ok(()) => println!(
                "invariants: all {} cells passed (retired budget, energy accounting, \
                 machine-aware leakage attribution, counter sanity, machine-specific stats)",
                run.cells.len()
            ),
            Err(e) => {
                eprintln!("invariant violation: {e}");
                std::process::exit(1);
            }
        }
    }
}
