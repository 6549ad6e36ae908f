//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <figures-cold|stress-armed|warm-recall> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root, which holds the committed artifacts the
//! outputs are checked against. Temp files live under `.perfbench-out/` and
//! are removed when the run ends; a traced run leaves its spans there. The
//! last line of standard output is the JSON result; the exit code is 0 only
//! when every output was correct.

use flywheel_perfbench::metrics::{result_json, Metric};
use flywheel_perfbench::verify::References;
use flywheel_perfbench::{run, Plan, RunOptions, Workload};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a duration in seconds"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

/// The commit the run measured, when the root is a git checkout.
fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".to_owned();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        })
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    let refs = References::load(&root)?;
    let out = root.join(".perfbench-out");
    let scratch = out.join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let plan = Plan::new(args.workload, args.seed);
    let opts = RunOptions {
        seconds: args.seconds,
        trace: args.trace,
        scratch: scratch.clone(),
    };
    let result = run(&plan, &refs, &opts);
    let cleaned = std::fs::remove_dir_all(&scratch);
    let outcome = result?;
    cleaned.map_err(|e| format!("removing {}: {e}", scratch.display()))?;

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "provenance {{\"workload\": \"{}\", \"seed\": {}, \"default_seed\": {}, \"git_rev\": \"{}\", \"nproc\": {nproc}, \"jobs\": {}, \"profile\": \"{profile}\", \"store_salt\": \"{:016x}\", \"seconds\": {}, \"trace\": {}, \"passes\": {}, \"setup_reps\": {}}}",
        args.workload.name(),
        args.seed,
        args.workload.default_seed(),
        git_rev(&root),
        plan.jobs,
        flywheel_bench::store::code_version_salt(),
        args.seconds,
        u8::from(args.trace),
        outcome.passes,
        outcome.setup_reps,
    );
    for m in &outcome.metrics {
        println!("  {}", m.line());
    }
    if let Some(t) = &outcome.tracer {
        let path = out.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        t.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
    }
    let v = &outcome.verdict;
    for f in v.failures.iter().take(20) {
        println!("FAIL {f}");
    }
    if v.failures.len() > 20 {
        println!("FAIL ... {} more", v.failures.len() - 20);
    }
    let correct = v.failed == 0;
    let metrics: Vec<Metric> = outcome.contract(args.trace);
    println!("{}", result_json(correct, v.attempted, v.failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    // The kernel starts the main thread's stack at a random offset within a
    // page in every process, and pass times depend on that offset; a spawned
    // thread's stack sits at the same offset in every process.
    let run = std::thread::Builder::new()
        .name("perfbench".to_owned())
        .stack_size(8 << 20)
        .spawn(real_main)
        .map_err(|e| format!("spawning the benchmark thread: {e}"))
        .and_then(|t| {
            t.join()
                .map_err(|_| "the benchmark thread panicked".to_owned())
        })
        .and_then(|r| r);
    match run {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
