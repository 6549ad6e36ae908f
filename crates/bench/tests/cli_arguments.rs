//! Argument rejection at the `scenarios` and `experiments` binaries (via
//! `CARGO_BIN_EXE_*`): an input the binary cannot honour exits non-zero
//! before any simulation, and leaves nothing behind.

use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fw-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `exe` with the whitespace-separated `args` in a fresh directory.
fn run(exe: &str, tag: &str, args: &str) -> (PathBuf, Output) {
    let dir = temp_dir(tag);
    let out = Command::new(exe)
        .args(args.split_whitespace())
        .current_dir(&dir)
        .env("RUST_BACKTRACE", "0")
        .output()
        .unwrap();
    (dir, out)
}

#[test]
fn a_repeated_axis_entry_is_rejected_before_anything_is_simulated() {
    let (dir, out) = run(
        env!("CARGO_BIN_EXE_scenarios"),
        "dup-axis",
        "custom --benches micro --machines baseline,baseline --insts 2000 \
         --check --store dup.store --csv dup.csv",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a repeated machine must be rejected");
    assert!(
        stderr.contains("duplicate machine baseline in the machine axis"),
        "got: {stderr}"
    );
    assert!(!dir.join("dup.store").exists(), "no store may be written");
    assert!(!dir.join("dup.csv").exists(), "no CSV may be written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiments_rejects_a_budget_it_cannot_parse() {
    for (tag, args) in [
        ("bad-budget", "ec_residency 20k"),
        ("extra-arg", "ec_residency 2000 extra"),
    ] {
        let (dir, out) = run(env!("CARGO_BIN_EXE_experiments"), tag, args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "experiments {args}: must exit non-zero"
        );
        assert!(
            stderr.contains("usage: experiments"),
            "{args}: got {stderr}"
        );
        assert!(
            !stdout.contains("== "),
            "experiments {args}: printed a figure table:\n{stdout}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
