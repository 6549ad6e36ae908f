//! Argument rejection at the `scenarios` binary (via
//! `CARGO_BIN_EXE_scenarios`): an input the binary cannot honour exits
//! non-zero before any simulation, and leaves nothing behind.

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
fn scenarios_rejects_a_budget_it_cannot_parse() {
    for (tag, args, needle) in [
        ("bad-budget", "ec_residency --insts 20k", "usage: scenarios"),
        (
            "extra-arg",
            "ec_residency --insts 2000 extra",
            "usage: scenarios",
        ),
        (
            "zero-budget",
            "ec_residency --insts 0 --store zero.store",
            "measured budget is 0",
        ),
    ] {
        let (dir, out) = run(env!("CARGO_BIN_EXE_scenarios"), tag, args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "scenarios {args}: must exit non-zero"
        );
        assert!(stderr.contains(needle), "{args}: got {stderr}");
        assert!(
            !stdout.contains("== "),
            "scenarios {args}: printed a figure table:\n{stdout}"
        );
        assert!(!dir.join("zero.store").exists(), "no store may be written");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fsck_refuses_a_store_that_does_not_exist() {
    let (dir, out) = run(
        env!("CARGO_BIN_EXE_scenarios"),
        "fsck-missing",
        "fsck nosuch.store",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a missing store must not pass fsck");
    assert!(stderr.contains("no such store"), "got: {stderr}");
    assert!(!stdout.contains("clean"), "got: {stdout}");
    assert!(!dir.join("nosuch.store").exists(), "fsck may not create it");
    let _ = std::fs::remove_dir_all(&dir);
}
