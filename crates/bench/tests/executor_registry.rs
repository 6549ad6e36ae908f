//! The executors must reproduce the pinned golden digest.
//!
//! `golden.txt` is produced by the `golden` binary, which constructs every
//! machine configuration *by hand* (named `BaselineConfig`,
//! `FlywheelConfig`, `MultiDomainConfig` and `DvfsConfig` constructors) and
//! prints the full Debug of every result. This test rebuilds the same
//! configuration points *through the executor* — machine + grid axes, the
//! way scenario sweeps resolve cells — replays them, and demands the
//! rendered lines match the committed golden file byte for byte. Any drift
//! between the executor's resolution of a grid point and the hand-built
//! paper configurations is caught here, not in a store key miss three layers
//! up.

use flywheel_bench::executor::Machine;
use flywheel_bench::scenario::ScenarioCell;
use flywheel_bench::shared_trace;
use flywheel_timing::TechNode;
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;

const GOLDEN: &str = include_str!("../../../golden.txt");

/// The golden digest's budget (see `crates/bench/src/bin/golden.rs`).
fn golden_budget() -> SimBudget {
    SimBudget::new(5_000, 40_000)
}

fn cell(machine: Machine, bench: Benchmark, fe: u32, be: u32) -> ScenarioCell {
    ScenarioCell {
        bench,
        seed: 42,
        machine,
        node: TechNode::N130,
        fe_pct: fe,
        be_pct: be,
        iw_entries: 128,
        rob_entries: 128,
        ec_kb: 128,
        mem_cycles: 100,
    }
}

/// One golden configuration point: machine, golden line prefix, golden
/// configuration name, and the FE/BE clock speed-ups it sits at.
type Point = (Machine, &'static str, &'static str, u32, u32);

/// Renders one executor-resolved cell in the golden binary's line format,
/// under golden's `prefix` (`baseline`, `flywheel`, `multidomain` or
/// `dvfs`).
fn render(point: &Point, bench: Benchmark) -> String {
    let &(machine, prefix, golden_name, fe, be) = point;
    let exec = cell(machine, bench, fe, be).executor();
    exec.validate()
        .unwrap_or_else(|e| panic!("{}/{golden_name}: invalid config: {e}", machine.name()));
    let trace = shared_trace(bench, 42, golden_budget());
    let stats = exec.replay(trace.cursor(), golden_budget());
    let digest = match stats.to_flywheel_result() {
        Some(r) => format!("{r:?}"),
        None => format!("{:?}", stats.sim),
    };
    format!("{prefix}/{bench}/{golden_name}: {digest}")
}

#[test]
fn registry_executors_reproduce_the_golden_digest_byte_identically() {
    // Every golden configuration point of every machine. `paper_default`
    // and `paper_n130` are the same machine at the same grid point — the
    // golden file pins that equivalence with two lines, so both appear here.
    let points: &[Point] = &[
        (Machine::Baseline, "baseline", "paper_default", 0, 0),
        (Machine::Baseline, "baseline", "paper_n130", 0, 0),
        (Machine::BaselineExtraFe, "baseline", "extra_fe_stage", 0, 0),
        (
            Machine::BaselinePipedWakeup,
            "baseline",
            "pipelined_wakeup",
            0,
            0,
        ),
        (Machine::Baseline, "baseline", "dual_clock_fe50", 50, 0),
        (Machine::Flywheel, "flywheel", "iso_clock", 0, 0),
        (Machine::Flywheel, "flywheel", "fe50_be50", 50, 50),
        (Machine::Flywheel, "flywheel", "fe100_be50", 100, 50),
        (Machine::RegAlloc, "flywheel", "reg_alloc_only", 0, 0),
        (Machine::MultiDomain, "multidomain", "paper_n130", 0, 0),
        (Machine::MultiDomain, "multidomain", "fe50", 50, 0),
        (Machine::Dvfs, "dvfs", "iso_clock", 0, 0),
        (Machine::Dvfs, "dvfs", "fe50_be50", 50, 50),
    ];
    // Two benches keep the test fast while still covering a SPEC-like profile
    // and an adversarial stress profile.
    for bench in [Benchmark::Micro, Benchmark::PtrChase] {
        for point in points {
            let machine = point.0;
            let line = render(point, bench);
            let prefix = line.split_once(": ").expect("rendered line has ': '").0;
            let expected = GOLDEN
                .lines()
                .find(|l| l.starts_with(prefix) && l.as_bytes()[prefix.len()] == b':')
                .unwrap_or_else(|| panic!("golden.txt has no line for '{prefix}'"));
            assert_eq!(
                line,
                expected,
                "executor-built {} diverged from the hand-built golden configuration",
                machine.name()
            );
        }
    }
}

#[test]
fn every_golden_machine_line_is_covered_by_a_registered_family() {
    // The inverse direction: every machine/config label appearing in
    // golden.txt must be resolvable to a machine, so the digest can never
    // silently pin a machine the enum no longer offers.
    let known_families: Vec<&str> = Machine::all().iter().map(|m| m.name()).collect();
    for line in GOLDEN.lines().filter(|l| !l.is_empty()) {
        let kind = line.split('/').next().unwrap();
        let family_exists = match kind {
            // The golden digest's `baseline/` and `flywheel/` prefixes are
            // simulators covering several machines; the other prefixes
            // (e.g. `multidomain/`) name the machine directly.
            "baseline" | "flywheel" => true,
            name => known_families.contains(&name),
        };
        assert!(family_exists, "golden line with an unknown machine: {line}");
    }
}
