//! Closed-form mechanism tests: hand-built loops whose cycle counts follow
//! from the machine's widths and latencies alone, so a mechanism defect
//! cannot hide in the spread of the synthetic workloads.

use flywheel_core::{FlywheelConfig, FlywheelSim};
use flywheel_isa::{ArchReg, DynInst, Pc, StaticInst};
use flywheel_timing::TechNode;
use flywheel_uarch::{BaselineConfig, BaselineSim, SimBudget};

/// ALU ops in the loop body; the always-taken back branch makes 14.
const BODY: u64 = 13;
const LOOP_INSTS: u64 = BODY + 1;
/// Measured iterations.
const ITERS: u64 = 2_000;

/// 200 warm-up iterations, then [`ITERS`] measured ones.
fn budget() -> SimBudget {
    SimBudget::new(200 * LOOP_INSTS, ITERS * LOOP_INSTS)
}

/// An endless loop of [`BODY`] one-cycle ALU ops and an always-taken back
/// branch, starting on a fetch-group boundary. With `chained`, each op reads
/// the previous op's result (the first reads the previous iteration's last),
/// so the ops form one serial chain; otherwise no op reads a register.
fn alu_loop(chained: bool) -> impl Iterator<Item = DynInst> {
    let head = Pc::new(0x1000);
    let reg = |k: u64| ArchReg::int(1 + (k % BODY) as u8);
    (0u64..).map(move |seq| {
        let k = seq % LOOP_INSTS;
        let pc = head + k;
        let (stat, next_pc) = if k == BODY {
            (StaticInst::cond_branch(ArchReg::int(0), None), head)
        } else {
            let src = if chained {
                reg(k + BODY - 1)
            } else {
                ArchReg::int(0)
            };
            (StaticInst::alu(reg(k), src, None), pc.next())
        };
        DynInst {
            seq,
            pc,
            stat,
            taken: k == BODY,
            next_pc,
            mem: None,
        }
    })
}

fn paper() -> BaselineConfig {
    BaselineConfig::paper(TechNode::N130)
}

fn baseline_cycles(cfg: BaselineConfig, chained: bool) -> u64 {
    BaselineSim::new(cfg, alu_loop(chained))
        .run(budget())
        .be_cycles
}

#[test]
fn baseline_is_fetch_bound_on_independent_ops_and_issue_bound_on_a_chain() {
    // 14 instructions from a group boundary are four 4-wide fetch groups.
    assert_eq!(baseline_cycles(paper(), false), 4 * ITERS);
    // A one-cycle dependence chain issues one op per cycle.
    assert_eq!(baseline_cycles(paper(), true), BODY * ITERS);
}

/// Figure 2's mechanism: a two-cycle Wake-up/Select loop doubles a one-cycle
/// chain's latency and leaves independent ops alone.
#[test]
fn pipelined_wakeup_halves_a_chain_and_leaves_independent_ops_alone() {
    let piped = || paper().with_pipelined_wakeup();
    assert_eq!(baseline_cycles(piped(), true), 2 * BODY * ITERS);
    assert_eq!(baseline_cycles(piped(), false), 4 * ITERS);
}

/// A deeper front end costs only on redirects, and a perfectly predicted
/// loop has none.
#[test]
fn an_extra_front_end_stage_costs_a_predicted_loop_nothing() {
    let extra = || paper().with_extra_frontend_stage();
    assert_eq!(baseline_cycles(extra(), false), 4 * ITERS);
    assert_eq!(baseline_cycles(extra(), true), BODY * ITERS);
}

#[test]
fn iso_clock_flywheel_replays_independent_ops_at_the_baseline_rate() {
    let cfg = FlywheelConfig::paper(TechNode::N130, 0, 0);
    let r = FlywheelSim::new(cfg, alu_loop(false)).run(budget());
    let base = 4 * ITERS;
    assert!(
        r.sim.be_cycles.abs_diff(base) * 100 <= base,
        "{} cycles against the baseline's {base}",
        r.sim.be_cycles
    );
    assert!(
        r.flywheel.ec_residency > 0.5,
        "residency {}",
        r.flywheel.ec_residency
    );
}
