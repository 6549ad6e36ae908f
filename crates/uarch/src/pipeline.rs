//! The cycle-accurate baseline out-of-order pipeline.

use crate::config::{BaselineConfig, MultiDomainConfig};
use crate::kernel::{Kernel, Machine};
use crate::regs::Renamer;
use crate::stats::{SimBudget, SimResult};
use flywheel_isa::DynInst;
use flywheel_power::MachineKind;

/// The baseline four-way superscalar, out-of-order machine of the paper (Table 2),
/// with the configuration knobs needed for the Figure 2 study and for the Dual-Clock
/// Issue Window front-end.
///
/// The simulator is trace driven: it consumes [`DynInst`]s from a
/// `flywheel_workloads::TraceGenerator`, a shared
/// `flywheel_workloads::RecordedTrace` cursor (the cheap option when many
/// configurations replay the same workload), or any other iterator; models fetch,
/// dispatch, wake-up/select, execution, memory and retirement cycle by cycle in two
/// clock domains (front-end and execution core); and reports performance plus a
/// Wattch-style energy breakdown.
///
/// It is the [`Kernel`] skeleton with no machine hooks: the allocation-free,
/// event-indexed per-cycle loop, with provably idle stretches (memory stalls)
/// fast-forwarded in bulk, bit-identical to single-stepped execution.
///
/// ```
/// use flywheel_uarch::{BaselineConfig, BaselineSim, SimBudget};
/// use flywheel_workloads::{Benchmark, RecordedTrace};
///
/// let budget = SimBudget::new(1_000, 5_000);
/// let program = Benchmark::Micro.synthesize(1);
/// // Capture the dynamic stream once; every configuration replays it through a
/// // zero-allocation cursor.
/// let trace = RecordedTrace::record(&program, 1, RecordedTrace::capture_len_for(budget.total()));
/// let mut sim = BaselineSim::new(BaselineConfig::paper_default(), trace.cursor());
/// let result = sim.run(budget);
/// assert_eq!(result.instructions, 5_000);
/// assert!(result.ipc() > 0.3);
/// ```
pub struct BaselineSim<I: Iterator<Item = DynInst>> {
    kernel: Kernel<Renamer, I>,
}

/// The baseline machine adds nothing to the kernel skeleton.
struct Baseline;

impl<I: Iterator<Item = DynInst>> Machine<Renamer, I> for Baseline {}

impl<I: Iterator<Item = DynInst>> BaselineSim<I> {
    /// Creates a simulator for `cfg` consuming instructions from `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`BaselineConfig::validate`].
    pub fn new(cfg: BaselineConfig, trace: I) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        let renamer = Renamer::new(cfg.phys_regs);
        let power = cfg.power_config();
        BaselineSim {
            kernel: Kernel::new(cfg, renamer, power, MachineKind::Baseline, trace),
        }
    }

    /// Creates a multi-domain simulator: the baseline machine of `cfg.base`
    /// with the LSQ + D-cache pipeline in its own clock domain.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MultiDomainConfig::validate`].
    pub fn new_multi_domain(cfg: MultiDomainConfig, trace: I) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        let mut sim = BaselineSim::new(cfg.base, trace);
        sim.kernel.lsq_domain = Some(cfg.lsq);
        sim
    }

    /// The configuration of this machine.
    pub fn config(&self) -> &BaselineConfig {
        &self.kernel.cfg
    }

    /// Runs the simulation for the given budget and returns the measured result.
    pub fn run(&mut self, budget: SimBudget) -> SimResult {
        self.kernel.run(&mut Baseline, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SimBudget;
    use flywheel_workloads::{Benchmark, TraceGenerator};

    fn run_benchmark(b: Benchmark, cfg: BaselineConfig, budget: SimBudget) -> SimResult {
        let program = b.synthesize(42);
        let trace = TraceGenerator::new(&program, 42);
        BaselineSim::new(cfg, trace).run(budget)
    }

    #[test]
    fn retires_the_requested_instruction_count() {
        let r = run_benchmark(
            Benchmark::Micro,
            BaselineConfig::paper_default(),
            SimBudget::new(1_000, 20_000),
        );
        assert_eq!(r.instructions, 20_000);
        assert!(r.be_cycles > 0 && r.fe_cycles > 0);
        assert!(r.elapsed_ps > 0);
    }

    #[test]
    fn multi_domain_machine_runs_and_diverges_from_the_baseline() {
        use flywheel_timing::TechNode;
        let budget = SimBudget::new(1_000, 20_000);
        let program = Benchmark::PtrChase.synthesize(42);
        let base = BaselineSim::new(
            BaselineConfig::paper_default(),
            TraceGenerator::new(&program, 42),
        )
        .run(budget);
        let multi = BaselineSim::new_multi_domain(
            MultiDomainConfig::paper(TechNode::N130),
            TraceGenerator::new(&program, 42),
        )
        .run(budget);
        // Same committed work, different load timing: the LSQ domain must
        // change the cycle count without touching architectural progress.
        assert_eq!(multi.instructions, base.instructions);
        assert_ne!(multi.be_cycles, base.be_cycles);
        assert!(multi.elapsed_ps > 0);
    }

    #[test]
    fn ipc_is_plausible_for_a_four_wide_machine() {
        let r = run_benchmark(
            Benchmark::Ijpeg,
            BaselineConfig::paper_default(),
            SimBudget::test(),
        );
        let ipc = r.ipc();
        assert!(
            (0.4..4.0).contains(&ipc),
            "IPC {ipc} outside plausible range for the baseline"
        );
    }

    #[test]
    fn extra_frontend_stage_hurts_performance_slightly() {
        let budget = SimBudget::new(5_000, 40_000);
        let base = run_benchmark(Benchmark::Gzip, BaselineConfig::paper_default(), budget);
        let deeper = run_benchmark(
            Benchmark::Gzip,
            BaselineConfig::paper_default().with_extra_frontend_stage(),
            budget,
        );
        let slowdown = deeper.elapsed_ps as f64 / base.elapsed_ps as f64;
        assert!(
            slowdown > 0.999,
            "an extra front-end stage should not speed the machine up ({slowdown})"
        );
        assert!(slowdown < 1.25, "penalty should be moderate ({slowdown})");
    }

    #[test]
    fn pipelined_wakeup_hurts_more_than_extra_fetch_stage() {
        // This is the core claim of Figure 2.
        let budget = SimBudget::new(5_000, 40_000);
        for bench in [Benchmark::Gzip, Benchmark::Parser] {
            let base = run_benchmark(bench, BaselineConfig::paper_default(), budget);
            let deeper = run_benchmark(
                bench,
                BaselineConfig::paper_default().with_extra_frontend_stage(),
                budget,
            );
            let piped = run_benchmark(
                bench,
                BaselineConfig::paper_default().with_pipelined_wakeup(),
                budget,
            );
            let fetch_penalty = deeper.elapsed_ps as f64 / base.elapsed_ps as f64 - 1.0;
            let wakeup_penalty = piped.elapsed_ps as f64 / base.elapsed_ps as f64 - 1.0;
            assert!(
                wakeup_penalty > fetch_penalty,
                "{bench}: wake-up/select pipelining ({wakeup_penalty:.3}) should cost more than \
                 an extra fetch stage ({fetch_penalty:.3})"
            );
            assert!(
                wakeup_penalty > 0.05,
                "{bench}: pipelining wake-up/select should cost several percent ({wakeup_penalty:.3})"
            );
        }
    }

    #[test]
    fn branch_mispredicts_and_cache_misses_are_observed() {
        let r = run_benchmark(
            Benchmark::Parser,
            BaselineConfig::paper_default(),
            SimBudget::test(),
        );
        assert!(r.bpred.total_ctrl > 0);
        assert!(
            r.bpred.cond_mispredicts > 0,
            "parser should mispredict sometimes"
        );
        assert!(r.bpred.cond_mispredict_rate() < 0.5);
        assert!(r.caches.l1d.0 > 0);
        // Wrong-path fetch is not modelled (fetch stalls at a mispredicted branch),
        // so mispredict recovery never finds younger instructions to squash.
        assert_eq!(r.squashed, 0);
    }

    #[test]
    fn energy_breakdown_is_populated() {
        let r = run_benchmark(
            Benchmark::Micro,
            BaselineConfig::paper_default(),
            SimBudget::test(),
        );
        assert!(r.energy.frontend_pj > 0.0);
        assert!(r.energy.backend_pj > 0.0);
        assert!(r.energy.clock_pj > 0.0);
        assert!(r.energy.leakage_pj() > 0.0);
        assert_eq!(r.energy.flywheel_pj, 0.0, "baseline has no Execution Cache");
        assert_eq!(
            r.energy.leakage_flywheel_pj, 0.0,
            "baseline must not be charged Execution-Cache/Register-Update leakage"
        );
        assert!(r.average_power_w() > 0.1 && r.average_power_w() < 100.0);
    }

    #[test]
    fn dual_clock_frontend_does_not_break_correctness() {
        let budget = SimBudget::new(2_000, 20_000);
        let r = run_benchmark(
            Benchmark::Gcc,
            BaselineConfig::paper_default().with_dual_clock_frontend(50),
            budget,
        );
        assert_eq!(r.instructions, 20_000);
        // The faster front-end produces more front-end cycles than back-end cycles
        // over the same wall-clock interval.
        assert!(r.fe_cycles > r.be_cycles);
    }

    #[test]
    fn memory_bound_benchmark_is_slower_than_cache_friendly_one() {
        let budget = SimBudget::new(5_000, 30_000);
        let friendly = run_benchmark(Benchmark::Ijpeg, BaselineConfig::paper_default(), budget);
        let bound = run_benchmark(Benchmark::Equake, BaselineConfig::paper_default(), budget);
        assert!(
            bound.ipc() < friendly.ipc() * 1.2,
            "equake should not be dramatically faster"
        );
        assert!(
            bound.caches.l1d.1 as f64 / bound.caches.l1d.0 as f64
                > friendly.caches.l1d.1 as f64 / friendly.caches.l1d.0 as f64,
            "equake should miss more in the D-cache"
        );
    }

    #[test]
    fn no_progress_guard_names_the_branch_fetch_is_stuck_on() {
        use crate::kernel::NO_PROGRESS_WINDOW;
        use flywheel_timing::TechNode;
        let program = Benchmark::Micro.synthesize(42);
        for multi_domain in [false, true] {
            let trace = TraceGenerator::new(&program, 42);
            let mut sim = if multi_domain {
                BaselineSim::new_multi_domain(MultiDomainConfig::paper(TechNode::N130), trace)
            } else {
                BaselineSim::new(BaselineConfig::paper_default(), trace)
            };
            // Fetch waits on a branch that never resolves, so nothing ever
            // retires.
            sim.kernel.fetch_blocked_on_branch = Some(u64::MAX);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run(SimBudget::new(10, 100))
            }))
            .expect_err("a machine that cannot fetch must trip the guard");
            let msg = err
                .downcast::<String>()
                .expect("the guard is a plain panic, not a watchdog timeout");
            let trip = format!(
                "tripped at cycle {}, last retirement at cycle 0",
                NO_PROGRESS_WINDOW + 1
            );
            assert!(msg.contains(&trip), "multi-domain {multi_domain}: {msg}");
            assert!(
                msg.contains("blocked on branch Some(18446744073709551615)"),
                "multi-domain {multi_domain}: {msg}"
            );
        }
    }
}
