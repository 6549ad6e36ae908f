//! # flywheel-report
//!
//! The self-regenerating documentation pipeline: turns the content-addressed
//! result store (`flywheel_bench::store`) back into the Markdown the repo
//! publishes, so the numbers in the docs are provably the numbers the
//! simulators produce.
//!
//! * Every paper figure table (Figures 2, 11, 12, 13, 14, 15, the
//!   Execution-Cache residency study, and the per-node leakage-attribution
//!   companion tables introduced with the attributed power model) is the
//!   figure's scenario preset run against the store and rendered by
//!   [`ScenarioRun::figure_tables`] — the one definition of each figure the
//!   `scenarios` binary prints too.
//! * [`results_markdown`] assembles the full `RESULTS.md` artifact: the
//!   figure tables and the seed-sensitivity tables. The simulator's own speed
//!   is measured by `python3 perfbench/run.py`, not recorded here.
//! * [`patch_block`]/[`extract_block`] maintain the generated section of
//!   `EXPERIMENTS.md` between `flywheel-report` markers.
//! * The `report` binary drives it all. Its `--populate` mode fills a fresh
//!   store with every record the documents read, and its `--check` mode is
//!   the CI gate that fails when committed docs disagree with the store.
//!
//! Grids run through a [`Source`], which either refuses to simulate
//! ([`Source::read_only`], the `--check` path) or simulates and stores the
//! missing cells ([`Source::computing`], the `--populate` path).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flywheel_bench::scenario::{Machine, Scenario, ScenarioRun};
use flywheel_bench::stats::Aggregate;
use flywheel_bench::store::{ResultStore, StoreKey, StoreSummary};
use flywheel_bench::telemetry::TelemetryLog;
use flywheel_bench::EXPERIMENT_SEED;
use flywheel_timing::TechNode;
use flywheel_uarch::telemetry::{ClockDomain, TelemetryEvent};
use flywheel_uarch::{SimBudget, SimResult};
use flywheel_workloads::Benchmark;
use std::collections::BTreeMap;

/// The marker opening the generated section of EXPERIMENTS.md.
pub const BLOCK_BEGIN: &str = "<!-- flywheel-report:begin -->";
/// The marker closing the generated section of EXPERIMENTS.md.
pub const BLOCK_END: &str = "<!-- flywheel-report:end -->";

/// The figure presets the seed-sensitivity tables re-run over
/// [`sensitivity_seeds`].
const SEEDED_FIGURES: [&str; 2] = ["fig11", "fig15"];

/// The seed axis of the seed-sensitivity study: the experiment seed the
/// figures use plus four more, so every sensitivity aggregate carries n = 5
/// independent workload synthesis draws (t-distribution CIs at df = 4).
pub fn sensitivity_seeds() -> &'static [u64] {
    &[2005, 2006, 2007, 2008, 2009]
}

/// Every grid the published tables read, in rendering order: the figure
/// presets ([`Scenario::figure_names`]) at the experiment seed, then
/// Figures 11 and 15 over [`sensitivity_seeds`].
pub fn report_grids(budget: SimBudget) -> Vec<Scenario> {
    let preset = |name| Scenario::preset(name, budget).expect("figure presets are registered");
    let seeded = SEEDED_FIGURES.into_iter().map(|name| Scenario {
        seeds: sensitivity_seeds().to_vec(),
        ..preset(name)
    });
    Scenario::figure_names().map(preset).chain(seeded).collect()
}

/// A store-backed runner of the figure grids.
pub struct Source<'a> {
    store: &'a mut ResultStore,
    compute: bool,
    summary: StoreSummary,
}

impl<'a> Source<'a> {
    /// A source that only recalls stored records; a missing record is an
    /// error telling the operator how to populate the store.
    pub fn read_only(store: &'a mut ResultStore) -> Self {
        Source {
            store,
            compute: false,
            summary: StoreSummary::default(),
        }
    }

    /// A source that simulates (and stores) any missing record.
    pub fn computing(store: &'a mut ResultStore) -> Self {
        Source {
            store,
            compute: true,
            summary: StoreSummary::default(),
        }
    }

    /// How many records this source recalled vs simulated so far.
    pub fn summary(&self) -> StoreSummary {
        self.summary
    }

    /// Runs `scenario` against the store. A read-only source recalls every
    /// cell, simulating nothing, and fails on the first cell the store lacks;
    /// a computing source simulates and stores the missing cells and fails if
    /// any of them could not be simulated.
    pub fn run(&mut self, scenario: &Scenario) -> Result<ScenarioRun, String> {
        if self.compute {
            let (run, summary) = scenario.run_with_store(self.store);
            self.summary += summary;
            return match run.failed.first() {
                Some(f) => Err(format!("cell {} failed: {}", f.cell.label(), f.cause)),
                None => Ok(run),
            };
        }
        let cells = scenario.expand();
        let results = cells
            .iter()
            .map(|cell| match self.store.get(&cell.key(scenario.budget)) {
                Some(r) => Ok(r.clone()),
                None => Err(format!(
                    "no stored record for {}; populate the store first \
                     (`cargo run --release -p flywheel-report --bin report -- --populate \
                     --store results.store`)",
                    cell.label()
                )),
            })
            .collect::<Result<Vec<_>, String>>()?;
        self.summary.hits += cells.len();
        Ok(ScenarioRun {
            scenario: scenario.clone(),
            cells,
            results,
            failed: Vec::new(),
        })
    }
}

/// One row of a seed-sensitivity table: per column, a `(mean, ci95)` pair.
struct CiRow {
    bench: &'static str,
    values: Vec<(f64, f64)>,
}

/// Renders a seed-sensitivity table in the figure-table style, one
/// `mean ± half-width` cell per column, plus the average row. Kept separate
/// from [`format_table`] because confidence half-widths need more digits
/// than point estimates.
fn format_ci_table(title: &str, columns: &[String], rows: &[CiRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = write!(out, "{:<10}", "bench");
    for c in columns {
        let _ = write!(out, " {c:>16}");
    }
    let _ = writeln!(out);
    let mut sums = vec![(0.0, 0.0); columns.len()];
    for row in rows {
        let _ = write!(out, "{:<10}", row.bench);
        for (i, &(mean, hw)) in row.values.iter().enumerate() {
            sums[i].0 += mean;
            sums[i].1 += hw;
            let _ = write!(out, " {mean:>8.3} ±{hw:>6.4}");
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<10}", "average");
    for &(sum_mean, sum_hw) in &sums {
        let _ = write!(
            out,
            " {:>8.3} ±{:>6.4}",
            sum_mean / rows.len() as f64,
            sum_hw / rows.len() as f64
        );
    }
    let _ = writeln!(out);
    out
}

/// Below this many measured instructions per cell, the relative CI-width
/// gate is waived: a few hundred instructions measure synthesis noise, not
/// the mechanism, so wide intervals are expected there. The published docs
/// always render at the experiment budget (250k), far above this line.
const CI_GATE_MIN_MEASURED: u64 = 50_000;

/// The CI-width sanity gate: a seed-sensitivity interval must be finite and
/// non-negative at any budget, and plausibly narrow at a real one. A
/// half-width exceeding the point estimate itself at the experiment budget
/// means the metric is unstable across seeds (or a wrong-seed record leaked
/// into the aggregate) — the renderer refuses, which fails `report --check`
/// and `--populate` alike. The threshold is deliberately loose: the
/// byte-compare of the rendered tables is the precision gate; this one only
/// rejects statistical nonsense. (The widest natural interval across the
/// committed seed axis is parser at 73% of its estimate — workload synthesis
/// genuinely restructures the program per seed.)
fn check_ci(what: &str, agg: &Aggregate, budget: SimBudget) -> Result<(), String> {
    let mean = agg.mean();
    let hw = agg.ci95_halfwidth();
    if !mean.is_finite() || !hw.is_finite() || hw < 0.0 {
        return Err(format!(
            "seed-sensitivity CI for {what} is degenerate (mean {mean}, ±{hw})"
        ));
    }
    if budget.measured_instructions < CI_GATE_MIN_MEASURED {
        return Ok(());
    }
    let rel = hw / mean.abs().max(1e-12);
    if rel > 1.0 {
        return Err(format!(
            "seed-sensitivity CI for {what} is implausibly wide: {mean:.6} ± {hw:.6} \
             ({:.1}% of the estimate) — the metric is unstable across seeds or a \
             wrong-seed record entered the aggregate",
            rel * 100.0
        ));
    }
    Ok(())
}

/// The simulation result of one cell of a seed-sensitivity run.
fn seeded_cell(
    run: &ScenarioRun,
    bench: Benchmark,
    seed: u64,
    machine: Machine,
    node: TechNode,
) -> Result<&SimResult, String> {
    let clock = if machine.uses_clock_axis() {
        run.scenario.clocks[0]
    } else {
        run.scenario.baseline_clock
    };
    Ok(&run.result_at(bench, seed, machine, node, clock)?.sim)
}

/// Seed sensitivity of Figure 11: the reg-alloc and Flywheel speedups as
/// mean ± 95% CI over the seed axis of `run`, a Figure 11 preset run over
/// [`sensitivity_seeds`] (each seed is an independent workload-synthesis draw
/// of the same statistical profile, so the interval measures how much of the
/// figure is synthesis luck rather than mechanism).
fn fig11_seed_sensitivity_table(run: &ScenarioRun) -> Result<String, String> {
    let s = &run.scenario;
    let node = s.nodes[0];
    let columns = vec!["reg-alloc".to_owned(), "flywheel".to_owned()];
    let mut rows = Vec::new();
    for &bench in &s.benchmarks {
        let mut ra = Aggregate::new();
        let mut fly = Aggregate::new();
        for &seed in &s.seeds {
            let cell = |m| seeded_cell(run, bench, seed, m, node);
            let base = cell(Machine::Baseline)?;
            ra.add(cell(Machine::RegAlloc)?.speedup_over(base));
            fly.add(cell(Machine::Flywheel)?.speedup_over(base));
        }
        check_ci(&format!("{}/reg-alloc", bench.name()), &ra, s.budget)?;
        check_ci(&format!("{}/flywheel", bench.name()), &fly, s.budget)?;
        rows.push(CiRow {
            bench: bench.name(),
            values: vec![
                (ra.mean(), ra.ci95_halfwidth()),
                (fly.mean(), fly.ci95_halfwidth()),
            ],
        });
    }
    Ok(format_ci_table(
        &format!(
            "Seed sensitivity (Figure 11): speedup mean ± 95% CI over {} seeds",
            s.seeds.len()
        ),
        &columns,
        &rows,
    ))
}

/// Seed sensitivity of Figure 15: the per-node relative energy of Flywheel
/// (FE100%, BE50%) as mean ± 95% CI over the seed axis of `run`, a Figure 15
/// preset run over [`sensitivity_seeds`].
fn fig15_seed_sensitivity_table(run: &ScenarioRun) -> Result<String, String> {
    let s = &run.scenario;
    let columns: Vec<String> = s.nodes.iter().map(|n| n.to_string()).collect();
    let mut rows = Vec::new();
    for &bench in &s.benchmarks {
        let mut values = Vec::new();
        for &n in &s.nodes {
            let mut energy = Aggregate::new();
            for &seed in &s.seeds {
                let base = seeded_cell(run, bench, seed, Machine::Baseline, n)?;
                let fly = seeded_cell(run, bench, seed, Machine::Flywheel, n)?;
                energy.add(fly.energy_ratio_over(base));
            }
            check_ci(&format!("{}/{n}", bench.name()), &energy, s.budget)?;
            values.push((energy.mean(), energy.ci95_halfwidth()));
        }
        rows.push(CiRow {
            bench: bench.name(),
            values,
        });
    }
    Ok(format_ci_table(
        &format!(
            "Seed sensitivity (Figure 15): relative energy mean ± 95% CI over {} seeds",
            s.seeds.len()
        ),
        &columns,
        &rows,
    ))
}

/// All figure tables, in the paper's order ([`Scenario::figure_names`]),
/// followed by the seed-sensitivity tables: every grid of [`report_grids`]
/// run through `src`.
pub fn all_figure_tables(src: &mut Source<'_>, budget: SimBudget) -> Result<String, String> {
    let runs = report_grids(budget)
        .iter()
        .map(|s| src.run(s))
        .collect::<Result<Vec<_>, String>>()?;
    let (figures, seeded) = runs.split_at(runs.len() - SEEDED_FIGURES.len());
    let mut out = String::new();
    for run in figures {
        out.push_str(&run.figure_tables()?);
    }
    out.push_str(&fig11_seed_sensitivity_table(&seeded[0])?);
    out.push_str(&fig15_seed_sensitivity_table(&seeded[1])?);
    Ok(out)
}

/// Simulates (or recalls) every cell the figure tables read, appending any
/// missing record to the store, in [`report_grids`] order: the one way the
/// published store is filled. Returns how many cells were recalled vs
/// simulated.
pub fn populate(store: &mut ResultStore, budget: SimBudget) -> Result<StoreSummary, String> {
    let mut src = Source::computing(store);
    all_figure_tables(&mut src, budget)?;
    Ok(src.summary())
}

/// Extracts one field of a hand-assembled JSON object line.
fn json_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        return stripped.split('"').next();
    }
    rest.split([',', '}']).next().map(str::trim)
}

/// Renders the "Degraded cells" section from a scenario JSON document
/// (`flywheel-scenarios/2` or `/3`, written by the `scenarios` binary's
/// `--json` flag): the failed-cell manifest as a Markdown table, or — when
/// the run completed every cell — a one-line all-clear. A fault-tolerant
/// sweep can finish without some cells (see `flywheel_bench::scenario`); this
/// section keeps that degradation visible in the published docs instead of
/// letting a silently smaller grid masquerade as a complete one. Schema `/3`
/// added the seed axis and per-point seed aggregates; the failed-cell
/// manifest this section reads is unchanged between the two.
pub fn degraded_cells_section(scenario_json: &str) -> Result<String, String> {
    if !scenario_json.contains("\"schema\": \"flywheel-scenarios/2\"")
        && !scenario_json.contains("\"schema\": \"flywheel-scenarios/3\"")
    {
        return Err(
            "scenario JSON: unknown or missing schema (need flywheel-scenarios/2 or /3)".to_owned(),
        );
    }
    let mut out = String::new();
    out.push_str("\n## Degraded cells\n\n");
    let mut rows = String::new();
    let mut failed = 0;
    for line in scenario_json.lines() {
        let line = line.trim();
        if !line.starts_with("{\"label\":") {
            continue;
        }
        let (Some(label), Some(cause), Some(attempts), Some(detail)) = (
            json_field(line, "label"),
            json_field(line, "cause"),
            json_field(line, "attempts"),
            json_field(line, "detail"),
        ) else {
            return Err(format!(
                "scenario JSON: malformed failed-cell line '{line}'"
            ));
        };
        rows.push_str(&format!(
            "| `{label}` | {cause} | {attempts} | {detail} |\n"
        ));
        failed += 1;
    }
    // Only the `cells` array: seed-aggregate objects also start `{"bench":`.
    let cell_count = scenario_json
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "\"cells\": [")
        .take_while(|l| !l.starts_with(']'))
        .filter(|l| l.starts_with("{\"bench\":"))
        .count();
    if failed == 0 {
        out.push_str(&format!(
            "Complete run: all {cell_count} cells simulated, none failed.\n"
        ));
    } else {
        out.push_str(&format!(
            "**Degraded run**: {failed} of {} cells failed after bounded retries; \
             the sweep completed without them. Re-run the scenario (warm cells are\n\
             recalled from the store) to fill the gaps.\n\n",
            cell_count + failed,
        ));
        out.push_str("| cell | cause | attempts | detail |\n");
        out.push_str("|------|-------|---------:|--------|\n");
        out.push_str(&rows);
    }
    Ok(out)
}

/// Per-cell accumulation behind [`telemetry_section`].
#[derive(Default)]
struct CellTelemetry {
    events: u64,
    /// ROB occupancy per sample, in recording order (the sparkline's raw
    /// data).
    rob_samples: Vec<u32>,
    /// Closed (and one possibly-open) Execution-Cache intervals, back-end
    /// cycles: `(enter, Some(exit))` or `(enter, None)` when the run ended
    /// while still resident.
    ec_intervals: Vec<(u64, Option<u64>)>,
    open_enter: Option<u64>,
    gated_fe_cycles: u64,
    pool_stalls: u64,
    last_be_cycle: u64,
}

impl CellTelemetry {
    fn feed(&mut self, event: &TelemetryEvent) {
        self.events += 1;
        match *event {
            TelemetryEvent::Occupancy { be_cycle, rob, .. } => {
                self.rob_samples.push(rob);
                self.last_be_cycle = self.last_be_cycle.max(be_cycle);
            }
            TelemetryEvent::EcEnter { be_cycle } => {
                self.open_enter = Some(be_cycle);
                self.last_be_cycle = self.last_be_cycle.max(be_cycle);
            }
            TelemetryEvent::EcExit { be_cycle } => {
                if let Some(enter) = self.open_enter.take() {
                    self.ec_intervals.push((enter, Some(be_cycle)));
                }
                self.last_be_cycle = self.last_be_cycle.max(be_cycle);
            }
            TelemetryEvent::PoolStall { be_cycle, stalls } => {
                self.pool_stalls += stalls;
                self.last_be_cycle = self.last_be_cycle.max(be_cycle);
            }
            TelemetryEvent::GatedInterval {
                domain: ClockDomain::FrontEnd,
                cycles,
                ..
            } => self.gated_fe_cycles += cycles,
            TelemetryEvent::GatedInterval { .. } => {}
        }
    }

    /// Converts a dangling `EcEnter` (run ended while resident) into an
    /// open-ended interval; called once after the whole log has been fed.
    fn finish(&mut self) {
        if let Some(enter) = self.open_enter.take() {
            self.ec_intervals.push((enter, None));
        }
    }

    /// Back-end cycles spent inside the Execution Cache; an interval still
    /// open at end of log is counted up to the last cycle any event stamped.
    fn ec_resident_cycles(&self) -> u64 {
        self.ec_intervals
            .iter()
            .map(|&(enter, exit)| exit.unwrap_or(self.last_be_cycle).saturating_sub(enter))
            .sum()
    }

    fn ec_visits(&self) -> usize {
        self.ec_intervals.len()
    }

    fn ec_timeline(&self) -> String {
        const MAX_SHOWN: usize = 8;
        if self.ec_intervals.is_empty() {
            return "never entered".to_owned();
        }
        let mut out = String::new();
        for &(enter, exit) in self.ec_intervals.iter().take(MAX_SHOWN) {
            if !out.is_empty() {
                out.push(' ');
            }
            match exit {
                Some(e) => out.push_str(&format!("[{enter}, {e})")),
                None => out.push_str(&format!("[{enter}, end)")),
            }
        }
        if self.ec_intervals.len() > MAX_SHOWN {
            out.push_str(&format!(" +{} more", self.ec_intervals.len() - MAX_SHOWN));
        }
        out
    }
}

/// Compresses `values` into a `width`-character Unicode bar sparkline
/// (linear scale against the series maximum).
fn sparkline(values: &[u32], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let max = u64::from(values.iter().copied().max().unwrap_or(0).max(1));
    let buckets = width.min(values.len()).max(1);
    let mut out = String::new();
    for b in 0..buckets {
        let lo = b * values.len() / buckets;
        let hi = (((b + 1) * values.len()) / buckets).max(lo + 1);
        let mean = values[lo..hi].iter().map(|&v| u64::from(v)).sum::<u64>() / (hi - lo) as u64;
        out.push(BARS[(mean * 7 / max) as usize]);
    }
    out
}

/// Renders the "Kernel telemetry" RESULTS.md section from a parsed
/// `flywheel-telemetry/1` event log: a per-cell summary table (event counts,
/// ROB occupancy, Execution-Cache residency, gating, pool stalls) followed by
/// per-cell EC-residency timelines and ROB-occupancy sparklines. Cells appear
/// in (label, key) order, so a log renders the same whichever worker or
/// shard order its cell blocks were written in.
pub fn telemetry_section(log: &TelemetryLog) -> String {
    let mut out = String::new();
    out.push_str("\n## Kernel telemetry\n\n");
    out.push_str(&format!(
        "From the `flywheel-telemetry/1` event log (`--telemetry`; see\n\
         ARCHITECTURE.md). Log verdict: {}.\n",
        log.describe()
    ));
    if log.records.is_empty() {
        out.push_str(
            "\nThe log contains no events — telemetry was armed but every cell was\n\
             recalled from the result store (recalled cells simulate nothing).\n",
        );
        return out;
    }

    // Group by cell, in canonical (label, key) order.
    let mut cells: BTreeMap<(&str, StoreKey), CellTelemetry> = BTreeMap::new();
    for r in &log.records {
        cells.entry((&r.label, r.key)).or_default().feed(&r.event);
    }
    for c in cells.values_mut() {
        c.finish();
    }

    out.push_str(
        "\n| cell | events | occ samples | ROB mean/max | EC visits | EC-resident be-cycles | gated fe-cycles | pool stalls |\n\
         |------|-------:|------------:|-------------:|----------:|----------------------:|----------------:|------------:|\n",
    );
    for ((label, _), c) in &cells {
        let (rob_mean, rob_max) = if c.rob_samples.is_empty() {
            (0, 0)
        } else {
            let sum: u64 = c.rob_samples.iter().map(|&v| u64::from(v)).sum();
            (
                sum / c.rob_samples.len() as u64,
                u64::from(*c.rob_samples.iter().max().unwrap_or(&0)),
            )
        };
        out.push_str(&format!(
            "| `{label}` | {} | {} | {rob_mean}/{rob_max} | {} | {} | {} | {} |\n",
            c.events,
            c.rob_samples.len(),
            c.ec_visits(),
            c.ec_resident_cycles(),
            c.gated_fe_cycles,
            c.pool_stalls,
        ));
    }

    out.push_str(
        "\nPer-cell timelines (Execution-Cache residency as `[enter, exit)` back-end\n\
         cycle intervals; ROB occupancy as a time-ordered sparkline):\n\n",
    );
    for ((label, key), c) in &cells {
        out.push_str(&format!("- `{label}` (key `{}…`)\n", &key.hex()[..8]));
        out.push_str(&format!("  - EC residency: {}\n", c.ec_timeline()));
        if !c.rob_samples.is_empty() {
            out.push_str(&format!(
                "  - ROB occupancy: `{}` ({} samples)\n",
                sparkline(&c.rob_samples, 32),
                c.rob_samples.len(),
            ));
        }
    }
    out
}

/// Assembles the full RESULTS.md artifact from the store.
pub fn results_markdown(src: &mut Source<'_>, budget: SimBudget) -> Result<String, String> {
    let tables = all_figure_tables(src, budget)?;
    let mut out = String::new();
    out.push_str("# RESULTS\n\n");
    out.push_str(
        "Regenerated from the content-addressed result store by\n\
         `cargo run --release -p flywheel-report --bin report`. **Do not edit by\n\
         hand** — CI runs `report --check` and fails when this file disagrees\n\
         with the store. To refresh after a legitimate behaviour change:\n\
         regenerate `golden.txt`, re-populate the store, and re-run the report\n\
         binary (see EXPERIMENTS.md).\n\n",
    );
    out.push_str(&format!(
        "Store: schema `{}`, code-version salt `{:016x}` (derived from the\n\
         committed `golden.txt`, so records can never outlive a simulator\n\
         behaviour change). Budget: {} warm-up + {} measured instructions per\n\
         cell, seed {}.\n",
        flywheel_bench::store::STORE_SCHEMA,
        flywheel_bench::store::code_version_salt(),
        budget.warmup_instructions,
        budget.measured_instructions,
        EXPERIMENT_SEED,
    ));
    out.push_str("\n## Figure tables\n\n```text");
    out.push_str(&tables);
    out.push_str("```\n");
    out.push_str(
        "\n## Simulator throughput\n\n\
         Measure the simulator's own speed with `python3 perfbench/run.py`, which\n\
         times every workload over repeated samples and reports their spread.\n",
    );
    Ok(out)
}

/// The generated EXPERIMENTS.md section (between the report markers).
pub fn experiments_block(src: &mut Source<'_>, budget: SimBudget) -> Result<String, String> {
    let tables = all_figure_tables(src, budget)?;
    Ok(format!(
        "{BLOCK_BEGIN}\n\
         The tables below are regenerated from the result store by\n\
         `cargo run --release -p flywheel-report --bin report` (checked by CI via\n\
         `report --check`; budget {} + {} instructions, seed {}):\n\n```text{tables}```\n{BLOCK_END}",
        budget.warmup_instructions, budget.measured_instructions, EXPERIMENT_SEED,
    ))
}

/// Extracts the generated block (markers included) from a document.
pub fn extract_block(doc: &str) -> Result<&str, String> {
    let start = doc
        .find(BLOCK_BEGIN)
        .ok_or_else(|| format!("missing '{BLOCK_BEGIN}' marker"))?;
    let end = doc
        .find(BLOCK_END)
        .ok_or_else(|| format!("missing '{BLOCK_END}' marker"))?;
    if end < start {
        return Err("generated-block markers out of order".to_owned());
    }
    if doc[start + BLOCK_BEGIN.len()..].contains(BLOCK_BEGIN)
        || doc[end + BLOCK_END.len()..].contains(BLOCK_END)
    {
        return Err("duplicate generated-block markers".to_owned());
    }
    Ok(&doc[start..end + BLOCK_END.len()])
}

/// Replaces the generated block of `doc` with `block` (which must carry the
/// markers, as produced by [`experiments_block`]).
pub fn patch_block(doc: &str, block: &str) -> Result<String, String> {
    let current = extract_block(doc)?;
    Ok(doc.replacen(current, block, 1))
}

/// Compares a document's generated block against the expected one; on
/// mismatch, reports the first diverging line.
pub fn check_block(doc: &str, expected_block: &str, what: &str) -> Result<(), String> {
    diff_texts(extract_block(doc)?, expected_block, what)
}

/// Byte-compares two documents, reporting the first diverging line.
pub fn diff_texts(actual: &str, expected: &str, what: &str) -> Result<(), String> {
    if actual == expected {
        return Ok(());
    }
    let mut a = actual.lines();
    let mut e = expected.lines();
    let mut line = 1;
    loop {
        match (a.next(), e.next()) {
            (Some(x), Some(y)) if x == y => line += 1,
            (x, y) => {
                return Err(format!(
                    "{what}: out of sync with the store at line {line}\n  committed: {}\n  expected:  {}",
                    x.unwrap_or("<end of file>"),
                    y.unwrap_or("<end of file>"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_patching_round_trips() {
        let doc = format!("intro\n{BLOCK_BEGIN}\nold\n{BLOCK_END}\noutro\n");
        let block = format!("{BLOCK_BEGIN}\nnew\n{BLOCK_END}");
        let patched = patch_block(&doc, &block).unwrap();
        assert_eq!(
            patched,
            format!("intro\n{BLOCK_BEGIN}\nnew\n{BLOCK_END}\noutro\n")
        );
        check_block(&patched, &block, "doc").unwrap();
        assert!(check_block(&doc, &block, "doc").is_err());
        assert!(extract_block("no markers").is_err());
        let dup = format!("{BLOCK_BEGIN}\n{BLOCK_END}\n{BLOCK_BEGIN}\n{BLOCK_END}");
        assert!(extract_block(&dup).is_err());
    }

    #[test]
    fn degraded_cells_section_renders_manifest_or_all_clear() {
        let clean = "{\n  \"schema\": \"flywheel-scenarios/2\",\n  \"failed_count\": 0,\n  \"cells\": [\n    {\"bench\": \"gzip\", \"seed\": 2005}\n  ],\n  \"failed_cells\": [\n  ]\n}\n";
        let section = degraded_cells_section(clean).unwrap();
        assert!(section.contains("## Degraded cells"));
        assert!(section.contains("Complete run: all 1 cells simulated"));

        let degraded = "{\n  \"schema\": \"flywheel-scenarios/2\",\n  \"failed_count\": 1,\n  \"cells\": [\n    {\"bench\": \"gzip\", \"seed\": 2005}\n  ],\n  \"failed_cells\": [\n    {\"label\": \"flywheel/gzip/s7\", \"cause\": \"timeout\", \"attempts\": 3, \"detail\": \"watchdog tripped\"}\n  ]\n}\n";
        let section = degraded_cells_section(degraded).unwrap();
        assert!(section.contains("1 of 2 cells failed"));
        assert!(section.contains("| `flywheel/gzip/s7` | timeout | 3 | watchdog tripped |"));

        // Schema /3 (seed axis + aggregates) renders identically.
        let v3 = "{\n  \"schema\": \"flywheel-scenarios/3\",\n  \"failed_count\": 0,\n  \"seeds\": [1, 2],\n  \"cells\": [\n    {\"bench\": \"gzip\", \"seed\": 1}\n  ],\n  \"failed_cells\": [\n  ],\n  \"seed_aggregates\": [\n  ]\n}\n";
        let section = degraded_cells_section(v3).unwrap();
        assert!(section.contains("Complete run: all 1 cells simulated"));

        assert!(degraded_cells_section("{}").is_err());
        let v1 = "{\n  \"schema\": \"flywheel-scenarios/1\"\n}\n";
        assert!(degraded_cells_section(v1).is_err());
    }

    #[test]
    fn degraded_cells_section_counts_cells_not_seed_aggregates() {
        use flywheel_bench::scenario::{FailCause, FailedCell};

        let mut s = Scenario::new("seeds", SimBudget::new(200, 1_000));
        s.benchmarks = vec![Benchmark::Micro];
        s.seeds = vec![1, 2, 3];
        let mut run = s.run();
        let section = degraded_cells_section(&run.to_json()).unwrap();
        assert!(
            section.contains("Complete run: all 6 cells simulated"),
            "{section}"
        );

        run.results.pop();
        let cell = run.cells.pop().unwrap();
        let cause = FailCause::Panic("injected".to_owned());
        run.failed.push(FailedCell {
            cell,
            cause,
            attempts: 1,
        });
        let section = degraded_cells_section(&run.to_json()).unwrap();
        assert!(section.contains("1 of 6 cells failed"), "{section}");
    }

    #[test]
    fn telemetry_section_renders_timelines_and_accounting() {
        use flywheel_bench::store::StoreKey;
        use flywheel_bench::telemetry::TelemetryRecord;

        let key = StoreKey::of_input("cell-a");
        let rec = |event| TelemetryRecord {
            key,
            label: "flywheel/gzip/s2005".to_owned(),
            event,
        };
        let mut records = vec![
            rec(TelemetryEvent::EcEnter { be_cycle: 100 }),
            rec(TelemetryEvent::Occupancy {
                be_cycle: 128,
                iw: 4,
                rob: 10,
                frontend_q: 2,
                lsq: 3,
            }),
            rec(TelemetryEvent::EcExit { be_cycle: 300 }),
            rec(TelemetryEvent::GatedInterval {
                domain: ClockDomain::FrontEnd,
                start_cycle: 40,
                cycles: 80,
            }),
            rec(TelemetryEvent::PoolStall {
                be_cycle: 310,
                stalls: 17,
            }),
            rec(TelemetryEvent::Occupancy {
                be_cycle: 400,
                iw: 4,
                rob: 30,
                frontend_q: 2,
                lsq: 3,
            }),
            // A second visit left open at end of run.
            rec(TelemetryEvent::EcEnter { be_cycle: 500 }),
        ];
        // A second cell interleaved into the same log.
        records.push(TelemetryRecord {
            key: StoreKey::of_input("cell-b"),
            label: "baseline/gzip/s2005".to_owned(),
            event: TelemetryEvent::Occupancy {
                be_cycle: 64,
                iw: 1,
                rob: 5,
                frontend_q: 1,
                lsq: 0,
            },
        });
        let log = TelemetryLog {
            records,
            damaged_lines: 0,
        };
        let section = telemetry_section(&log);
        assert!(section.contains("## Kernel telemetry"), "{section}");
        assert!(section.contains("clean (8 events"), "{section}");
        // Cell A: 7 events, 2 occ samples, ROB mean 20 max 30, 2 EC visits,
        // resident (300-100) + (500-500 → last cycle 500) = 200, gated 80,
        // 17 aggregated pool stalls.
        assert!(
            section.contains("| `flywheel/gzip/s2005` | 7 | 2 | 20/30 | 2 | 200 | 80 | 17 |"),
            "{section}"
        );
        assert!(
            section.contains("- EC residency: [100, 300) [500, end)"),
            "{section}"
        );
        assert!(section.contains("(2 samples)"), "{section}");
        // Cell B renders its own row, in (label, key) order before cell A.
        assert!(
            section.contains("| `baseline/gzip/s2005` | 1 | 1 | 5/5 | 0 | 0 | 0 | 0 |"),
            "{section}"
        );
        let row = |label: &str| section.find(&format!("| `{label}` |")).unwrap();
        assert!(row("baseline/gzip/s2005") < row("flywheel/gzip/s2005"));
        assert!(
            section.contains("- EC residency: never entered"),
            "{section}"
        );
    }

    #[test]
    fn telemetry_section_handles_an_empty_log() {
        let log = TelemetryLog::default();
        let section = telemetry_section(&log);
        assert!(section.contains("clean (0 events"), "{section}");
        assert!(section.contains("contains no events"), "{section}");
        assert!(!section.contains("| cell |"), "{section}");
    }

    #[test]
    fn sparklines_compress_and_scale() {
        assert_eq!(sparkline(&[], 8), "");
        assert_eq!(sparkline(&[0, 0], 8), "▁▁");
        let s = sparkline(&[0, 1, 2, 3, 4, 5, 6, 7], 8);
        assert_eq!(s, "▁▂▃▄▅▆▇█");
        // More samples than width: bucketed down to `width` characters.
        let many: Vec<u32> = (0..100).collect();
        assert_eq!(sparkline(&many, 16).chars().count(), 16);
    }

    #[test]
    fn read_only_source_refuses_to_simulate() {
        let mut store = ResultStore::in_memory();
        let mut src = Source::read_only(&mut store);
        let err = src
            .run(&Scenario::fig2(SimBudget::new(100, 400)))
            .unwrap_err();
        assert!(err.contains("no stored record"), "got: {err}");
        assert_eq!(src.summary(), StoreSummary::default());
        assert!(store.is_empty());
    }

    #[test]
    fn sensitivity_seed_axis_is_sorted_unique_and_anchored() {
        let seeds = sensitivity_seeds();
        assert!(
            seeds.len() >= 5,
            "need at least five seeds for a t-based CI"
        );
        assert_eq!(
            seeds[0], EXPERIMENT_SEED,
            "first seed must be the figures' seed"
        );
        for w in seeds.windows(2) {
            assert!(w[0] < w[1], "seed axis must be sorted and duplicate-free");
        }
    }

    #[test]
    fn ci_width_gate_accepts_tight_and_rejects_wide_intervals() {
        let real = SimBudget::new(50_000, 250_000);
        // Five seeds of a stable metric: ~1% spread, comfortably inside the gate.
        let tight = Aggregate::of([1.00, 1.01, 0.99, 1.00, 1.01]);
        check_ci("stable", &tight, real).unwrap();

        // A wild metric: the half-width dwarfs the mean.
        let wide = Aggregate::of([0.1, 2.0, 0.1, 2.0, 0.1]);
        let err = check_ci("unstable", &wide, real).unwrap_err();
        assert!(err.contains("implausibly wide"), "got: {err}");
        assert!(err.contains("unstable"), "got: {err}");

        // At a toy budget the width gate is waived (noise is expected)...
        check_ci("unstable", &wide, SimBudget::new(100, 400)).unwrap();
        // ...but degenerate values are refused at any budget.
        let nan = Aggregate::of([f64::NAN, 1.0]);
        let err = check_ci("nan", &nan, SimBudget::new(100, 400)).unwrap_err();
        assert!(err.contains("degenerate"), "got: {err}");
    }

    #[test]
    fn ci_tables_render_means_and_half_widths() {
        let rows = vec![
            CiRow {
                bench: "gzip",
                values: vec![(0.875, 0.0123), (1.25, 0.004)],
            },
            CiRow {
                bench: "vpr",
                values: vec![(0.925, 0.0077), (1.35, 0.006)],
            },
        ];
        let table = format_ci_table(
            "Seed sensitivity (test)",
            &["reg-alloc".to_owned(), "flywheel".to_owned()],
            &rows,
        );
        assert!(table.contains("== Seed sensitivity (test) =="), "{table}");
        assert!(
            table.contains("gzip          0.875 ±0.0123    1.250 ±0.0040"),
            "{table}"
        );
        // Average row: mean of means, mean of half-widths.
        assert!(
            table.contains("average       0.900 ±0.0100    1.300 ±0.0050"),
            "{table}"
        );
    }
}
