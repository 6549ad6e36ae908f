//! Textual scenario specs: a [`Scenario`] serialized as one line of
//! `key=value` fields, round-trippable byte-for-byte through
//! [`scenario_to_spec`]/[`scenario_from_spec`].
//!
//! This is the wire format of the supervision layer: the supervisor hands a
//! worker process its grid as a spec string (one argv token, no files to
//! clean up), and `flywheel-serve` accepts the same string as a `POST /sweep`
//! body. Keeping it a pure function of the scenario — stable field order,
//! defaults written out explicitly — means equal scenarios produce equal
//! spec strings, which the determinism tests lean on.
//!
//! Grammar: semicolon-separated `key=value` fields; list-valued fields use
//! commas between elements and `:` inside pairs.
//!
//! ```text
//! name=smoke;benches=gzip,ptrchase,ststorm;machines=baseline,flywheel;
//! nodes=130;clocks=0:50,50:50;baseline-clock=0:0;windows=64:64,128:128;
//! ec=64,128;mem=100;seeds=12022;warmup=2000;measured=8000
//! ```
//!
//! A spec of the form `preset=NAME` (optionally with `warmup=`/`measured=`
//! overrides) expands to the named [`Scenario::preset`] instead, so callers
//! can say `preset=smoke` without spelling out the grid.

use crate::scenario::{Machine, Scenario};
use flywheel_timing::TechNode;
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;

/// Why a [`Scenario`] could not be serialized into the spec grammar.
///
/// The grammar has no escaping: `;` separates fields, `=` separates key from
/// value, and the spec travels as one argv token / HTTP-body line. A
/// free-form value carrying one of those bytes would serialize into a string
/// that parses as a *different* scenario (or a parse error) — so
/// serialization refuses it instead of corrupting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The value contains a character the grammar reserves: `;`, `=`, or a
    /// newline.
    ReservedChar {
        /// The scenario field holding the hostile value.
        field: &'static str,
        /// The reserved character found.
        ch: char,
        /// The offending value.
        value: String,
    },
    /// The value starts or ends with whitespace, which the parser trims —
    /// it would not survive a round-trip byte-for-byte.
    UntrimmedValue {
        /// The scenario field holding the value.
        field: &'static str,
        /// The offending value.
        value: String,
    },
    /// The seed axis repeats a seed. A duplicate would silently
    /// double-weight one program in every multi-seed aggregate, so the spec
    /// layer refuses to carry it.
    DuplicateSeed {
        /// The repeated seed.
        seed: u64,
    },
    /// The seed axis is not sorted ascending. The axis is a set; an
    /// order-dependent spelling would make equal scenarios serialize to
    /// different specs (and different content, under a careless reader).
    UnsortedSeeds {
        /// The seed appearing out of order.
        prev: u64,
        /// The smaller seed that follows it.
        next: u64,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ReservedChar { field, ch, value } => write!(
                f,
                "scenario field '{field}' contains reserved character {ch:?} \
                 and cannot be serialized: {value:?}"
            ),
            SpecError::UntrimmedValue { field, value } => write!(
                f,
                "scenario field '{field}' has leading or trailing whitespace \
                 and would not round-trip: {value:?}"
            ),
            SpecError::DuplicateSeed { seed } => write!(
                f,
                "scenario field 'seeds' repeats seed {seed}; each seed may \
                 appear only once"
            ),
            SpecError::UnsortedSeeds { prev, next } => write!(
                f,
                "scenario field 'seeds' is not sorted ascending ({prev} \
                 before {next})"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Rejects free-form values the grammar cannot carry (see [`SpecError`]).
fn check_free_form(field: &'static str, value: &str) -> Result<(), SpecError> {
    if let Some(ch) = value.chars().find(|c| matches!(c, ';' | '=' | '\n' | '\r')) {
        return Err(SpecError::ReservedChar {
            field,
            ch,
            value: value.to_owned(),
        });
    }
    if value.trim() != value {
        return Err(SpecError::UntrimmedValue {
            field,
            value: value.to_owned(),
        });
    }
    Ok(())
}

/// Rejects seed axes the spec (and the scenario layer) refuses to carry:
/// duplicates and unsorted lists (see the [`SpecError`] variants).
pub fn check_seed_axis(seeds: &[u64]) -> Result<(), SpecError> {
    for pair in seeds.windows(2) {
        if pair[1] == pair[0] {
            return Err(SpecError::DuplicateSeed { seed: pair[0] });
        }
        if pair[1] < pair[0] {
            return Err(SpecError::UnsortedSeeds {
                prev: pair[0],
                next: pair[1],
            });
        }
    }
    Ok(())
}

/// Serializes `s` into the spec grammar. Stable field order and explicit
/// defaults: equal scenarios yield equal strings. Free-form fields (only the
/// name today) are checked against the grammar's reserved characters rather
/// than corrupted into it.
pub fn scenario_to_spec(s: &Scenario) -> Result<String, SpecError> {
    check_free_form("name", &s.name)?;
    check_seed_axis(&s.seeds)?;
    let join = |items: Vec<String>| items.join(",");
    let pairs = |ps: &[(u32, u32)]| join(ps.iter().map(|(a, b)| format!("{a}:{b}")).collect());
    Ok(format!(
        "name={};benches={};machines={};nodes={};clocks={};baseline-clock={}:{};windows={};ec={};mem={};seeds={};warmup={};measured={}",
        s.name,
        join(s.benchmarks.iter().map(|b| b.name().to_owned()).collect()),
        join(s.machines.iter().map(|m| m.name().to_owned()).collect()),
        join(s.nodes.iter().map(|n| n.feature_nm().to_string()).collect()),
        pairs(&s.clocks),
        s.baseline_clock.0,
        s.baseline_clock.1,
        pairs(&s.windows),
        join(s.ec_kb.iter().map(u64::to_string).collect()),
        join(s.mem_cycles.iter().map(u32::to_string).collect()),
        join(s.seeds.iter().map(u64::to_string).collect()),
        s.budget.warmup_instructions,
        s.budget.measured_instructions,
    ))
}

fn parse_pair(field: &str, value: &str) -> Result<(u32, u32), String> {
    let (a, b) = value
        .split_once(':')
        .ok_or_else(|| format!("spec field '{field}': '{value}' is not A:B"))?;
    let parse = |v: &str| {
        v.parse::<u32>()
            .map_err(|_| format!("spec field '{field}': '{v}' is not a number"))
    };
    Ok((parse(a)?, parse(b)?))
}

fn parse_list<T>(
    field: &str,
    value: &str,
    mut one: impl FnMut(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    value
        .split(',')
        .filter(|v| !v.is_empty())
        .map(|v| one(v.trim()).map_err(|e| format!("spec field '{field}': {e}")))
        .collect()
}

/// Parses the spec grammar back into a [`Scenario`].
///
/// `preset=NAME` expands the named preset first; any further fields override
/// the preset's values. The result is validated ([`Scenario::validate`])
/// before it is returned, so a syntactically fine but empty-axis spec is
/// still rejected.
pub fn scenario_from_spec(spec: &str) -> Result<Scenario, String> {
    let fields: Vec<(&str, &str)> = spec
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|part| {
            part.split_once('=')
                .ok_or_else(|| format!("spec field '{part}' is not key=value"))
        })
        .collect::<Result<_, _>>()?;

    let mut warmup: Option<u64> = None;
    let mut measured: Option<u64> = None;
    for &(key, value) in &fields {
        let n = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("spec field '{key}': '{value}' is not a number"))
        };
        match key {
            "warmup" => warmup = Some(n()?),
            "measured" => measured = Some(n()?),
            _ => {}
        }
    }
    let budget = SimBudget::new(warmup.unwrap_or(2_000), measured.unwrap_or(8_000));

    let mut scenario = match fields.iter().find(|(k, _)| *k == "preset") {
        Some(&(_, name)) => Scenario::preset(name, budget)
            .ok_or_else(|| format!("unknown scenario preset '{name}'"))?,
        None => Scenario::new("spec", budget),
    };

    for (key, value) in fields {
        match key {
            "preset" | "warmup" | "measured" => {}
            "name" => scenario.name = value.to_owned(),
            "benches" | "benchmarks" => {
                scenario.benchmarks = parse_list(key, value, |v| {
                    Benchmark::from_name(v).ok_or_else(|| format!("unknown benchmark '{v}'"))
                })?;
            }
            "machines" => {
                scenario.machines = parse_list(key, value, |v| {
                    Machine::from_name(v).ok_or_else(|| format!("unknown machine '{v}'"))
                })?;
            }
            "nodes" => {
                scenario.nodes = parse_list(key, value, |v| {
                    let nm: u32 = v
                        .parse()
                        .map_err(|_| format!("'{v}' is not a feature size"))?;
                    TechNode::all()
                        .iter()
                        .copied()
                        .find(|n| n.feature_nm() == nm)
                        .ok_or_else(|| format!("no {nm} nm technology node"))
                })?;
            }
            "clocks" => {
                scenario.clocks = parse_list(key, value, |v| parse_pair(key, v))?;
            }
            "baseline-clock" | "baseline_clock" => {
                scenario.baseline_clock = parse_pair(key, value)?;
            }
            "windows" => {
                scenario.windows = parse_list(key, value, |v| parse_pair(key, v))?;
            }
            "ec" | "ec-kb" | "ec_kb" => {
                scenario.ec_kb = parse_list(key, value, |v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("'{v}' is not a number"))
                })?;
            }
            "mem" | "mem-cycles" | "mem_cycles" => {
                scenario.mem_cycles = parse_list(key, value, |v| {
                    v.parse::<u32>()
                        .map_err(|_| format!("'{v}' is not a number"))
                })?;
            }
            "seeds" => {
                scenario.seeds = parse_list(key, value, |v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("'{v}' is not a number"))
                })?;
                // Reject hostile seed lists at the parse site with the typed
                // error's wording (Scenario::validate backstops this too).
                check_seed_axis(&scenario.seeds).map_err(|e| e.to_string())?;
            }
            other => return Err(format!("unknown spec field '{other}'")),
        }
    }
    scenario.validate()?;
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flywheel_workloads::Benchmark;

    fn axes(s: &Scenario) -> impl std::fmt::Debug + PartialEq + '_ {
        (
            &s.name,
            &s.benchmarks,
            &s.machines,
            &s.nodes,
            &s.clocks,
            s.baseline_clock,
            &s.windows,
            &s.ec_kb,
            &s.mem_cycles,
            &s.seeds,
            s.budget,
        )
    }

    #[test]
    fn every_preset_round_trips() {
        let budget = SimBudget::new(2_000, 8_000);
        for s in [
            Scenario::smoke(),
            Scenario::fig2(budget),
            Scenario::fig11(budget),
            Scenario::fig12(budget),
            Scenario::fig15(budget),
            Scenario::ec_residency(budget),
            Scenario::stress(budget),
            Scenario::leakage(budget),
            Scenario::multidomain(budget),
            Scenario::dvfs(budget),
        ] {
            let spec = scenario_to_spec(&s).unwrap();
            let back = scenario_from_spec(&spec).unwrap();
            assert_eq!(axes(&s), axes(&back), "spec '{spec}' must round-trip");
            assert_eq!(
                spec,
                scenario_to_spec(&back).unwrap(),
                "serialization must be stable"
            );
        }
        // Every registered name expands to its own preset.
        for name in Scenario::preset_names() {
            let s = scenario_from_spec(&format!("preset={name}")).unwrap();
            let want = Scenario::preset(name, budget).unwrap();
            assert_eq!(s.name, name);
            assert_eq!(axes(&s), axes(&want));
        }
    }

    #[test]
    fn preset_key_expands_with_overrides() {
        let smoke = Scenario::smoke();
        let s = scenario_from_spec("preset=smoke").unwrap();
        assert_eq!(axes(&s), axes(&smoke));

        let s = scenario_from_spec("preset=smoke;benches=micro;seeds=1,2").unwrap();
        assert_eq!(s.benchmarks, vec![Benchmark::Micro]);
        assert_eq!(s.seeds, vec![1, 2]);
        assert_eq!(
            s.clocks,
            Scenario::smoke().clocks,
            "unset axes keep preset values"
        );

        let s = scenario_from_spec("preset=smoke;warmup=100;measured=500").unwrap();
        assert_eq!(s.budget, SimBudget::new(100, 500));
    }

    /// Deterministic xorshift64 — the tests need many inputs, not true
    /// randomness, and the container has no property-testing crates.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[(self.next() % items.len() as u64) as usize]
        }
    }

    #[test]
    fn random_valid_names_round_trip() {
        const SAFE: &[char] = &[
            'a', 'b', 'z', 'A', 'Z', '0', '9', '-', '_', '.', '/', '+', '#', '!', '(', ')', ':',
            ',', '@',
        ];
        let mut rng = Rng(2005);
        for _ in 0..300 {
            let len = 1 + (rng.next() % 24) as usize;
            let name: String = (0..len).map(|_| rng.pick(SAFE)).collect();
            let mut s = Scenario::smoke();
            s.name = name.clone();
            let spec = scenario_to_spec(&s).unwrap_or_else(|e| panic!("{name:?}: {e}"));
            let back = scenario_from_spec(&spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(back.name, name, "name must survive the round-trip");
            assert_eq!(axes(&s), axes(&back), "spec '{spec}' must round-trip");
        }
    }

    #[test]
    fn hostile_names_are_rejected_not_corrupted() {
        const HOSTILE: &[char] = &[';', '=', '\n', '\r'];
        let mut rng = Rng(1971);
        for _ in 0..300 {
            let len = 1 + (rng.next() % 12) as usize;
            let mut name: Vec<char> = (0..len).map(|_| rng.pick(&['a', 'b', 'c', '7'])).collect();
            let ch = rng.pick(HOSTILE);
            let at = (rng.next() % (len as u64 + 1)) as usize;
            name.insert(at, ch);
            let name: String = name.into_iter().collect();
            let mut s = Scenario::smoke();
            s.name = name.clone();
            match scenario_to_spec(&s) {
                Err(SpecError::ReservedChar {
                    field,
                    ch: found,
                    value,
                }) => {
                    assert_eq!(field, "name");
                    assert_eq!(found, ch);
                    assert_eq!(value, name);
                }
                other => panic!("{name:?} must be a ReservedChar error, got {other:?}"),
            }
        }
        // Edge whitespace is trimmed by the parser: reject, don't corrupt.
        for name in [" x", "x ", "\tx", "x\t", " "] {
            let mut s = Scenario::smoke();
            s.name = name.to_owned();
            assert!(
                matches!(
                    scenario_to_spec(&s),
                    Err(SpecError::UntrimmedValue { field: "name", .. })
                ),
                "{name:?} must be an UntrimmedValue error"
            );
        }
    }

    #[test]
    fn random_sorted_seed_axes_round_trip() {
        let mut rng = Rng(0x5eed_11f7);
        for _ in 0..300 {
            // Build a strictly increasing seed list of 1..=8 entries.
            let len = 1 + (rng.next() % 8) as usize;
            let mut seeds = Vec::with_capacity(len);
            let mut next = rng.next() % 1_000;
            for _ in 0..len {
                seeds.push(next);
                next += 1 + rng.next() % 500;
            }
            let mut s = Scenario::smoke();
            s.seeds = seeds.clone();
            let spec = scenario_to_spec(&s).unwrap_or_else(|e| panic!("{seeds:?}: {e}"));
            let back = scenario_from_spec(&spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(back.seeds, seeds, "seed axis must survive the round-trip");
        }
    }

    #[test]
    fn hostile_seed_axes_are_rejected_with_typed_errors() {
        let mut rng = Rng(0xbad_5eed5);
        for _ in 0..300 {
            let len = 2 + (rng.next() % 6) as usize;
            let mut seeds: Vec<u64> = Vec::with_capacity(len);
            let mut next = rng.next() % 1_000;
            for _ in 0..len {
                seeds.push(next);
                next += 1 + rng.next() % 500;
            }
            let mut s = Scenario::smoke();
            if rng.next().is_multiple_of(2) {
                // Duplicate one seed in place.
                let at = (rng.next() % (len as u64 - 1)) as usize;
                let dup = seeds[at];
                seeds.insert(at, dup);
                s.seeds = seeds;
                match scenario_to_spec(&s) {
                    Err(SpecError::DuplicateSeed { seed }) => assert_eq!(seed, dup),
                    other => panic!("duplicate {dup} must be typed, got {other:?}"),
                }
            } else {
                // Swap an adjacent pair out of order.
                let at = (rng.next() % (len as u64 - 1)) as usize;
                seeds.swap(at, at + 1);
                let (prev, next_s) = (seeds[at], seeds[at + 1]);
                s.seeds = seeds;
                match scenario_to_spec(&s) {
                    Err(SpecError::UnsortedSeeds { prev: p, next: n }) => {
                        // The first out-of-order adjacent pair is reported;
                        // for a single swap that is the swapped pair.
                        assert!(p > n, "reported pair must be inverted");
                        let _ = (prev, next_s);
                    }
                    other => panic!("unsorted list must be typed, got {other:?}"),
                }
            }
        }
        // The parser rejects the same lists with the same wording.
        let err = scenario_from_spec("preset=smoke;seeds=5,5").unwrap_err();
        assert!(err.contains("repeats seed 5"), "got: {err}");
        let err = scenario_from_spec("preset=smoke;seeds=9,4").unwrap_err();
        assert!(err.contains("not sorted ascending"), "got: {err}");
    }

    #[test]
    fn every_registered_family_name_round_trips_through_a_spec() {
        // The machines axis parses through `Machine::from_name`: every
        // machine is spellable in a spec with zero parser edits, and an
        // unknown name stays a typed error (see
        // `bad_specs_are_rejected_with_context`). Pin both the full list and
        // each name individually, so a machine rename breaks here first.
        let names: Vec<&str> = Machine::all().iter().map(|m| m.name()).collect();
        assert!(names.contains(&"multidomain") && names.contains(&"dvfs"));
        let mut s = Scenario::smoke();
        s.machines = Machine::all().to_vec();
        let spec = scenario_to_spec(&s).expect("all families must serialize");
        assert!(spec.contains(&format!("machines={}", names.join(","))));
        let back = scenario_from_spec(&spec).expect("all families must parse back");
        assert_eq!(back.machines, s.machines, "machines axis must round-trip");
        for name in names {
            let one = scenario_from_spec(&format!("name=x;machines={name}"))
                .unwrap_or_else(|e| panic!("machines={name}: {e}"));
            assert_eq!(one.machines, vec![Machine::from_name(name).unwrap()]);
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for (spec, needle) in [
            ("preset=bogus", "unknown scenario preset"),
            ("name=x;benches=nosuch", "unknown benchmark"),
            ("machines=nosuch", "unknown machine"),
            ("nodes=131", "no 131 nm technology node"),
            ("clocks=50", "not A:B"),
            ("warmup=abc", "not a number"),
            ("frobnicate=1", "unknown spec field"),
            ("novalue", "not key=value"),
            ("name=x;benches=,", "axis 'benchmarks' is empty"),
        ] {
            let err = scenario_from_spec(spec).expect_err(spec);
            assert!(
                err.contains(needle),
                "'{spec}' should fail with '{needle}', got '{err}'"
            );
        }
    }
}
