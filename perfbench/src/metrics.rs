//! Named metrics, their summary statistics, and the result line.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// For a ratio: what it divides, and its numerator and denominator.
    pub basis: Option<Basis>,
}

/// The numerator and denominator of a ratio metric.
#[derive(Debug, Clone)]
pub struct Basis {
    /// What is divided, e.g. `hits/lookups`.
    pub what: &'static str,
    /// Numerator.
    pub num: f64,
    /// Denominator.
    pub den: f64,
    /// Unit of numerator and denominator.
    pub unit: &'static str,
}

impl Metric {
    /// A metric without a ratio basis.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            basis: None,
        }
    }

    /// A ratio `num / den` of two counts (0 when `den` is 0).
    pub fn ratio(name: &str, what: &'static str, num: u64, den: u64) -> Self {
        Metric::ratio_of(name, what, num as f64, den as f64, "count")
    }

    /// A ratio `num / den` of two quantities in `unit` (0 when `den` is 0).
    pub fn ratio_of(
        name: &str,
        what: &'static str,
        num: f64,
        den: f64,
        unit: &'static str,
    ) -> Self {
        Metric {
            name: name.to_owned(),
            value: if den == 0.0 { 0.0 } else { num / den },
            unit: "ratio",
            basis: Some(Basis {
                what,
                num,
                den,
                unit,
            }),
        }
    }

    /// The metric followed by its numerator and denominator as metrics of
    /// their own (`<name>.num`, `<name>.den`).
    pub fn with_basis(&self) -> Vec<Metric> {
        let mut out = vec![self.clone()];
        if let Some(b) = &self.basis {
            out.push(Metric::new(format!("{}.num", self.name), b.num, b.unit));
            out.push(Metric::new(format!("{}.den", self.name), b.den, b.unit));
        }
        out
    }

    /// The human-readable line for this metric.
    pub fn line(&self) -> String {
        let mut s = format!(
            "{:<34} {:>18} {}",
            self.name,
            fmt_value(self.value),
            self.unit
        );
        if let Some(b) = &self.basis {
            let _ = write!(
                s,
                "  ({} = {}/{} {})",
                b.what,
                fmt_value(b.num),
                fmt_value(b.den),
                b.unit
            );
        }
        s
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between the
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's peak resident set (`VmHWM`) in MB, 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the metrics by name.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9), 91.0);
    }

    #[test]
    fn result_json_carries_every_metric_with_its_unit() {
        let line = result_json(true, 3, 0, &[Metric::new("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let r = Metric::ratio("store.hit_ratio", "hits/lookups", 20, 120);
        assert!(r.line().contains("(hits/lookups = 20/120 count)"));
        let names: Vec<String> = r.with_basis().into_iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "store.hit_ratio",
                "store.hit_ratio.num",
                "store.hit_ratio.den"
            ]
        );
        assert_eq!(Metric::ratio("x", "a/b", 1, 0).value, 0.0);
    }
}
