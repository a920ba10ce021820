//! One run's result: the checked-operation counts, the metric values,
//! and a human summary line per metric (with its sample count).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{catalogue, MetricDef};

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Timed operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output did not match the reference, or that
    /// failed outright.
    pub failed: u64,
    values: BTreeMap<&'static str, (f64, String)>,
    /// Free-form lines printed before the metrics (input shape, mix).
    pub notes: Vec<String>,
}

impl Report {
    /// Record metric `name` with `detail` (sample count, source) for
    /// the summary. Panics on a name missing from the catalogue — a
    /// typo here would otherwise vanish into a silent 0.
    pub fn set(&mut self, name: &'static str, value: f64, detail: impl Into<String>) {
        assert!(
            lookup(name).is_some(),
            "metric {name:?} is not in the catalogue"
        );
        self.values.insert(name, (value, detail.into()));
    }

    /// Count one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Summary lines: notes, then one line per reported metric.
    pub fn summary(&self, workload: &str, trace: bool) -> Vec<String> {
        let mut out: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("perfbench: {workload}: {n}"))
            .collect();
        out.push(format!(
            "perfbench: {workload}: {} operations checked, {} failed (error_rate {:.4})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        for m in catalogue(trace) {
            let line = match self.values.get(m.name) {
                Some((v, detail)) => format!("{} = {v:.4} {}  [{detail}]", m.name, m.unit),
                None => format!(
                    "{} = 0 {}  [layer not exercised by this workload]",
                    m.name, m.unit
                ),
            };
            out.push(format!("perfbench: {workload}: {line}"));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// catalogue metric of this mode (0 for a layer the workload does
    /// not exercise).
    pub fn to_json(&self, trace: bool) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, m) in catalogue(trace).iter().enumerate() {
            let v = self.values.get(m.name).map_or(0.0, |(v, _)| *v);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` is Rust's shortest round-trip form: every digit,
            // and exponents (`1e-7`) JSON accepts.
            write!(
                out,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

fn lookup(name: &str) -> Option<&'static MetricDef> {
    catalogue(false)
        .iter()
        .chain(catalogue(true))
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_every_metric_and_the_fixed_keys() {
        let mut r = Report::default();
        r.check(true);
        r.check(false);
        r.set("setup_s", 0.8127, "n=3");
        let j = r.to_json(false);
        assert!(
            j.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {")
        );
        for m in catalogue(false) {
            assert!(j.contains(&format!("\"{}\": {{\"value\": ", m.name)), "{j}");
        }
        assert!(j.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert!(j.ends_with("}}"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_are_refused() {
        Report::default().set("no.such_metric", 1.0, "");
    }
}
