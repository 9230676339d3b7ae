//! The one-line JSON result every run prints last.

use std::fmt::Write as _;

/// Outcome of one benchmark run: how many checked operations ran, how
/// many failed a correctness check, and the named metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations run through a correctness check.
    pub attempted: u64,
    /// Operations that failed one.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds a metric. Non-finite values (a ratio over nothing) read as 0.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(valid_name(&name), "metric name {name:?}");
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// Metric names in emission order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|(name, _, _)| name.as_str())
    }

    /// The value of a metric, if recorded.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// True when at least one operation ran and none failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result as one line of JSON:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    /// Values print with every digit Rust's shortest round-trip
    /// formatting gives (never in exponent form, so always valid JSON).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Whether `name` is a valid metric or workload name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit. Such names
/// need no escaping in JSON.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_charset() {
        for ok in ["solve_s", "candidate.evaluate_delta.ns_p50", "fleet64_portfolio", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in
            ["", "_lead", ".lead", "has space", "quote\"", "semi;colon", "ü", &"a".repeat(65)]
        {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn json_line_has_the_result_shape() {
        let mut report = Report::default();
        report.check(true);
        report.check(false);
        report.metric("solve_s", 0.25, "s");
        report.metric("ratio", f64::NAN, "ratio");
        let line = report.to_json();
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":{\
             \"solve_s\":{\"value\":0.25,\"unit\":\"s\"},\
             \"ratio\":{\"value\":0,\"unit\":\"ratio\"}}}"
        );
        assert!(!line.contains('\n'));
        assert_eq!(report.value("solve_s"), Some(0.25));
    }
}
