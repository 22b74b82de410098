//! Metric values and the one-line JSON result.

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// A finished run: counts, metrics, and every failed check.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Solves attempted.
    pub attempted: u64,
    /// Solves that returned an error.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Failed checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl RunResult {
    /// A run that could not get as far as solving.
    pub fn broken(error: String) -> RunResult {
        RunResult { attempted: 1, failed: 1, errors: vec![error], ..RunResult::default() }
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a non-finite value is a
                // bug the name check in the tests would not catch.
                let v = if m.value.is_finite() { m.value } else { -1.0 };
                format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set (`VmHWM`) of this process in MB, or 0 where
/// `/proc` is unavailable.
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

/// True when `name` matches `[A-Za-z0-9_.-]+`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_in_order() {
        let r = RunResult {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("solve_ms.p50", 1.5, "ms")],
            errors: vec![],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"solve_ms.p50\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("anneal.embed.ms"));
        assert!(valid_name("solve_ms.p50"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
        assert!(!valid_name("x/y"));
    }
}
