//! The result of one benchmark run and its one-line JSON form.

use crate::host::json_str;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run measured and whether its outputs checked out.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (runs, rounds, scenarios).
    pub attempted: u64,
    /// Operations that failed: a run that did not gather, a digest that
    /// disagreed, a panicked or mismatched scenario.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines for standard error: the workload's own
    /// metric names, outcome counts, sample counts and check failures.
    pub notes: Vec<String>,
}

impl Report {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a failed check: the run is no longer correct.
    pub fn fail(&mut self, line: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", line.into()));
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value": v, "unit": u}`. A value that
    /// is not finite cannot be written as JSON and marks the run
    /// incorrect (it is written as 0).
    pub fn to_json(&self) -> String {
        let mut correct = self.correct && self.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value
                } else {
                    correct = false;
                    0.0
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_number(value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip form of a finite `f64`, always with a decimal
/// point or exponent so it reads back as a number with all its digits.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = Report {
            correct: true,
            attempted: 5,
            failed: 0,
            metrics: vec![metric("setup_s", 0.8127, "s"), metric("ok_frac", 1.0, "ratio")],
            notes: vec!["not printed".into()],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.8127, \"unit\": \"s\"}, \"ok_frac\": {\"value\": 1.0, \"unit\": \
             \"ratio\"}}}"
        );
    }

    #[test]
    fn non_finite_values_and_empty_runs_are_incorrect() {
        let mut r = Report { correct: true, attempted: 3, ..Default::default() };
        r.metrics.push(metric("x", f64::NAN, "s"));
        assert!(r.to_json().starts_with("{\"correct\": false"));
        let empty = Report { correct: true, ..Default::default() };
        let json = empty.to_json();
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 1"), "{json}");
    }

    #[test]
    fn fail_marks_the_report_incorrect() {
        let mut r = Report { correct: true, attempted: 1, ..Default::default() };
        r.fail("digest mismatch");
        assert!(!r.correct);
        assert_eq!(r.notes, vec!["CHECK FAILED: digest mismatch".to_string()]);
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(1.2034567891234), "1.2034567891234");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-9), "1e-9");
    }
}
