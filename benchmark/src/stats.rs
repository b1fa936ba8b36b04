//! Order statistics and the small output model shared by both runs.

/// Median (mean of the two middle values for even counts); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; NaN if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Human-readable qualifier printed beside the value (never in JSON).
    pub note: String,
}

/// One check result of one operation.
pub struct CheckResult {
    pub name: &'static str,
    pub bound: String,
    pub passed: bool,
    /// The checked quantity (larger is worse; 1 or 0 for yes/no checks).
    pub observed: f64,
}

/// One correctness check, aggregated over the operations it ran on.
pub struct Check {
    pub name: &'static str,
    pub bound: String,
    pub ran: usize,
    pub failed: usize,
    /// Worst observed value (largest; NaN if any was NaN).
    pub worst: f64,
}

/// Everything one benchmark run prints.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Operations attempted and failed (an App run, or a sweep job).
    pub attempted: usize,
    pub failed: usize,
    /// Provenance and context lines (`key: value`).
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metric_noted(name, value, unit, "");
    }

    pub fn metric_noted(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.into(), value.to_string()));
    }

    /// Record one operation's check results; the operation fails if any
    /// of its checks failed.
    pub fn op(&mut self, results: &[CheckResult]) {
        self.attempted += 1;
        let mut ok = true;
        for r in results {
            ok &= r.passed;
            let c = match self.checks.iter().position(|c| c.name == r.name) {
                Some(i) => &mut self.checks[i],
                None => {
                    self.checks.push(Check {
                        name: r.name,
                        bound: r.bound.clone(),
                        ran: 0,
                        failed: 0,
                        worst: f64::NEG_INFINITY,
                    });
                    self.checks.last_mut().expect("just pushed")
                }
            };
            c.ran += 1;
            c.failed += usize::from(!r.passed);
            c.worst = if r.observed.is_nan() || c.worst.is_nan() {
                f64::NAN
            } else {
                c.worst.max(r.observed)
            };
        }
        if !ok {
            self.failed += 1;
        }
    }

    /// An operation that errored before its checks could run.
    pub fn op_error(&mut self, what: &str, err: &dyn std::fmt::Display) {
        eprintln!("operation failed: {what}: {err}");
        self.attempted += 1;
        self.failed += 1;
    }

    /// The run's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, values printed with all their digits.
    pub fn json_line(&self) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut body = Vec::new();
        for m in &self.metrics {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                correct = false;
                "null".into()
            };
            body.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}
