//! The run's result: metrics by name and unit, the correctness verdict,
//! and notes printed ahead of the final JSON line.

/// What one run prints.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    violations: Vec<String>,
    /// Packets offered.
    pub attempted: u64,
    /// Offered packets not delivered correctly.
    pub failed: u64,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Adds a line of context (machine, sample counts).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, violation: String) {
        self.violations.push(violation);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Prints notes and metrics as text, then the JSON result as the last
    /// line.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for violation in &self.violations {
            println!("# FAILED: {violation}");
            eprintln!("nfbench: check failed: {violation}");
        }
        for (name, value, unit) in &self.metrics {
            println!("# {name} = {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of ascending `sorted` (nearest rank; 0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The `q` quantile of unsorted `values`, linearly interpolated (0 when
/// empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (low, high) = (position.floor() as usize, position.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}
