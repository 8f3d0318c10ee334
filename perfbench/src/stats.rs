//! Sample statistics: nearest-rank percentiles and the tail rule.

use std::time::Duration;

/// Latency samples in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
        self.sorted = false;
    }

    pub fn push_duration(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile (`0` when empty).
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let rank = ((p / 100.0) * self.values.len() as f64).ceil() as usize;
        self.values[rank.clamp(1, self.values.len()) - 1]
    }

    /// How many samples lie beyond the `p`-th percentile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.values.len();
        n - (((p / 100.0) * n as f64).ceil() as usize).min(n)
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }
}

/// Median of a small set of values (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut samples = Samples::default();
    for &v in values {
        samples.push(v);
    }
    samples.median()
}
