//! Percentiles and the sample-count rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p90 needs 100 samples and a p50 needs 20. Percentiles
//! use the nearest-rank definition: the p-th percentile of `n` sorted
//! samples is the sample at rank `ceil(p * n)`.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Index (0-based) of the nearest-rank `p`-th percentile among `n`
/// sorted samples, `0 < p <= 1`.
pub fn rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
    let rank = (p * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank_index(n, p)
}

/// Smallest sample count for which the `p`-th percentile has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn min_samples(p: f64) -> usize {
    (1..).find(|&n| beyond(n, p) >= MIN_BEYOND).expect("some n satisfies the rule")
}

/// A sorted sample of measurements.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sort `values` into a sample.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile, or `None` when the sample is empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| self.sorted[rank_index(self.sorted.len(), p)])
    }

    /// Whether the `p`-th percentile meets the sample-count rule.
    pub fn supports(&self, p: f64) -> bool {
        !self.sorted.is_empty() && beyond(self.sorted.len(), p) >= MIN_BEYOND
    }

    /// Median as the mean of the two middle values (used for medians of
    /// a few repeated measurements, where the rule does not apply).
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some((self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Sample::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.percentile(0.5), Some(50.0));
        assert_eq!(s.percentile(0.9), Some(90.0));
        assert_eq!(s.percentile(1.0), Some(100.0));
        let one = Sample::new(vec![7.0]);
        assert_eq!(one.percentile(0.5), Some(7.0));
        assert_eq!(one.percentile(0.9), Some(7.0));
        assert_eq!(Sample::default().percentile(0.5), None);
    }

    #[test]
    fn sample_count_rule() {
        // p90 of 100 samples leaves exactly ten beyond it; of 99, nine.
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.5), 20);
        assert!(Sample::new(vec![1.0; 100]).supports(0.9));
        assert!(!Sample::new(vec![1.0; 99]).supports(0.9));
        assert!(Sample::new(vec![1.0; 20]).supports(0.5));
        assert!(!Sample::new(vec![1.0; 19]).supports(0.5));
        assert!(!Sample::default().supports(0.5));
    }

    #[test]
    fn medians_of_small_samples() {
        assert_eq!(Sample::new(vec![3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(Sample::new(vec![4.0, 1.0, 2.0, 3.0]).median(), Some(2.5));
        assert_eq!(Sample::default().median(), None);
    }
}
