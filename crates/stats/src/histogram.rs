//! Fixed-bin histograms.
//!
//! Used for the MLP census of Figure 7 (fraction of time with ≥ N in-flight
//! memory requests); tail latencies use [`crate::LatencyHistogram`].

/// A histogram over integer-valued observations `0, 1, 2, ..`, with the last
/// bin collecting everything at or above the configured maximum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with bins `0..=max_value` (the last bin is a
    /// catch-all for observations `>= max_value`).
    ///
    /// # Panics
    ///
    /// Panics if `max_value == 0`.
    pub fn new(max_value: usize) -> Histogram {
        assert!(max_value > 0, "histogram needs at least one non-zero bin");
        Histogram { counts: vec![0; max_value + 1], total: 0 }
    }

    /// Records one observation of `value` with weight 1.
    pub fn record(&mut self, value: usize) {
        self.record_weighted(value, 1);
    }

    /// Records `weight` observations of `value` (e.g. "this many cycles had
    /// exactly `value` outstanding misses").
    pub fn record_weighted(&mut self, value: usize, weight: u64) {
        let idx = value.min(self.counts.len() - 1);
        self.counts[idx] += weight;
        self.total += weight;
    }

    /// Total recorded weight.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of bins (including the catch-all).
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw count in bin `value` (saturating at the catch-all bin).
    pub fn count(&self, value: usize) -> u64 {
        self.counts[value.min(self.counts.len() - 1)]
    }

    /// Fraction of observations greater than or equal to `value`
    /// (the cumulative "≥ N in-flight requests" metric of Figure 7).
    pub fn fraction_at_least(&self, value: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let start = value.min(self.counts.len() - 1);
        let sum: u64 = self.counts[start..].iter().sum();
        sum as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_fractions() {
        let mut h = Histogram::new(5);
        h.record(0);
        h.record(1);
        h.record(1);
        h.record(3);
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(1), 2);
        assert!((h.fraction_at_least(1) - 0.75).abs() < 1e-12);
        assert!((h.fraction_at_least(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn catch_all_bin_collects_overflow() {
        let mut h = Histogram::new(3);
        h.record(10);
        h.record(3);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.count(99), 2);
    }

    #[test]
    fn weighted_records() {
        let mut h = Histogram::new(4);
        h.record_weighted(2, 10);
        h.record_weighted(0, 30);
        assert_eq!(h.total(), 40);
        assert!((h.fraction_at_least(2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new(4);
        assert_eq!(h.fraction_at_least(0), 0.0);
        assert_eq!(h.fraction_at_least(2), 0.0);
    }
}
