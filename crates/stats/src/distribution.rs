//! Distribution summaries for reporting result populations.
//!
//! The paper reports many results as violin plots over the 4 × 29 colocation
//! population (Figures 3, 9, 11). A violin is summarised here by its
//! five-number summary (min, quartiles, max) plus mean — enough to compare
//! "who wins, by roughly what factor" against the published figures.

use crate::percentile::percentile_of_sorted;
use std::fmt;

/// Five-number summary plus mean of a sample population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionSummary {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl DistributionSummary {
    /// Builds a summary from raw samples. NaNs are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `samples` contains no finite values.
    pub fn from_samples(samples: &[f64]) -> DistributionSummary {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        assert!(!sorted.is_empty(), "DistributionSummary requires at least one finite sample");
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        DistributionSummary {
            count: sorted.len(),
            min: sorted[0],
            p25: percentile_of_sorted(&sorted, 25.0),
            median: percentile_of_sorted(&sorted, 50.0),
            p75: percentile_of_sorted(&sorted, 75.0),
            max: *sorted.last().expect("non-empty"),
            mean,
        }
    }
}

impl fmt::Display for DistributionSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={:.4} p25={:.4} median={:.4} p75={:.4} max={:.4} mean={:.4}",
            self.count, self.min, self.p25, self.median, self.p75, self.max, self.mean
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_population() {
        let s = DistributionSummary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p25, 2.0);
        assert_eq!(s.p75, 4.0);
    }

    #[test]
    fn order_does_not_matter() {
        let a = DistributionSummary::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        let b = DistributionSummary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn nan_and_inf_filtered() {
        let s = DistributionSummary::from_samples(&[1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one finite sample")]
    fn empty_population_panics() {
        let _ = DistributionSummary::from_samples(&[]);
    }

    #[test]
    fn display_is_nonempty() {
        let s = DistributionSummary::from_samples(&[1.0]);
        assert!(!s.to_string().is_empty());
    }
}
