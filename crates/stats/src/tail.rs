//! Bounded-memory tail-latency accumulation.
//!
//! [`Percentiles`](crate::Percentiles) retains every raw sample, which is
//! exact but unbounded: a day-long 10k-server fleet run records ~10⁸
//! sojourn times. [`LatencyHistogram`] bins latencies at a fixed resolution,
//! so memory does not grow with the sample count, and two accumulators merge
//! bit-exactly by integer bin-count addition — the property the fleet
//! simulator's deterministic shard merge relies on (merging histograms is
//! associative and order-independent, unlike float summation).
//!
//! Counts are stored only over the *hull* of the bins recorded so far: a
//! first-bin offset plus a dense run of counts that grows on
//! [`record`](LatencyHistogram::record) and
//! [`merge`](LatencyHistogram::merge). A web-search sojourn tail touches a
//! few dozen of the default shape's 1,001 bins, so a histogram costs what it
//! observed, not what it could observe: about 25 counts (200 bytes) instead
//! of 8 KB.
//!
//! The price is quantisation: a percentile is reported as the *upper edge*
//! of the bin holding the nearest-rank sample, i.e. it over-estimates the
//! exact sample percentile by at most one resolution step.

/// The most regular bins a [`LatencyHistogram`] may span
/// (`ceil(max_ms / resolution_ms)`): 2²⁰, 8 MB of counts when every bin is
/// recorded. Wider shapes are rejected up front rather than aborting on the
/// first wide allocation.
pub const MAX_REGULAR_BINS: usize = 1 << 20;

/// A fixed-resolution latency histogram over milliseconds.
///
/// Values in `[k·res, (k+1)·res)` land in bin `k`; everything at or above
/// `max_ms` lands in a catch-all bin whose reported upper edge sits one
/// resolution step above the configured maximum. Negative and NaN inputs
/// clamp to bin 0.
///
/// The stored window is exactly the hull of the recorded bins (empty when
/// nothing was recorded), so two histograms of one shape compare equal
/// exactly when they recorded the same multiset of bins.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    resolution_ms: f64,
    /// Index of the catch-all bin (the number of regular bins).
    catch_all: usize,
    /// The bin `counts[0]` holds.
    first: usize,
    counts: Vec<u64>,
    total: u64,
}

impl LatencyHistogram {
    /// Creates an accumulator with bins of `resolution_ms` covering
    /// `[0, max_ms)` plus a catch-all for larger values. Nothing is
    /// allocated until the first observation.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < resolution_ms <= max_ms`, both are finite, and
    /// the shape spans at most [`MAX_REGULAR_BINS`] regular bins.
    pub fn new(resolution_ms: f64, max_ms: f64) -> LatencyHistogram {
        assert!(
            resolution_ms.is_finite() && resolution_ms > 0.0,
            "latency histogram resolution must be positive and finite"
        );
        assert!(
            max_ms.is_finite() && max_ms >= resolution_ms,
            "latency histogram max must be finite and at least one resolution step"
        );
        let regular_bins = (max_ms / resolution_ms).ceil();
        assert!(
            regular_bins <= MAX_REGULAR_BINS as f64,
            "latency histogram spans more than {MAX_REGULAR_BINS} bins"
        );
        LatencyHistogram {
            resolution_ms,
            catch_all: (regular_bins as usize).max(1),
            first: 0,
            counts: Vec::new(),
            total: 0,
        }
    }

    /// The configured bin width in milliseconds.
    pub fn resolution_ms(&self) -> f64 {
        self.resolution_ms
    }

    /// Records one latency observation.
    pub fn record(&mut self, value_ms: f64) {
        let bin = ((value_ms.max(0.0) / self.resolution_ms) as usize).min(self.catch_all);
        self.widen(bin, bin);
        self.counts[bin - self.first] += 1;
        self.total += 1;
    }

    /// Grows the window to cover bins `lo..=hi`.
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.first = lo;
            self.counts.resize(hi - lo + 1, 0);
            return;
        }
        if lo < self.first {
            self.counts.splice(0..0, std::iter::repeat_n(0, self.first - lo));
            self.first = lo;
        }
        if hi >= self.first + self.counts.len() {
            self.counts.resize(hi - self.first + 1, 0);
        }
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `p`-th percentile (nearest-rank) as the upper edge of its bin, or
    /// `None` when empty or when `p` is outside `[0, 100]` (NaN included),
    /// as [`percentile`](crate::percentile()) answers. Over-estimates the
    /// exact sample percentile by at most one resolution step (more for
    /// catch-all samples).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.total == 0 || !(0.0..=100.0).contains(&p) {
            return None;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0u64;
        let offset = self.counts.iter().position(|&count| {
            seen += count;
            seen >= rank
        })?;
        Some(((self.first + offset) as f64 + 1.0) * self.resolution_ms)
    }

    /// Merges another accumulator into this one (bit-exact: integer bin
    /// counts add, so merge order can never change any percentile).
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators have different resolutions or bin
    /// counts.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert!(self.resolution_ms == other.resolution_ms, "latency histogram resolutions differ");
        assert_eq!(self.catch_all, other.catch_all, "latency histogram bin counts differ");
        if other.counts.is_empty() {
            return;
        }
        self.widen(other.first, other.first + other.counts.len() - 1);
        let start = other.first - self.first;
        for (a, b) in self.counts[start..].iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_bin_upper_edge() {
        let mut h = LatencyHistogram::new(1.0, 100.0);
        for v in [0.2, 1.5, 2.5, 3.5] {
            h.record(v);
        }
        assert_eq!(h.len(), 4);
        // Rank 2 of 4 at p50 → the sample 1.5 → bin 1 → upper edge 2.0.
        assert_eq!(h.percentile(50.0), Some(2.0));
        assert_eq!(h.percentile(100.0), Some(4.0));
        assert_eq!(h.percentile(0.0), Some(1.0));
    }

    #[test]
    fn merge_equals_concatenated_recording() {
        let mut left = LatencyHistogram::new(0.5, 50.0);
        let mut right = LatencyHistogram::new(0.5, 50.0);
        let mut both = LatencyHistogram::new(0.5, 50.0);
        for i in 0..200 {
            let v = (i * 37 % 101) as f64 * 0.6;
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
            both.record(v);
        }
        left.merge(&right);
        assert_eq!(left, both);
        for p in [50.0, 90.0, 95.0, 99.0] {
            assert_eq!(left.percentile(p), both.percentile(p));
        }
    }

    #[test]
    fn window_is_the_hull_of_the_recorded_bins() {
        let mut h = LatencyHistogram::new(1.0, 1000.0);
        assert!(h.counts.is_empty(), "nothing is stored before the first record");
        h.record(40.5);
        h.record(38.0);
        h.record(44.9);
        assert_eq!((h.first, h.counts.as_slice()), (38, [1, 0, 1, 0, 0, 0, 1].as_slice()));
        // Merging in a disjoint window widens to the hull of both.
        let mut low = LatencyHistogram::new(1.0, 1000.0);
        low.record(30.0);
        h.merge(&low);
        assert_eq!((h.first, h.counts.len(), h.len()), (30, 15, 4));
        // Merging an empty histogram changes nothing.
        let before = h.clone();
        h.merge(&LatencyHistogram::new(1.0, 1000.0));
        assert_eq!(h, before);
    }

    #[test]
    fn catch_all_collects_overflow() {
        let mut h = LatencyHistogram::new(1.0, 10.0);
        h.record(1e9);
        h.record(f64::INFINITY);
        // Both land in the catch-all bin; its upper edge is max + resolution.
        assert_eq!(h.percentile(99.0), Some(11.0));
    }

    #[test]
    fn negative_and_nan_clamp_to_first_bin() {
        let mut h = LatencyHistogram::new(1.0, 10.0);
        h.record(-3.0);
        h.record(f64::NAN);
        assert_eq!(h.percentile(50.0), Some(1.0));
    }

    #[test]
    fn out_of_range_percentiles_are_none() {
        let mut h = LatencyHistogram::new(1.0, 10.0);
        for v in [0.5, 4.5, 9.5] {
            h.record(v);
        }
        for p in [-1.0, 100.5, 150.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(h.percentile(p), None, "p = {p}");
            assert_eq!(crate::percentile(&[0.5, 4.5, 9.5], p), None, "p = {p}");
        }
        assert_eq!(h.percentile(100.0), Some(10.0));
    }

    #[test]
    fn empty_has_no_percentile() {
        let h = LatencyHistogram::new(1.0, 10.0);
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), None);
    }

    #[test]
    #[should_panic(expected = "more than 1048576 bins")]
    fn unallocatable_shapes_are_rejected() {
        let _ = LatencyHistogram::new(1e-9, 1e9);
    }

    #[test]
    #[should_panic(expected = "resolutions differ")]
    fn merge_rejects_mismatched_resolution() {
        let mut a = LatencyHistogram::new(1.0, 10.0);
        let b = LatencyHistogram::new(2.0, 10.0);
        a.merge(&b);
    }
}
