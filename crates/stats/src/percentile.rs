//! Exact percentile computation over sample sets.
//!
//! Tail latency targets in the paper are expressed as percentiles (99th for
//! Data Serving and Web Search, 95th for Web Serving, a timeout for Media
//! Streaming). The queueing simulator collects every request's sojourn time
//! and evaluates percentiles exactly, by linear interpolation between the two
//! closest ranks of the sorted samples. No sort is needed for that: each
//! percentile selects its lower rank (`select_nth_unstable_by`, linear time)
//! and takes the minimum above it as the upper rank, so a fleet's 10⁶-sample
//! tail costs one linear pass per percentile instead of an O(n log n) sort.
//! [`percentiles_in`] answers several percentiles from one NaN-filtered copy
//! made in a caller's buffer, so repeated calls reuse one allocation;
//! [`percentiles_in_place`] answers them from a caller's NaN-free slice
//! itself, copying nothing, for callers that own samples they no longer
//! need in order.
//!
//! Selection returns the same bits as sorting for every input: order
//! statistics are unique as values, the only distinct bit patterns that
//! compare equal are −0.0 and +0.0, and `v_lo + (v_hi − v_lo) × frac` gives
//! the same bits whichever zero sits at either endpoint (a zero result is
//! always +0.0).

/// Computes the `p`-th percentile (0–100) of `samples` using linear
/// interpolation between closest ranks. NaN samples are ignored.
///
/// Returns `None` when `samples` holds no non-NaN value or `p` is outside
/// `[0, 100]`.
///
/// ```
/// use sim_stats::percentile::percentile;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&xs, 50.0), Some(2.5));
/// assert_eq!(percentile(&xs, 100.0), Some(4.0));
/// assert_eq!(percentile(&[], 50.0), None);
/// ```
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    percentiles_in(&mut Vec::new(), samples, [p]).map(|[value]| value)
}

/// Several percentiles of `samples` at once, as [`percentile`] computes each,
/// from one NaN-filtered copy made in `scratch`, whose previous contents are
/// discarded.
///
/// Returns `None` when `samples` holds no non-NaN value or any `p` is outside
/// `[0, 100]`.
///
/// ```
/// use sim_stats::percentile::percentiles_in;
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// let mut scratch = Vec::new();
/// assert_eq!(percentiles_in(&mut scratch, &xs, [0.0, 50.0, 100.0]), Some([1.0, 2.5, 4.0]));
/// ```
pub fn percentiles_in<const N: usize>(
    scratch: &mut Vec<f64>,
    samples: &[f64],
    ps: [f64; N],
) -> Option<[f64; N]> {
    scratch.clear();
    scratch.extend(samples.iter().copied().filter(|x| !x.is_nan()));
    percentiles_in_place(scratch, ps)
}

/// Several percentiles of `values`, as [`percentile`] computes each, selected
/// in the slice itself: no copy is made, and the slice is left reordered.
/// `values` must hold no NaN; since every percentile depends only on the
/// multiset of values, any order of the same values gives the same bits.
///
/// Returns `None` when `values` is empty or any `p` is outside `[0, 100]`.
///
/// ```
/// use sim_stats::percentile::percentiles_in_place;
/// let mut xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentiles_in_place(&mut xs, [0.0, 50.0, 100.0]), Some([1.0, 2.5, 4.0]));
/// assert_eq!(percentiles_in_place(&mut [], [50.0]), None);
/// ```
pub fn percentiles_in_place<const N: usize>(values: &mut [f64], ps: [f64; N]) -> Option<[f64; N]> {
    debug_assert!(!values.iter().any(|x| x.is_nan()), "percentiles_in_place over a NaN");
    if values.is_empty() || !ps.iter().all(|p| (0.0..=100.0).contains(p)) {
        return None;
    }
    Some(select_percentiles(values, ps))
}

/// The `ps`-th percentiles of a non-empty, NaN-free slice, which they
/// reorder: the values [`percentile_of_sorted`] gives for the sorted slice.
/// Ranks are selected in ascending order, each in the part of the slice
/// above the one before, so the whole slice is partitioned only once.
fn select_percentiles<const N: usize>(values: &mut [f64], ps: [f64; N]) -> [f64; N] {
    let last = values.len() - 1;
    if last == 0 {
        return [values[0]; N];
    }
    let mut order: [usize; N] = std::array::from_fn(|i| i);
    order.sort_unstable_by(|&a, &b| ps[a].total_cmp(&ps[b]));
    let mut out = [0.0; N];
    // Invariant: `values[start..]` holds exactly the order statistics
    // `start..=last`, and `values[start - 1]` is order statistic `start - 1`.
    let mut start = 0;
    for i in order {
        let rank = ps[i] / 100.0 * last as f64;
        let lo = rank.floor() as usize;
        if lo >= start {
            values[start..].select_nth_unstable_by(lo - start, f64::total_cmp);
            start = lo + 1;
        }
        let v_lo = values[lo];
        let v_hi = if rank.ceil() as usize == lo {
            v_lo
        } else {
            values[lo + 1..].iter().copied().fold(f64::INFINITY, f64::min)
        };
        out[i] = v_lo + (v_hi - v_lo) * (rank - lo as f64);
    }
    out
}

/// Percentile of an already-sorted, NaN-free slice.
///
/// # Panics
///
/// Panics (in debug builds) if the slice is empty.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// A reusable sample tracker: it accumulates samples (NaN dropped) and
/// answers the mean and maximum; tails come from [`percentile`] or
/// [`percentiles_in`] over [`Percentiles::samples`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Percentiles {
    samples: Vec<f64>,
}

impl Percentiles {
    /// Creates an empty tracker.
    pub fn new() -> Percentiles {
        Percentiles::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        if !value.is_nan() {
            self.samples.push(value);
        }
    }

    /// Records many samples.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.record(v);
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().fold(None, |acc, x| Some(acc.map_or(x, |m: f64| m.max(x))))
    }

    /// Clears all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Read-only view of the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_returns_none() {
        assert_eq!(percentile(&[], 50.0), None);
        assert!(Percentiles::new().mean().is_none());
    }

    #[test]
    fn out_of_range_p_returns_none() {
        assert_eq!(percentile(&[1.0], -1.0), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
        assert_eq!(percentile(&[1.0], f64::NAN), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5));
        }
    }

    #[test]
    fn interpolates_between_ranks() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 25.0), Some(20.0));
        assert_eq!(percentile(&xs, 50.0), Some(30.0));
        assert_eq!(percentile(&xs, 100.0), Some(50.0));
        assert_eq!(percentile(&xs, 10.0), Some(14.0));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let xs = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(percentile(&xs, 50.0), Some(30.0));
    }

    #[test]
    fn nan_samples_are_ignored() {
        let xs = [1.0, f64::NAN, 3.0];
        assert_eq!(percentile(&xs, 100.0), Some(3.0));
    }

    #[test]
    fn tracker_basics() {
        let mut t = Percentiles::new();
        t.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.mean(), Some(2.5));
        assert_eq!(t.max(), Some(4.0));
        assert_eq!(percentile(t.samples(), 50.0), Some(2.5));
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn p99_dominates_p95_dominates_mean_for_heavy_tail() {
        let mut t = Percentiles::new();
        // 980 fast requests, 20 very slow ones.
        t.extend(std::iter::repeat_n(1.0, 980));
        t.extend(std::iter::repeat_n(100.0, 20));
        let mean = t.mean().unwrap();
        let p95 = percentile(t.samples(), 95.0).unwrap();
        let p99 = percentile(t.samples(), 99.0).unwrap();
        assert!(mean < p99, "mean {mean} should be below p99 {p99}");
        assert!(p95 <= p99);
    }
}
