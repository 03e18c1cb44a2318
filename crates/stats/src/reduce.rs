//! The canonical deterministic reducers for float accumulation on merge
//! paths.
//!
//! `f64` addition is not associative: `(a + b) + c` and `a + (b + c)` can
//! differ in the last ulp, so the *order* in which per-shard or per-cell
//! results are folded is part of a result's identity. The sharded fleet
//! (ROADMAP item 1) merges per-server outputs computed on worker threads;
//! if each merge site picked its own fold order — or worse, an order that
//! depended on thread completion — "bit-identical regardless of thread
//! count" would silently stop holding. The `reduction-order` simlint rule
//! therefore requires every float accumulation reachable from a
//! [`parallel_map`]-style merge to go through this module, which pins one
//! canonical order for the whole workspace:
//!
//! * [`det_sum`] — fixed-order pairwise summation over a slice. Below
//!   [`SEQUENTIAL_BLOCK`] elements it is *exactly* the left-to-right
//!   sequential fold (so migrating short existing accumulations onto it is
//!   bit-preserving and needs no fixture re-pin); above, it splits into
//!   balanced halves at block granularity, which both fixes the reduction
//!   tree independent of the caller and improves the error bound from
//!   O(n·ε) to O(log n·ε) for the 10k-element merges the sharded fleet
//!   will perform.
//! * [`det_merge`] — combines per-shard partial sums in shard-index order
//!   (it is [`det_sum`] over the partials; the separate name documents
//!   intent at the call site: the inputs are already reductions).
//! * [`det_mean`] — `det_sum / n`, the common "average over cells" case.
//!
//! The reduction tree is a pure function of the slice *length*, never of
//! thread timing, so the same inputs in the same order always produce the
//! same bits.
//!
//! [`parallel_map`]: ../../sim_model/parallel/fn.parallel_map.html

/// Below this many elements [`det_sum`] degenerates to the plain
/// left-to-right sequential fold.
///
/// The value is part of the determinism contract: changing it changes the
/// bits of every `det_sum` over more than `SEQUENTIAL_BLOCK` elements and
/// requires a conscious golden-fixture re-pin. 32 keeps every pre-existing
/// short accumulation (figure row averages, per-thread UIPC totals)
/// bit-identical to its historical sequential form while still giving the
/// fleet-scale merges a balanced tree.
pub const SEQUENTIAL_BLOCK: usize = 32;

/// Sums `values` in the canonical fixed order: sequential left-to-right
/// below [`SEQUENTIAL_BLOCK`] elements, balanced pairwise splits above.
///
/// The result is a deterministic function of the slice contents and order —
/// never of thread count, completion order, or caller identity. An empty
/// slice sums to `0.0`.
///
/// ```
/// use sim_stats::reduce::det_sum;
///
/// let xs = [0.1, 0.2, 0.3];
/// // Short slices are exactly the sequential fold.
/// assert_eq!(det_sum(&xs).to_bits(), ((0.1 + 0.2) + 0.3f64).to_bits());
/// ```
pub fn det_sum(values: &[f64]) -> f64 {
    if values.len() <= SEQUENTIAL_BLOCK {
        let mut acc = 0.0;
        for &v in values {
            acc += v;
        }
        return acc;
    }
    // Split at the largest multiple of SEQUENTIAL_BLOCK covering at least
    // half the slice, so the tree shape depends only on the length.
    let half = values.len() / 2;
    let mid = half.next_multiple_of(SEQUENTIAL_BLOCK).min(values.len() - 1);
    det_sum(&values[..mid]) + det_sum(&values[mid..])
}

/// Combines per-shard partial sums into the canonical total.
///
/// Shards must be presented in shard-index order (index 0 first); the
/// reduction tree is then fixed regardless of which worker finished first.
/// This is the function a sharded merge calls on the per-worker partials it
/// collected — the partials themselves should each be a [`det_sum`] over
/// that shard's values.
pub fn det_merge(partials: &[f64]) -> f64 {
    det_sum(partials)
}

/// The canonical mean: [`det_sum`] divided by the element count.
///
/// An empty slice has mean `0.0` (the merge paths treat "no samples" as a
/// zero contribution rather than a NaN that would poison downstream
/// accumulation).
pub fn det_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    det_sum(values) / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequential(values: &[f64]) -> f64 {
        let mut acc = 0.0;
        for &v in values {
            acc += v;
        }
        acc
    }

    /// A deterministic value stream with enough mantissa variety to expose
    /// association differences.
    fn stream(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * 0.1 + 1.0) / ((i % 7 + 1) as f64)).collect()
    }

    #[test]
    fn short_sums_are_bit_identical_to_sequential() {
        for n in 0..=SEQUENTIAL_BLOCK {
            let xs = stream(n);
            assert_eq!(
                det_sum(&xs).to_bits(),
                sequential(&xs).to_bits(),
                "n = {n} must match the left-to-right fold exactly"
            );
        }
    }

    #[test]
    fn long_sums_are_deterministic_and_close_to_sequential() {
        let xs = stream(10_000);
        let a = det_sum(&xs);
        let b = det_sum(&xs);
        assert_eq!(a.to_bits(), b.to_bits(), "same input, same bits");
        let seq = sequential(&xs);
        assert!((a - seq).abs() / seq.abs() < 1e-12, "pairwise far from sequential: {a} vs {seq}");
    }

    #[test]
    fn tree_shape_depends_only_on_length() {
        // Summing the same values through det_merge over differently-sized
        // shard partials reproduces det_sum over the concatenation only when
        // each shard is itself reduced canonically AND the shard boundaries
        // are part of the contract — the *partials* fold deterministically.
        let xs = stream(257);
        let partials: Vec<f64> = xs.chunks(64).map(det_sum).collect();
        let merged_once = det_merge(&partials);
        let merged_again = det_merge(&partials);
        assert_eq!(merged_once.to_bits(), merged_again.to_bits());
    }

    #[test]
    fn mean_of_empty_is_zero_and_mean_matches_sum() {
        assert_eq!(det_mean(&[]), 0.0);
        let xs = stream(50);
        assert_eq!(det_mean(&xs).to_bits(), (det_sum(&xs) / 50.0).to_bits());
    }

    #[test]
    fn merge_is_det_sum_over_partials() {
        let partials = stream(9);
        assert_eq!(det_merge(&partials).to_bits(), det_sum(&partials).to_bits());
    }
}
