//! The request model both the single server and the fleet run on: one
//! server's FCFS queue over its worker threads ([`WorkerQueue`]) and the
//! empirical peak-load search over it ([`bisect_peak_rps`]).
//!
//! [`crate::ServerSim`] drives one queue per run; the `cluster_sim` fleet
//! keeps one per server and lets its load balancers probe
//! [`WorkerQueue::backlog`].

use crate::service::ServiceSpec;

/// One server's FCFS queue: the time (ms) at which each worker thread next
/// becomes available, plus the latest of them — the idle watermark.
///
/// A request starts on the earliest-available worker (the lowest index on
/// ties), no earlier than its arrival. The watermark lets an idle server —
/// one whose last completion is behind the probe time — answer
/// [`WorkerQueue::backlog`] in O(1), which keeps balancer probes cheap on a
/// mostly idle fleet.
#[derive(Debug, Clone)]
pub struct WorkerQueue {
    avail: Vec<f64>,
    /// Invariant: the maximum of `avail`.
    max_avail: f64,
}

impl WorkerQueue {
    /// An idle queue over `workers` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> WorkerQueue {
        assert!(workers > 0, "a server needs at least one worker");
        WorkerQueue { avail: vec![0.0; workers], max_avail: 0.0 }
    }

    /// Admits a request arriving at `arrival_ms` that needs `service_ms` of
    /// processing, and returns its sojourn time (queueing + service, ms).
    /// Arrivals must be non-decreasing across calls.
    #[inline]
    pub fn admit(&mut self, arrival_ms: f64, service_ms: f64) -> f64 {
        let (w, avail) = self
            .avail
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN worker times"))
            .expect("at least one worker");
        let done = arrival_ms.max(avail) + service_ms;
        self.avail[w] = done;
        if done > self.max_avail {
            self.max_avail = done;
        }
        done - arrival_ms
    }

    /// Total queued work (ms) ahead of a request arriving at `now_ms`: the
    /// sum over workers of the time each is still busy. O(1) when the server
    /// is idle at `now_ms`, where the scan would compute exactly `0.0`.
    #[inline]
    pub fn backlog(&self, now_ms: f64) -> f64 {
        if self.max_avail <= now_ms {
            return 0.0;
        }
        self.avail.iter().map(|&avail| (avail - now_ms).max(0.0)).sum()
    }
}

/// Finds a service's peak sustainable arrival rate (requests/second) by
/// bisection: the highest rate `meets` accepts, searched in 12 steps between
/// 5% and 100% of the no-queueing capacity at delivered performance
/// `performance` (`workers × 1000 / mean service time`). `meets` must be
/// monotone: true at low rates, false beyond the peak.
///
/// # Errors
///
/// Returns `Err(floor_rps)`, after one probe, when even the 5% floor fails:
/// the target is hopeless, and each caller decides what rate that means.
pub fn bisect_peak_rps(
    spec: &ServiceSpec,
    performance: f64,
    mut meets: impl FnMut(f64) -> bool,
) -> Result<f64, f64> {
    let capacity_rps = spec.workers as f64 * 1000.0 / spec.mean_service_ms(performance);
    let mut lo = capacity_rps * 0.05;
    let mut hi = capacity_rps;
    if !meets(lo) {
        return Err(lo);
    }
    for _ in 0..12 {
        let mid = 0.5 * (lo + hi);
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capacity_rps(spec: &ServiceSpec) -> f64 {
        spec.workers as f64 * 1000.0 / spec.mean_service_ms(1.0)
    }

    #[test]
    fn bisection_probes_13_times_and_lands_just_below_a_threshold() {
        let spec = ServiceSpec::web_search();
        let capacity = capacity_rps(&spec);
        for fraction in [0.051, 0.2, 0.5, 0.77, 0.999] {
            let threshold = fraction * capacity;
            let mut probes = 0;
            let peak = bisect_peak_rps(&spec, 1.0, |rate| {
                probes += 1;
                rate <= threshold
            })
            .expect("the floor meets the threshold");
            assert_eq!(probes, 13, "one floor probe plus 12 bisection steps");
            assert!(peak <= threshold, "peak {peak} above the threshold {threshold}");
            let resolution = 0.95 * capacity / 4096.0;
            assert!(
                threshold - peak <= resolution,
                "peak {peak} more than one step ({resolution}) below the threshold {threshold}"
            );
        }
    }

    #[test]
    fn bisection_reports_the_floor_when_the_floor_fails() {
        let spec = ServiceSpec::web_search();
        let mut probes = 0;
        let result = bisect_peak_rps(&spec, 1.0, |_| {
            probes += 1;
            false
        });
        assert_eq!(probes, 1);
        assert_eq!(result, Err(capacity_rps(&spec) * 0.05));
    }
}
