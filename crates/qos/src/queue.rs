//! The request model both the single server and the fleet run on: the FCFS
//! queues of one or more servers over their worker threads
//! ([`ServerQueues`]) and the empirical peak-load search over them
//! ([`bisect_peak_rps`]).
//!
//! [`crate::ServerSim`] drives a one-server instance per run; each shard of
//! the `cluster_sim` fleet owns one instance over its servers and lets its
//! load balancers probe [`ServerQueues::backlog`] and
//! [`ServerQueues::least_loaded`].

use crate::service::ServiceSpec;

/// The FCFS queues of `servers` servers with `workers` worker threads each:
/// the time (ms) at which every worker next becomes available, plus each
/// server's latest such time — its idle watermark.
///
/// A request starts on its server's earliest-available worker (the lowest
/// index on ties), no earlier than its arrival. The times are stored
/// worker-major (`avail[w * servers + s]`), so [`ServerQueues::least_loaded`]
/// sums every server's backlog in one sweep over `workers` contiguous rows.
/// The watermark lets an idle server — one whose last completion is not
/// after the probe time — answer [`ServerQueues::backlog`] in O(1), which
/// keeps power-of-two probes cheap on a mostly idle fleet.
#[derive(Debug, Clone)]
pub struct ServerQueues {
    servers: usize,
    /// Worker availability times, worker-major: `avail[w * servers + s]`.
    avail: Vec<f64>,
    /// Invariant: `max_avail[s]` is the maximum of server `s`'s times.
    max_avail: Vec<f64>,
    /// Per-server backlog sums, reused by every [`ServerQueues::least_loaded`].
    backlogs: Vec<f64>,
}

impl ServerQueues {
    /// Idle queues for `servers` servers of `workers` worker threads each.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or `workers == 0`.
    pub fn new(servers: usize, workers: usize) -> ServerQueues {
        assert!(servers > 0, "a queue set needs at least one server");
        assert!(workers > 0, "a server needs at least one worker");
        ServerQueues {
            servers,
            avail: vec![0.0; servers * workers],
            max_avail: vec![0.0; servers],
            backlogs: vec![0.0; servers],
        }
    }

    /// Admits a request to `server` arriving at `arrival_ms` that needs
    /// `service_ms` of processing, and returns its sojourn time (queueing +
    /// service, ms). Arrivals must be non-decreasing across calls.
    #[inline]
    pub fn admit(&mut self, server: usize, arrival_ms: f64, service_ms: f64) -> f64 {
        let n = self.servers;
        let (mut earliest, mut soonest) = (server, self.avail[server]);
        for i in (server + n..self.avail.len()).step_by(n) {
            let t = self.avail[i];
            if t < soonest {
                (earliest, soonest) = (i, t);
            }
        }
        let done = arrival_ms.max(soonest) + service_ms;
        self.avail[earliest] = done;
        if done > self.max_avail[server] {
            self.max_avail[server] = done;
        }
        done - arrival_ms
    }

    /// Total queued work (ms) on `server` ahead of a request arriving at
    /// `now_ms`: the sum over its workers of the time each is still busy.
    /// O(1) when the server is idle at `now_ms`, where the scan would compute
    /// exactly `0.0`.
    #[inline]
    pub fn backlog(&self, server: usize, now_ms: f64) -> f64 {
        if self.max_avail[server] <= now_ms {
            return 0.0;
        }
        self.avail[server..].iter().step_by(self.servers).map(|&a| (a - now_ms).max(0.0)).sum()
    }

    /// The server with the least [`ServerQueues::backlog`] at `now_ms`, the
    /// lowest index on ties: the first minimum of one worker-major sweep,
    /// which is what `(0..servers).min_by` over the backlogs picks. An idle
    /// server's sum is exactly `0.0` and a busy one's is above zero, so the
    /// sweep needs no idle test to find the first idle server.
    #[inline]
    pub fn least_loaded(&mut self, now_ms: f64) -> usize {
        self.backlogs.fill(0.0);
        for row in self.avail.chunks_exact(self.servers) {
            for (backlog, &a) in self.backlogs.iter_mut().zip(row) {
                *backlog += (a - now_ms).max(0.0);
            }
        }
        let (mut least, mut lowest) = (0, self.backlogs[0]);
        for (s, &backlog) in self.backlogs.iter().enumerate().skip(1) {
            if backlog < lowest {
                (least, lowest) = (s, backlog);
            }
        }
        least
    }
}

/// Finds a service's peak sustainable arrival rate (requests/second) by
/// bisection between 5% and 100% of the no-queueing capacity at delivered
/// performance `performance` (`workers × 1000 / mean service time`): one
/// probe of `meets` at the 5% floor, then 12 at the midpoint of the
/// bracket, which moves its lower end up to an accepted midpoint and its
/// upper end down to a rejected one.
///
/// The result is well defined for any predicate, monotone or not. It is
/// the last midpoint `meets` accepted, or the floor when it accepted none;
/// when every probe passes, that is the top of the bracket,
/// `capacity × (1 − 0.95 · 2⁻¹²)`. When `meets` is monotone (true at low
/// rates, false beyond a threshold inside the bracket), the result lies
/// within one final step, `0.95 · capacity · 2⁻¹²`, below the threshold.
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
