//! The request model both the single server and the fleet run on: the FCFS
//! queues of one or more servers over their worker threads
//! ([`ServerQueues`]) and the empirical peak-load search over them
//! ([`bisect_peak_rps`]), which probes two bisection steps at a time.
//!
//! [`crate::ServerSim`] drives a one-server instance per run; each shard of
//! the `cluster_sim` fleet owns one instance over its servers and lets its
//! load balancers probe [`ServerQueues::backlog`] and
//! [`ServerQueues::least_loaded`].

use crate::service::ServiceSpec;
use sim_model::parallel_map;
use std::sync::Mutex;

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

/// The bisection's steps after the floor probe: 12 midpoints.
const STEPS: usize = 12;

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
/// The search probes two steps at a time, on two lanes of the
/// [`sim_model::parallel_map`] pool (the calling thread and one more), each
/// handing `meets` its own state from `lanes`. The floor probe runs alone
/// on lane 0, on the calling thread. After it, each round probes a step's
/// midpoint on lane 0 and, on lane 1, the midpoint the next step probes if
/// this one passes: `0.5 · (mid + hi)`, which is that step's
/// `0.5 · (lo + hi)` bit for bit once `lo = mid`. A pass uses both
/// verdicts; a fail moves `hi` and discards lane 1's probe. A 12th step
/// that starts a round runs alone. So the search uses 13 verdicts,
/// plus one discarded probe per failing step that shares its round, and
/// when every probe passes it takes 7 rounds. As long as `meets` answers a
/// rate the same on either lane, each verdict it uses is the one a
/// one-probe-at-a-time search computes at the same rate, and the result is
/// that search's, bit for bit.
///
/// # Errors
///
/// Returns `Err(floor_rps)`, after one probe, when even the 5% floor fails:
/// the target is hopeless, and each caller decides what rate that means.
pub fn bisect_peak_rps<S: Send>(
    spec: &ServiceSpec,
    performance: f64,
    lanes: &mut [S; 2],
    meets: impl Fn(&mut S, f64) -> bool + Sync,
) -> Result<f64, f64> {
    let capacity_rps = spec.workers as f64 * 1000.0 / spec.mean_service_ms(performance);
    let mut lo = capacity_rps * 0.05;
    let mut hi = capacity_rps;
    // Rate `i` of a round runs on lane `i`, whose worker alone locks it.
    let lanes = lanes.each_mut().map(Mutex::new);
    let round = |rates: &[f64]| {
        parallel_map(rates.iter().copied().enumerate().collect(), 2, |&(lane, rate)| {
            meets(&mut lanes[lane].lock().expect("a lane's probe panicked"), rate)
        })
    };
    if !round(&[lo])[0] {
        return Err(lo);
    }
    let mut step = 0;
    while step < STEPS {
        let mid = 0.5 * (lo + hi);
        let rates = if step + 1 < STEPS { vec![mid, 0.5 * (mid + hi)] } else { vec![mid] };
        for (&rate, passed) in rates.iter().zip(round(&rates)) {
            debug_assert_eq!(rate.to_bits(), (0.5 * (lo + hi)).to_bits());
            step += 1;
            if passed {
                lo = rate;
            } else {
                hi = rate;
                break;
            }
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_model::SimRng;

    fn capacity_rps(spec: &ServiceSpec) -> f64 {
        spec.workers as f64 * 1000.0 / spec.mean_service_ms(1.0)
    }

    /// A probe of the sequential search: its rate, the bracket's top when
    /// it ran, and its verdict.
    type Probe = (f64, f64, bool);

    /// The rates one lane of the kernel probed, each with its verdict.
    type LaneLog = Vec<(f64, bool)>;

    /// One probe a verdict: the search the two-lane kernel must reproduce.
    /// Returns its result and its probes, the floor's first.
    fn sequential_oracle(
        spec: &ServiceSpec,
        performance: f64,
        meets: impl Fn(f64) -> bool,
    ) -> (Result<f64, f64>, Vec<Probe>) {
        let capacity_rps = spec.workers as f64 * 1000.0 / spec.mean_service_ms(performance);
        let (mut lo, mut hi) = (capacity_rps * 0.05, capacity_rps);
        let mut log = vec![(lo, hi, meets(lo))];
        if !log[0].2 {
            return (Err(lo), log);
        }
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            let passed = meets(mid);
            log.push((mid, hi, passed));
            if passed {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (Ok(lo), log)
    }

    /// The rates each lane probes when the kernel meets the oracle's
    /// verdicts: lane 0 the floor and each step that starts a round, lane 1
    /// the pass-branch midpoint of every such step but a lone 12th.
    fn lane_schedule(log: &[Probe]) -> [Vec<f64>; 2] {
        let mut lanes = [vec![log[0].0], Vec::new()];
        let steps = &log[1..];
        let mut k = 0;
        while k < steps.len() {
            let (mid, hi, passed) = steps[k];
            lanes[0].push(mid);
            k += 1;
            if k < steps.len() {
                let speculated = 0.5 * (mid + hi);
                lanes[1].push(speculated);
                if passed {
                    // A pass makes the speculation the next step's own rate.
                    assert_eq!(speculated.to_bits(), steps[k].0.to_bits());
                    k += 1;
                }
            }
        }
        lanes
    }

    /// Runs the kernel with `meets`, each lane logging the rates it probed.
    fn two_lane(
        spec: &ServiceSpec,
        performance: f64,
        meets: impl Fn(f64) -> bool + Sync,
    ) -> (Result<f64, f64>, [LaneLog; 2]) {
        let mut lanes = [Vec::new(), Vec::new()];
        let result = bisect_peak_rps(spec, performance, &mut lanes, |log, rate| {
            let passed = meets(rate);
            log.push((rate, passed));
            passed
        });
        (result, lanes)
    }

    #[test]
    fn bisection_probes_13_times_and_lands_just_below_a_threshold() {
        let spec = ServiceSpec::web_search();
        let capacity = capacity_rps(&spec);
        for fraction in [0.051, 0.2, 0.5, 0.77, 0.999] {
            let threshold = fraction * capacity;
            let (peak, [lane0, lane1]) = two_lane(&spec, 1.0, |rate| rate <= threshold);
            let peak = peak.expect("the floor meets the threshold");
            // Lane 1 probes in every round after the floor's but a lone
            // 12th step, so its i-th probe shares round i + 1 with lane 0,
            // and it is discarded exactly when lane 0 failed there.
            let discarded = (0..lane1.len()).filter(|&i| !lane0[i + 1].1).count();
            assert_eq!(
                lane0.len() + lane1.len(),
                13 + discarded,
                "13 verdicts used plus one discarded probe per failing step sharing its round"
            );
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
        let (result, [lane0, lane1]) = two_lane(&spec, 1.0, |_| false);
        let probes = lane0.len() + lane1.len();
        assert_eq!(probes, 1);
        assert_eq!(result, Err(capacity_rps(&spec) * 0.05));
    }

    #[test]
    fn two_lane_search_uses_exactly_the_sequential_verdicts() {
        // Monotone thresholds, verdicts hashed from each probed rate's bits
        // (monotone in nothing), always true and a failing floor, over
        // every service and random performance fractions.
        let mut rng = SimRng::new(0x2_1a2e);
        let specs = ServiceSpec::all();
        let bits = |r: Result<f64, f64>| r.map(f64::to_bits).map_err(f64::to_bits);
        let mut rejecting = [0usize; 2];
        for case in 0..400 {
            let spec = &specs[case % specs.len()];
            let performance = 0.05 + 0.95 * rng.uniform_f64();
            let capacity = spec.workers as f64 * 1000.0 / spec.mean_service_ms(performance);
            let threshold = capacity * rng.uniform_f64();
            let salt = rng.next_u64();
            let fail_one_in = 2 + rng.below(4);
            let predicates: [&(dyn Fn(f64) -> bool + Sync); 4] = [
                &|rate| rate <= threshold,
                &|rate| SimRng::new(rate.to_bits() ^ salt).below(fail_one_in) != 0,
                &|_| true,
                &|rate| rate > 0.05 * capacity,
            ];
            for (shape, meets) in predicates.into_iter().enumerate() {
                let (expected, log) = sequential_oracle(spec, performance, meets);
                let (result, lanes) = two_lane(spec, performance, meets);
                let what = format!("case {case}, predicate {shape}");
                assert_eq!(bits(result), bits(expected), "{what}");
                let probed: [Vec<u64>; 2] =
                    lanes.each_ref().map(|lane| lane.iter().map(|p| p.0.to_bits()).collect());
                let scheduled: [Vec<u64>; 2] =
                    lane_schedule(&log).map(|lane| lane.iter().map(|r| r.to_bits()).collect());
                assert_eq!(probed, scheduled, "{what}: the rates each lane probed");
                let rounds = lanes[0].len();
                match shape {
                    2 => assert_eq!((rounds, lanes[1].len()), (7, 6), "{what}: all pass"),
                    3 => assert_eq!((rounds, lanes[1].len()), (1, 0), "{what}: the floor fails"),
                    _ => rejecting[shape] += usize::from(log.iter().any(|p| !p.2)),
                }
            }
        }
        assert!(rejecting.iter().all(|&n| n > 300), "too few cases reject a probe: {rejecting:?}");
    }
}
