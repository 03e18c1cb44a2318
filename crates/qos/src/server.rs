//! Discrete-event simulation of one latency-sensitive server.
//!
//! Requests arrive open-loop, wait in a FCFS queue for one of the service's
//! worker threads, and are processed for a log-normally distributed service
//! time whose median is scaled by `1 / performance_fraction` — degrading the
//! core's single-thread performance stretches every request proportionally.
//! Sojourn (queueing + service) times are collected and summarised.

use crate::arrival::{ArrivalGenerator, ArrivalProcess};
use crate::service::ServiceSpec;
use serde::{Deserialize, Serialize};
use sim_model::{CanonicalKey, KeyEncoder, SimRng};
use sim_stats::Percentiles;

/// Parameters of one server simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimParams {
    /// Number of requests to simulate (after warm-up).
    pub requests: usize,
    /// Requests discarded as warm-up.
    pub warmup_requests: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of full single-thread performance delivered to the service
    /// (1.0 = full core; 0.25 = request processing takes 4× as long).
    pub performance_fraction: f64,
}

impl SimParams {
    /// Default run: 20 000 measured requests after 2 000 warm-up requests at
    /// full performance.
    pub fn standard(seed: u64) -> SimParams {
        SimParams { requests: 20_000, warmup_requests: 2_000, seed, performance_fraction: 1.0 }
    }

    /// A smaller run for tests.
    pub fn quick(seed: u64) -> SimParams {
        SimParams { requests: 4_000, warmup_requests: 400, seed, performance_fraction: 1.0 }
    }

    /// Returns a copy with a different performance fraction.
    pub fn with_performance(mut self, fraction: f64) -> SimParams {
        self.performance_fraction = fraction;
        self
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns an error when the run would measure nothing or the
    /// performance fraction is not in `(0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if self.requests == 0 {
            return Err("need at least one measured request".into());
        }
        if !(self.performance_fraction > 0.0 && self.performance_fraction <= 1.0) {
            return Err(format!(
                "performance fraction {} must be in (0, 1]",
                self.performance_fraction
            ));
        }
        Ok(())
    }
}

impl CanonicalKey for SimParams {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.usize(self.requests)
            .usize(self.warmup_requests)
            .u64(self.seed)
            .f64(self.performance_fraction);
    }
}

/// Latency summary of a run (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Mean sojourn time.
    pub mean_ms: f64,
    /// 95th percentile sojourn time.
    pub p95_ms: f64,
    /// 99th percentile sojourn time.
    pub p99_ms: f64,
    /// 99.5th percentile sojourn time (the "timeout" metric).
    pub p995_ms: f64,
    /// Maximum observed sojourn time.
    pub max_ms: f64,
    /// Number of measured requests.
    pub requests: usize,
}

impl LatencySummary {
    /// The latency value corresponding to a service's tail metric.
    pub fn tail(&self, metric: crate::service::TailMetric) -> f64 {
        match metric {
            crate::service::TailMetric::P95 => self.p95_ms,
            crate::service::TailMetric::P99 => self.p99_ms,
            crate::service::TailMetric::Timeout => self.p995_ms,
        }
    }
}

/// The discrete-event server simulator.
#[derive(Debug, Clone)]
pub struct ServerSim {
    spec: ServiceSpec,
    arrivals: ArrivalProcess,
}

impl ServerSim {
    /// Creates a simulator for `spec` with the given arrival process.
    ///
    /// # Panics
    ///
    /// Panics if the service specification or the arrival process is invalid.
    pub fn new(spec: ServiceSpec, arrivals: ArrivalProcess) -> ServerSim {
        spec.validate().expect("invalid service spec");
        arrivals.validate().expect("invalid arrival process");
        ServerSim { spec, arrivals }
    }

    /// The service being simulated.
    pub fn spec(&self) -> &ServiceSpec {
        &self.spec
    }

    /// The peak sustainable arrival rate (requests/second) at full
    /// performance: the highest rate at which the tail-latency target is
    /// still met. Determined by bisection over simulation runs, mirroring
    /// how the paper establishes each service's peak load empirically.
    pub fn find_peak_load_rps(&self, params: SimParams) -> f64 {
        // Upper bound: the no-queueing throughput of all workers.
        let mean_service_ms = self.spec.mean_service_ms(params.performance_fraction);
        let capacity_rps = self.spec.workers as f64 * 1000.0 / mean_service_ms;
        let mut lo = capacity_rps * 0.05;
        let mut hi = capacity_rps;
        // If even 5% of capacity violates QoS the configuration is hopeless.
        if !self.meets_qos(lo, params) {
            return 0.0;
        }
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            if self.meets_qos(mid, params) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Whether the QoS target is met at the given arrival rate.
    pub fn meets_qos(&self, rate_rps: f64, params: SimParams) -> bool {
        let summary = self.run_at_rate(rate_rps, params);
        summary.tail(self.spec.tail_metric) <= self.spec.qos_target_ms
    }

    /// Runs the simulation at an absolute arrival rate.
    pub fn run_at_rate(&self, rate_rps: f64, params: SimParams) -> LatencySummary {
        params.validate().expect("invalid simulation parameters");
        assert!(rate_rps > 0.0, "arrival rate must be positive");
        let mut rng = SimRng::new(params.seed);
        let arrival_rng = rng.fork(1);
        let service_rng = rng.fork(2);
        let mut arrivals = ArrivalGenerator::new(self.arrivals.with_rate(rate_rps), arrival_rng);
        // Only the CPU-bound portion of the service time stretches when the
        // core delivers less single-thread performance.
        let slowdown = self.spec.slowdown(params.performance_fraction);
        let mut service = ServiceTimes {
            rng: service_rng,
            median_ms: self.spec.service_median_ms * slowdown,
            sigma: self.spec.service_sigma,
        };

        // Worker availability times (ms). A request starts on the earliest
        // available worker, no earlier than its arrival.
        let mut workers = vec![0.0f64; self.spec.workers];
        let mut sojourn = Percentiles::new();
        let total = params.warmup_requests + params.requests;
        for i in 0..total {
            let arrival = arrivals.next_arrival_ms();
            // Earliest-available worker (FCFS with greedy assignment).
            let (widx, &avail) = workers
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN worker times"))
                .expect("at least one worker");
            let start = arrival.max(avail);
            let service_time = service.draw();
            let finish = start + service_time;
            workers[widx] = finish;
            if i >= params.warmup_requests {
                sojourn.record(finish - arrival);
            }
        }

        LatencySummary {
            mean_ms: sojourn.mean().unwrap_or(0.0),
            p95_ms: sojourn.percentile(95.0).unwrap_or(0.0),
            p99_ms: sojourn.percentile(99.0).unwrap_or(0.0),
            p995_ms: sojourn.percentile(99.5).unwrap_or(0.0),
            max_ms: sojourn.max().unwrap_or(0.0),
            requests: sojourn.len(),
        }
    }

    /// Runs the simulation at a load expressed as a fraction of the peak
    /// sustainable load (`load` in `(0, 1]`), where the peak was measured at
    /// *full* performance. This matches the paper's methodology: the X axes
    /// of Figures 1 and 2 are percentages of each service's maximum
    /// QoS-compliant load.
    pub fn run_at_load(&self, load: f64, peak_rps: f64, params: SimParams) -> LatencySummary {
        assert!(load > 0.0 && load <= 1.001, "load must be a fraction of peak (got {load})");
        self.run_at_rate(load * peak_rps, params)
    }
}

#[derive(Debug, Clone)]
struct ServiceTimes {
    rng: SimRng,
    median_ms: f64,
    sigma: f64,
}

impl ServiceTimes {
    fn draw(&mut self) -> f64 {
        self.rng.log_normal(self.median_ms, self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::TailMetric;

    fn web_search_sim() -> ServerSim {
        ServerSim::new(ServiceSpec::web_search(), ArrivalProcess::bursty(100.0))
    }

    #[test]
    fn tail_latency_grows_with_load() {
        let sim = web_search_sim();
        let params = SimParams::quick(7);
        let peak = sim.find_peak_load_rps(params);
        assert!(peak > 0.0);
        let low = sim.run_at_load(0.2, peak, params);
        let high = sim.run_at_load(0.95, peak, params);
        assert!(
            high.p99_ms > low.p99_ms * 1.5,
            "p99 must grow sharply near saturation (low={:.1}, high={:.1})",
            low.p99_ms,
            high.p99_ms
        );
        assert!(high.mean_ms > low.mean_ms);
    }

    #[test]
    fn p99_grows_faster_than_mean() {
        // Figure 1's observation: the mean climbs slowly, the tail explodes.
        let sim = web_search_sim();
        let params = SimParams::quick(11);
        let peak = sim.find_peak_load_rps(params);
        let low = sim.run_at_load(0.1, peak, params);
        let high = sim.run_at_load(1.0, peak, params);
        let mean_growth = high.mean_ms / low.mean_ms;
        let p99_growth = high.p99_ms / low.p99_ms;
        assert!(
            p99_growth > mean_growth,
            "tail should grow faster than the mean (mean×{mean_growth:.2}, p99×{p99_growth:.2})"
        );
    }

    #[test]
    fn peak_load_meets_qos_and_above_peak_violates() {
        let sim = web_search_sim();
        let params = SimParams::quick(3);
        let peak = sim.find_peak_load_rps(params);
        assert!(sim.meets_qos(peak * 0.9, params));
        assert!(!sim.meets_qos(peak * 1.5, params));
    }

    #[test]
    fn degraded_performance_inflates_latency() {
        let sim = web_search_sim();
        let params = SimParams::quick(5);
        let peak = sim.find_peak_load_rps(params);
        let full = sim.run_at_load(0.3, peak, params);
        let degraded = sim.run_at_load(0.3, peak, params.with_performance(0.25));
        assert!(
            degraded.p99_ms > full.p99_ms * 1.5,
            "quartering performance should sharply inflate the tail at moderate load \
             (full={:.1} ms, degraded={:.1} ms)",
            full.p99_ms,
            degraded.p99_ms
        );
    }

    #[test]
    fn slack_exists_at_low_load() {
        // At 20% of peak load, Web Search should still meet QoS with a badly
        // degraded core — the crux of the paper's Section II.
        let sim = web_search_sim();
        let params = SimParams::quick(9);
        let peak = sim.find_peak_load_rps(params);
        let degraded = sim.run_at_load(0.2, peak, params.with_performance(0.35));
        assert!(
            degraded.p99_ms <= sim.spec().qos_target_ms,
            "at 20% load, 35% of full performance should still meet the 100 ms target \
             (got {:.1} ms)",
            degraded.p99_ms
        );
    }

    #[test]
    fn summary_tail_selector() {
        let s = LatencySummary {
            mean_ms: 1.0,
            p95_ms: 2.0,
            p99_ms: 3.0,
            p995_ms: 4.0,
            max_ms: 5.0,
            requests: 10,
        };
        assert_eq!(s.tail(TailMetric::P95), 2.0);
        assert_eq!(s.tail(TailMetric::P99), 3.0);
        assert_eq!(s.tail(TailMetric::Timeout), 4.0);
    }

    fn summary_bits(s: &LatencySummary) -> [u64; 6] {
        let ms = [s.mean_ms, s.p95_ms, s.p99_ms, s.p995_ms, s.max_ms].map(f64::to_bits);
        [ms[0], ms[1], ms[2], ms[3], ms[4], s.requests as u64]
    }

    #[test]
    fn deterministic_for_same_seed() {
        let sim = web_search_sim();
        let run = || summary_bits(&sim.run_at_rate(300.0, SimParams::quick(42)));
        assert_eq!(run(), run());
        // The curves built on the server (a peak bisection, then runs per
        // load point) are bit-identical for the same seed as well.
        let spec = ServiceSpec::web_search();
        let latency_curve = || -> Vec<(u64, [u64; 6])> {
            crate::latency_vs_load(&spec, SimParams::quick(11), 0.2, 6)
                .iter()
                .map(|p| (p.load.to_bits(), summary_bits(&p.latency)))
                .collect()
        };
        assert_eq!(latency_curve(), latency_curve());
        let slack_curve = || -> Vec<(u64, u64, bool)> {
            crate::slack_curve(&spec, SimParams::quick(12), &[0.3, 0.6, 0.9])
                .iter()
                .map(|p| (p.load.to_bits(), p.required_performance.to_bits(), p.feasible))
                .collect()
        };
        assert_eq!(slack_curve(), slack_curve());
    }

    #[test]
    #[should_panic(expected = "performance fraction")]
    fn invalid_performance_fraction_rejected() {
        let sim = web_search_sim();
        let _ = sim.run_at_rate(100.0, SimParams::quick(1).with_performance(0.0));
    }
}
