//! Latency-sensitive service specifications (Table I).

use sim_model::{CanonicalKey, KeyEncoder};

/// Which statistic of the latency distribution the QoS target constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TailMetric {
    /// 95th percentile latency.
    P95,
    /// 99th percentile latency.
    P99,
    /// A hard timeout: modelled as the 99.5th percentile staying below the
    /// target (Media Streaming's "2 s timeout" criterion).
    Timeout,
}

impl TailMetric {
    /// The percentile (0–100) evaluated for this metric.
    pub fn percentile(self) -> f64 {
        match self {
            TailMetric::P95 => 95.0,
            TailMetric::P99 => 99.0,
            TailMetric::Timeout => 99.5,
        }
    }
}

impl CanonicalKey for TailMetric {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.tag(match self {
            TailMetric::P95 => 0,
            TailMetric::P99 => 1,
            TailMetric::Timeout => 2,
        });
    }
}

/// A latency-sensitive service: its QoS target and service-time distribution.
///
/// Service times are log-normal (heavy-tailed, as observed for interactive
/// services); the median scales inversely with the performance fraction the
/// core delivers to the service's thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    /// Service name (matches the `workloads` crate naming).
    pub name: String,
    /// QoS latency target in milliseconds.
    pub qos_target_ms: f64,
    /// Which tail statistic the target constrains.
    pub tail_metric: TailMetric,
    /// Median per-request service time in milliseconds at full single-thread
    /// performance.
    pub service_median_ms: f64,
    /// Sigma of the underlying normal (controls the service-time tail).
    pub service_sigma: f64,
    /// Fraction of the service time that is CPU-bound and therefore scales
    /// with the inverse of the delivered single-thread performance; the rest
    /// (I/O, network, lock waits) is unaffected by core slowdown. This is why
    /// the §II duty cycling can take away most of the core without inflating
    /// request latency proportionally.
    pub cpu_fraction: f64,
    /// Number of worker threads processing requests in parallel on one server.
    pub workers: usize,
}

impl CanonicalKey for ServiceSpec {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.str(&self.name)
            .f64(self.qos_target_ms)
            .field(&self.tail_metric)
            .f64(self.service_median_ms)
            .f64(self.service_sigma)
            .f64(self.cpu_fraction)
            .usize(self.workers);
    }
}

impl ServiceSpec {
    /// Data Serving (Cassandra): 20 ms 99th-percentile target.
    pub fn data_serving() -> ServiceSpec {
        ServiceSpec {
            name: "data-serving".to_string(),
            qos_target_ms: 20.0,
            tail_metric: TailMetric::P99,
            service_median_ms: 1.6,
            service_sigma: 0.55,
            cpu_fraction: 0.55,
            workers: 8,
        }
    }

    /// Web Serving (Elgg/Nginx + MySQL): 1 s 95th-percentile target.
    pub fn web_serving() -> ServiceSpec {
        ServiceSpec {
            name: "web-serving".to_string(),
            qos_target_ms: 1000.0,
            tail_metric: TailMetric::P95,
            service_median_ms: 110.0,
            service_sigma: 0.5,
            cpu_fraction: 0.5,
            workers: 8,
        }
    }

    /// Web Search (Nutch/Lucene): 100 ms 99th-percentile target.
    pub fn web_search() -> ServiceSpec {
        ServiceSpec {
            name: "web-search".to_string(),
            qos_target_ms: 100.0,
            tail_metric: TailMetric::P99,
            service_median_ms: 9.0,
            service_sigma: 0.45,
            cpu_fraction: 0.5,
            workers: 8,
        }
    }

    /// Media Streaming (Darwin): 2 s timeout criterion.
    pub fn media_streaming() -> ServiceSpec {
        ServiceSpec {
            name: "media-streaming".to_string(),
            qos_target_ms: 2000.0,
            tail_metric: TailMetric::Timeout,
            service_median_ms: 230.0,
            service_sigma: 0.45,
            cpu_fraction: 0.35,
            workers: 8,
        }
    }

    /// All four services, in Table I order.
    pub fn all() -> Vec<ServiceSpec> {
        vec![
            ServiceSpec::data_serving(),
            ServiceSpec::web_serving(),
            ServiceSpec::web_search(),
            ServiceSpec::media_streaming(),
        ]
    }

    /// Looks a service up by name.
    pub fn by_name(name: &str) -> Option<ServiceSpec> {
        ServiceSpec::all().into_iter().find(|s| s.name == name)
    }

    /// The factor by which a request's service time stretches when the core
    /// delivers only `performance_fraction` of full single-thread
    /// performance: only the CPU-bound portion of the service time scales,
    /// the rest (I/O, network, lock waits) is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `performance_fraction` is not in `(0, 1]`.
    pub fn slowdown(&self, performance_fraction: f64) -> f64 {
        assert!(
            performance_fraction > 0.0 && performance_fraction <= 1.0,
            "{}: performance fraction {performance_fraction} must be in (0, 1]",
            self.name
        );
        self.cpu_fraction / performance_fraction + (1.0 - self.cpu_fraction)
    }

    /// Mean per-request service time (ms) at the given delivered
    /// performance: the log-normal mean `median · exp(σ²/2)` scaled by
    /// [`ServiceSpec::slowdown`]. This is the quantity capacity ceilings are
    /// computed from (a server's no-queueing throughput is
    /// `workers / mean`), shared by the single-server peak finder and the
    /// fleet's.
    ///
    /// # Panics
    ///
    /// Panics if `performance_fraction` is not in `(0, 1]`.
    pub fn mean_service_ms(&self, performance_fraction: f64) -> f64 {
        self.service_median_ms
            * (self.service_sigma * self.service_sigma / 2.0).exp()
            * self.slowdown(performance_fraction)
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency (non-positive or
    /// non-finite times, zero workers, or a target below the bare service
    /// median). The comparisons are written so NaN parameters fail too
    /// instead of slipping through and poisoning every percentile.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.qos_target_ms > 0.0
            && self.qos_target_ms.is_finite()
            && self.service_median_ms > 0.0
            && self.service_median_ms.is_finite())
        {
            return Err(format!("{}: latencies must be positive and finite", self.name));
        }
        if self.workers == 0 {
            return Err(format!("{}: need at least one worker", self.name));
        }
        if !(self.service_sigma >= 0.0 && self.service_sigma.is_finite()) {
            return Err(format!("{}: sigma must be non-negative and finite", self.name));
        }
        if !(self.cpu_fraction > 0.0 && self.cpu_fraction <= 1.0) {
            return Err(format!(
                "{}: cpu_fraction {} must be in (0, 1]",
                self.name, self.cpu_fraction
            ));
        }
        if self.qos_target_ms <= self.service_median_ms {
            return Err(format!(
                "{}: QoS target {} ms is not achievable with median service time {} ms",
                self.name, self.qos_target_ms, self.service_median_ms
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_services_match_table_i() {
        let all = ServiceSpec::all();
        assert_eq!(all.len(), 4);
        let ws = ServiceSpec::web_search();
        assert_eq!(ws.qos_target_ms, 100.0);
        assert_eq!(ws.tail_metric, TailMetric::P99);
        let ds = ServiceSpec::data_serving();
        assert_eq!(ds.qos_target_ms, 20.0);
        let wsv = ServiceSpec::web_serving();
        assert_eq!(wsv.tail_metric, TailMetric::P95);
        let ms = ServiceSpec::media_streaming();
        assert_eq!(ms.qos_target_ms, 2000.0);
    }

    #[test]
    fn all_specs_validate() {
        for s in ServiceSpec::all() {
            s.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(ServiceSpec::by_name("web-search").is_some());
        assert!(ServiceSpec::by_name("nope").is_none());
    }

    #[test]
    fn broken_specs_rejected() {
        let mut s = ServiceSpec::web_search();
        s.workers = 0;
        assert!(s.validate().is_err());
        let mut s = ServiceSpec::web_search();
        s.service_median_ms = 200.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn nan_parameters_no_longer_slip_through_validation() {
        for field in 0..3 {
            let mut s = ServiceSpec::web_search();
            match field {
                0 => s.qos_target_ms = f64::NAN,
                1 => s.service_median_ms = f64::NAN,
                _ => s.service_sigma = f64::NAN,
            }
            assert!(s.validate().is_err(), "NaN field {field} must be rejected");
        }
        let mut s = ServiceSpec::web_search();
        s.service_median_ms = f64::INFINITY;
        assert!(s.validate().is_err());
    }

    #[test]
    fn slowdown_scales_only_the_cpu_bound_fraction() {
        let s = ServiceSpec::web_search(); // cpu_fraction 0.5
        assert!((s.slowdown(1.0) - 1.0).abs() < 1e-12);
        // Halving performance doubles the CPU part: 0.5*2 + 0.5 = 1.5.
        assert!((s.slowdown(0.5) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "performance fraction")]
    fn slowdown_rejects_zero_performance() {
        let _ = ServiceSpec::web_search().slowdown(0.0);
    }

    #[test]
    fn tail_metric_percentiles() {
        assert_eq!(TailMetric::P95.percentile(), 95.0);
        assert_eq!(TailMetric::P99.percentile(), 99.0);
        assert!(TailMetric::Timeout.percentile() > 99.0);
    }
}
