//! Latency-versus-load sweeps (Figure 1).

use crate::arrival::ArrivalProcess;
use crate::server::{LatencySummary, ServerSim, SimParams};
use crate::service::ServiceSpec;

/// One point of a latency-versus-load curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Load as a fraction of the peak sustainable load (0–1].
    pub load: f64,
    /// Latency summary at that load.
    pub latency: LatencySummary,
}

/// Sweeps load from `min_load` to 1.0 in `steps` equal steps and reports the
/// latency summary at each point, as in Figure 1.
///
/// The peak sustainable load is determined first at full performance; all
/// points are expressed relative to it. The peak search and every point
/// replay one tape of `params`' randomness, so each point has the bits of
/// [`ServerSim::run_at_load`] at that load.
///
/// Returns an empty curve when the target is hopeless: the peak is zero
/// because even 5% of capacity misses it, so there is no load to sweep.
///
/// # Panics
///
/// Panics if `steps == 0` or `min_load` is not in `(0, 1)`.
pub fn latency_vs_load(
    spec: &ServiceSpec,
    params: SimParams,
    min_load: f64,
    steps: usize,
) -> Vec<LoadPoint> {
    assert!(steps > 0, "need at least one load step");
    assert!(min_load > 0.0 && min_load < 1.0, "min_load must be in (0, 1)");
    let sim = ServerSim::new(spec.clone(), ArrivalProcess::bursty(100.0));
    let tape = sim.tape(params);
    let peak = sim.peak_on(&tape, params);
    if peak <= 0.0 {
        return Vec::new();
    }
    let mut points = Vec::with_capacity(steps);
    for i in 0..steps {
        let load = if steps == 1 {
            1.0
        } else {
            min_load + (1.0 - min_load) * i as f64 / (steps - 1) as f64
        };
        let latency = sim.replay(&tape, load * peak, params);
        points.push(LoadPoint { load, latency });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_monotone_loads_and_growing_tail() {
        let points = latency_vs_load(&ServiceSpec::web_search(), SimParams::quick(13), 0.1, 6);
        assert_eq!(points.len(), 6);
        for pair in points.windows(2) {
            assert!(pair[1].load > pair[0].load);
        }
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        assert!((last.load - 1.0).abs() < 1e-9);
        assert!(last.latency.p99_ms > first.latency.p99_ms);
    }

    #[test]
    fn qos_met_at_every_subpeak_point_at_full_performance() {
        let spec = ServiceSpec::web_search();
        let points = latency_vs_load(&spec, SimParams::quick(17), 0.1, 5);
        for p in &points[..points.len() - 1] {
            assert!(
                p.latency.p99_ms <= spec.qos_target_ms * 1.1,
                "sub-peak load {} should be near or under the target (p99 {:.1} ms)",
                p.load,
                p.latency.p99_ms
            );
        }
    }

    #[test]
    fn hopeless_target_gives_an_empty_curve() {
        let mut spec = ServiceSpec::web_search();
        // Valid (above the median) but unmeetable: the tail of the service
        // times alone exceeds it, so the peak is zero.
        spec.qos_target_ms = spec.service_median_ms * 1.01;
        assert!(latency_vs_load(&spec, SimParams::quick(7), 0.1, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "min_load")]
    fn invalid_min_load_rejected() {
        let _ = latency_vs_load(&ServiceSpec::web_search(), SimParams::quick(1), 1.5, 3);
    }
}
