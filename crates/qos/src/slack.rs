//! Performance-slack analysis (Figure 2).
//!
//! At a given load, the *slack* is the amount of single-thread performance
//! that can be sacrificed while still meeting the QoS target. Figure 2
//! reports the complementary quantity — the minimum fraction of full-core
//! performance required — as a function of load. This module computes it by
//! searching over the performance fraction at each load level, exactly as the
//! paper does with its §II duty-cycle modulation.

use crate::arrival::ArrivalProcess;
use crate::server::{RunTape, ServerSim, SimParams};
use crate::service::ServiceSpec;

/// One point of the slack curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackPoint {
    /// Load as a fraction of the peak sustainable load.
    pub load: f64,
    /// Minimum fraction of full single-thread performance that still meets
    /// the QoS target at this load (1.0 when even full performance barely
    /// suffices, smaller when there is slack). When [`SlackPoint::feasible`]
    /// is `false` this is 1.0 as well, but the target is *not* met — use
    /// [`SlackPoint::required`] to keep the two cases apart.
    pub required_performance: f64,
    /// Whether the QoS target is met at all at this load. `false` means even
    /// full single-thread performance violates the target, so the load point
    /// has no feasible operating fraction (and zero slack by definition).
    pub feasible: bool,
}

impl SlackPoint {
    /// Slack: the fraction of performance that can be given away, or zero
    /// when the load point is infeasible.
    pub fn slack(&self) -> f64 {
        if self.feasible {
            1.0 - self.required_performance
        } else {
            0.0
        }
    }

    /// The minimum feasible performance fraction, or `None` when the target
    /// is unmet at any fraction (distinguishing "full performance barely
    /// suffices" from "full performance is not enough").
    pub fn required(&self) -> Option<f64> {
        self.feasible.then_some(self.required_performance)
    }

    /// Whether a policy that delivers `performance` (a fraction of full
    /// single-thread performance, e.g. a §II duty cycle or a Stretch
    /// mode's measured `ls_performance`) still meets the QoS target at this
    /// load point. Infeasible points are met by no delivered performance.
    pub fn met_by(&self, performance: f64) -> bool {
        self.feasible && performance >= self.required_performance
    }
}

/// Computes the required-performance curve of Figure 2 for one service.
///
/// `loads` lists the load fractions to evaluate (the paper uses 10%–100% in
/// 10% steps). The search over performance fractions uses the same
/// granularity as the figure (5% steps). The peak search and every run at
/// every load and fraction replay one tape of `params`' randomness (see
/// [`crate::server`]).
///
/// # Panics
///
/// Panics if `loads` is empty or contains values outside `(0, 1]`.
pub fn slack_curve(spec: &ServiceSpec, params: SimParams, loads: &[f64]) -> Vec<SlackPoint> {
    assert!(!loads.is_empty(), "need at least one load point");
    let sim = ServerSim::new(spec.clone(), ArrivalProcess::bursty(100.0));
    let tape = sim.tape(params);
    let peak = sim.peak_on(&tape, params);
    loads
        .iter()
        .map(|&load| {
            assert!(load > 0.0 && load <= 1.0, "load {load} outside (0, 1]");
            // A zero peak means the target is unmet even at a trickle of
            // requests — every load point is infeasible.
            let (required_performance, feasible) = if peak > 0.0 {
                required_performance(&sim, &tape, peak, load, params)
            } else {
                (1.0, false)
            };
            SlackPoint { load, required_performance, feasible }
        })
        .collect()
}

/// Minimum performance fraction (searched in 5% steps) meeting QoS at
/// `load`, plus whether the target is feasible at all. The search walks from
/// full performance downwards and stops at the first violation; if the very
/// first step (full performance) already violates the target, the point is
/// infeasible rather than "requires 1.0".
fn required_performance(
    sim: &ServerSim,
    tape: &RunTape,
    peak_rps: f64,
    load: f64,
    params: SimParams,
) -> (f64, bool) {
    let target = sim.spec().qos_target_ms;
    let metric = sim.spec().tail_metric;
    let mut required = 1.0;
    let mut feasible = false;
    let steps: Vec<f64> = (1..=20).map(|i| i as f64 * 0.05).collect();
    for &fraction in steps.iter().rev() {
        let summary = sim.replay(tape, load * peak_rps, params.with_performance(fraction));
        if summary.tail(metric) <= target {
            required = fraction;
            feasible = true;
        } else {
            break;
        }
    }
    (required, feasible)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_shrinks_as_load_grows() {
        let points =
            slack_curve(&ServiceSpec::web_search(), SimParams::quick(23), &[0.2, 0.5, 0.9]);
        assert_eq!(points.len(), 3);
        assert!(
            points[0].required_performance <= points[1].required_performance,
            "20% load should need no more performance than 50% load"
        );
        assert!(
            points[1].required_performance <= points[2].required_performance,
            "50% load should need no more performance than 90% load"
        );
    }

    #[test]
    fn low_load_has_large_slack_high_load_has_little() {
        let points = slack_curve(&ServiceSpec::web_search(), SimParams::quick(29), &[0.2, 0.9]);
        assert!(
            points[0].slack() >= 0.5,
            "at 20% load at least half of the performance should be slack (got {:.2})",
            points[0].slack()
        );
        assert!(
            points[1].slack() <= 0.4,
            "at 90% load little slack should remain (got {:.2})",
            points[1].slack()
        );
    }

    #[test]
    fn slack_is_complement_of_required_performance() {
        let p = SlackPoint { load: 0.3, required_performance: 0.4, feasible: true };
        assert!((p.slack() - 0.6).abs() < 1e-12);
        assert_eq!(p.required(), Some(0.4));
    }

    #[test]
    fn met_by_compares_delivered_performance_against_the_requirement() {
        let p = SlackPoint { load: 0.3, required_performance: 0.4, feasible: true };
        assert!(p.met_by(0.4), "delivering exactly the requirement meets the target");
        assert!(p.met_by(0.8));
        assert!(!p.met_by(0.35));
        let unmet = SlackPoint { load: 1.0, required_performance: 1.0, feasible: false };
        assert!(!unmet.met_by(1.0), "an infeasible point is met by no duty cycle");
    }

    #[test]
    fn infeasible_point_is_distinguishable_from_barely_feasible() {
        let barely = SlackPoint { load: 1.0, required_performance: 1.0, feasible: true };
        let unmet = SlackPoint { load: 1.0, required_performance: 1.0, feasible: false };
        assert_eq!(barely.required(), Some(1.0));
        assert_eq!(unmet.required(), None);
        assert!((barely.slack()).abs() < 1e-12);
        assert!((unmet.slack()).abs() < 1e-12);
        assert_ne!(barely, unmet, "the flag must survive comparisons and serialisation");
    }

    #[test]
    fn impossible_qos_target_reports_infeasible_loads() {
        // A tail target barely above the *median* service time cannot be met
        // by a heavy-tailed (log-normal) service at any performance fraction
        // or load: the p99 always exceeds the median by far more than 1%.
        let mut spec = ServiceSpec::web_search();
        spec.qos_target_ms = spec.service_median_ms * 1.01;
        let points = slack_curve(&spec, SimParams::quick(5), &[0.2, 0.9]);
        for p in &points {
            assert!(
                !p.feasible,
                "target {} ms must be unmet at load {}",
                spec.qos_target_ms, p.load
            );
            assert_eq!(p.required(), None);
            assert!((p.slack()).abs() < 1e-12);
        }
    }

    #[test]
    fn feasible_loads_are_marked_feasible() {
        let points = slack_curve(&ServiceSpec::web_search(), SimParams::quick(23), &[0.2]);
        assert!(points[0].feasible, "web-search at 20% load meets its target at full perf");
    }

    #[test]
    #[should_panic(expected = "at least one load point")]
    fn empty_loads_rejected() {
        let _ = slack_curve(&ServiceSpec::web_search(), SimParams::quick(1), &[]);
    }
}
