//! Cluster throughput case studies (§VI-D).
//!
//! Given a diurnal load pattern, an engagement threshold (the paper uses
//! 85% of peak load for the B-mode 56-136 configuration) and the measured
//! B-mode batch speedup, compute the average batch throughput gain over a
//! 24-hour period — the "+5% for a Web Search cluster, +11% for a YouTube
//! cluster" numbers.

use crate::diurnal::{DiurnalPattern, INTERVAL_HOURS};
use crate::fleet::{self, Fleet, FleetConfig, FleetReport, FleetScale, LoadBalancer};
use crate::topology::{FleetTopology, TailAccumulation};
use sim_model::{CanonicalKey, KeyEncoder};
use sim_qos::ServiceSpec;
use stretch::{ModePerformance, MonitorConfig, PerformanceTable, RobSkew, StretchMode};

/// One cluster case study. Its control interval is
/// [`INTERVAL_HOURS`], like every fleet's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseStudy {
    /// The diurnal load pattern of the latency-sensitive service.
    pub pattern: DiurnalPattern,
    /// Load threshold (fraction of peak) below which B-mode is engaged.
    pub engage_below: f64,
    /// Batch speedup delivered while B-mode is engaged (e.g. 1.11 for +11%).
    pub b_mode_batch_speedup: f64,
}

impl CaseStudy {
    /// The Web Search cluster case study with the paper's parameters: B-mode
    /// 56-136 engaged below 85% of peak, yielding an 11% batch speedup while
    /// engaged.
    pub fn web_search() -> CaseStudy {
        CaseStudy {
            pattern: DiurnalPattern::WebSearch,
            engage_below: 0.85,
            b_mode_batch_speedup: 1.11,
        }
    }

    /// The YouTube cluster case study.
    pub fn youtube() -> CaseStudy {
        CaseStudy {
            pattern: DiurnalPattern::YouTube,
            engage_below: 0.85,
            b_mode_batch_speedup: 1.155,
        }
    }

    /// A case study over a *measured* B-mode batch speedup instead of the
    /// paper's headline number — the bridge from cycle-level policy
    /// measurements (a `Scenario` run of Stretch's B-mode vs the baseline)
    /// to cluster-level accounting. The engagement threshold keeps the
    /// paper's value.
    pub fn with_measured_speedup(pattern: DiurnalPattern, b_mode_batch_speedup: f64) -> CaseStudy {
        CaseStudy { pattern, engage_below: 0.85, b_mode_batch_speedup }
    }

    /// Checks the study's parameters: an engagement threshold in (0, 1], a
    /// positive, finite B-mode batch speedup and a pattern that passes
    /// [`DiurnalPattern::validate`]. Both routes check this first:
    /// [`CaseStudy::run`] panics with the message, and
    /// [`CaseStudy::try_fleet_with`] returns it before any calibration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first rule the study breaks.
    pub fn validate(&self) -> Result<(), String> {
        let CaseStudy { pattern, engage_below, b_mode_batch_speedup } = *self;
        if !(engage_below > 0.0 && engage_below <= 1.0) {
            return Err(format!(
                "engagement threshold out of range: {engage_below} must be a fraction of peak \
                 load in (0, 1]"
            ));
        }
        if !(b_mode_batch_speedup > 0.0 && b_mode_batch_speedup.is_finite()) {
            return Err(format!(
                "B-mode batch speedup must be positive and finite, not {b_mode_batch_speedup}"
            ));
        }
        pattern.validate()
    }

    /// Runs the 24-hour accounting — the *analytical* route: count sampled
    /// intervals below the engagement threshold and credit each with the
    /// hand-fed B-mode speedup. [`CaseStudy::run_fleet`] measures the same
    /// quantity with the load-balanced fleet simulation instead.
    ///
    /// # Panics
    ///
    /// Panics with the [`CaseStudy::validate`] message if the parameters
    /// are out of range.
    pub fn run(&self) -> CaseStudyReport {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        let samples = self.pattern.sample();
        let mut engaged = 0usize;
        let mut throughput_sum = 0.0;
        for s in &samples {
            if s.load < self.engage_below {
                engaged += 1;
                throughput_sum += self.b_mode_batch_speedup;
            } else {
                throughput_sum += 1.0;
            }
        }
        let total = samples.len();
        CaseStudyReport {
            hours_engaged: engaged as f64 * INTERVAL_HOURS,
            fraction_engaged: engaged as f64 / total as f64,
            average_batch_throughput: throughput_sum / total as f64,
        }
    }

    /// The latency-sensitive service this study's diurnal pattern stands
    /// for: Web Search traffic maps to the Web Search service, the YouTube
    /// edge curve to Media Streaming, custom patterns default to Web Search.
    pub fn service(&self) -> ServiceSpec {
        match self.pattern {
            DiurnalPattern::YouTube => ServiceSpec::media_streaming(),
            DiurnalPattern::WebSearch | DiurnalPattern::Custom { .. } => ServiceSpec::web_search(),
        }
    }

    /// Lowers this study onto the measured fleet simulation: N servers
    /// behind a load balancer, per-server closed-loop Stretch monitors whose
    /// engage/disengage thresholds are calibrated (on the fleet itself) to
    /// the study's load threshold, and a performance table whose B-mode
    /// batch speedup is this study's speedup. Only a B-mode is provisioned,
    /// matching the accounting's assumption that disengaged intervals run
    /// at baseline throughput.
    pub fn fleet_config(&self, balancer: LoadBalancer, scale: FleetScale) -> FleetConfig {
        self.fleet(balancer, scale).cfg().clone()
    }

    /// Builds the measured fleet for this study, running the peak bisection
    /// once and reusing it for both the threshold calibration and the day's
    /// run (the peak does not depend on the monitor being derived).
    pub fn fleet(&self, balancer: LoadBalancer, scale: FleetScale) -> Fleet {
        self.fleet_with(balancer, scale, FleetTopology::Flat, TailAccumulation::Exact, 1)
    }

    /// Convenience: build and run the measured fleet for this study.
    pub fn run_fleet(&self, balancer: LoadBalancer, scale: FleetScale) -> FleetReport {
        self.fleet(balancer, scale).run()
    }

    /// [`CaseStudy::run_fleet`] sharded over `workers` OS threads. The
    /// report is bit-identical for every worker count (the merge is a
    /// deterministic shard-index-order fold), so callers pick a count purely
    /// for wall-clock reasons.
    pub fn run_fleet_with_workers(
        &self,
        balancer: LoadBalancer,
        scale: FleetScale,
        workers: usize,
    ) -> FleetReport {
        self.fleet(balancer, scale).run_with_workers(workers)
    }

    /// [`CaseStudy::try_fleet_with`] for a shape known to be valid.
    ///
    /// # Panics
    ///
    /// Panics if the fleet configuration is invalid.
    pub fn fleet_with(
        &self,
        balancer: LoadBalancer,
        scale: FleetScale,
        topology: FleetTopology,
        tails: TailAccumulation,
        days: usize,
    ) -> Fleet {
        self.try_fleet_with(balancer, scale, topology, tails, days)
            .unwrap_or_else(|message| panic!("invalid fleet configuration: {message}"))
    }

    /// [`CaseStudy::fleet`] generalised to a datacenter shape: cluster →
    /// rack → server `topology`, a tail-retention policy and a run length
    /// in days. `FleetTopology::Flat` lowers to one rack under `balancer`,
    /// and `FleetTopology::racked(r, b)` to `r` racks under `b` (`balancer`
    /// is then unused), so `Flat` and `racked(1, balancer)` build the same
    /// fleet. Peak measurement and threshold calibration run on one rack,
    /// so building a 10k-server fleet stays cheap: one peak bisection, one
    /// threshold calibration.
    ///
    /// # Errors
    ///
    /// Returns the [`CaseStudy::validate`] or [`FleetConfig::validate`]
    /// message when the study or the shape is invalid (say, servers that do
    /// not split evenly over the racks), before any calibration runs.
    pub fn try_fleet_with(
        &self,
        balancer: LoadBalancer,
        scale: FleetScale,
        topology: FleetTopology,
        tails: TailAccumulation,
        days: usize,
    ) -> Result<Fleet, String> {
        self.validate()?;
        let (racks, balancer) = match topology {
            FleetTopology::Flat => (1, balancer),
            FleetTopology::Racked { racks, balancer } => (racks, balancer),
        };
        let table = PerformanceTable {
            baseline: ModePerformance::paper_defaults(StretchMode::Baseline),
            b_mode: ModePerformance {
                ls_performance: ModePerformance::paper_defaults(StretchMode::BatchBoost(
                    RobSkew::recommended_b_mode(),
                ))
                .ls_performance,
                batch_speedup: self.b_mode_batch_speedup,
            },
            q_mode: ModePerformance::paper_defaults(StretchMode::QosBoost(
                RobSkew::recommended_q_mode(),
            )),
        };
        let mut cfg = FleetConfig {
            servers: scale.servers,
            service: self.service(),
            pattern: self.pattern,
            racks,
            balancer,
            tails,
            days,
            requests_per_server: scale.requests_per_server,
            // A placeholder: the thresholds are calibrated below.
            monitor: MonitorConfig::default(),
            table,
            seed: scale.seed,
        };
        cfg.validate()?;
        let peak_rps = fleet::measured_peak_rps(&cfg);
        cfg.monitor = fleet::calibrated_monitor_with_peak(&cfg, self.engage_below, peak_rps);
        Ok(Fleet::with_peak(cfg, peak_rps))
    }
}

impl CanonicalKey for CaseStudy {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.field(&self.pattern).f64(self.engage_below).f64(self.b_mode_batch_speedup);
    }
}

/// Result of a case study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseStudyReport {
    /// Hours per day during which B-mode was engaged.
    pub hours_engaged: f64,
    /// Fraction of the day engaged.
    pub fraction_engaged: f64,
    /// Average batch throughput relative to the baseline over 24 hours.
    pub average_batch_throughput: f64,
}

impl CaseStudyReport {
    /// The 24-hour cluster throughput gain, e.g. 0.05 for +5%.
    pub fn gain(&self) -> f64 {
        self.average_batch_throughput - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn web_search_cluster_gains_about_5_percent() {
        let report = CaseStudy::web_search().run();
        assert!(
            (report.hours_engaged - 11.0).abs() < 1.5,
            "engaged hours {:.1} should be ~11",
            report.hours_engaged
        );
        assert!(
            (report.gain() - 0.05).abs() < 0.015,
            "Web Search cluster gain {:.3} should be ~0.05",
            report.gain()
        );
    }

    #[test]
    fn youtube_cluster_gains_about_11_percent() {
        let report = CaseStudy::youtube().run();
        assert!(
            (report.hours_engaged - 17.0).abs() < 1.5,
            "engaged hours {:.1} should be ~17",
            report.hours_engaged
        );
        assert!(
            (report.gain() - 0.11).abs() < 0.02,
            "YouTube cluster gain {:.3} should be ~0.11",
            report.gain()
        );
    }

    #[test]
    fn a_flat_low_load_service_gains_the_full_b_mode_speedup() {
        let study = CaseStudy {
            pattern: DiurnalPattern::Custom {
                base: 0.2,
                amplitude: 0.1,
                peak_hour: 12.0,
                width: 6.0,
            },
            engage_below: 0.85,
            b_mode_batch_speedup: 1.13,
        };
        let report = study.run();
        assert!((report.fraction_engaged - 1.0).abs() < 1e-9);
        assert!((report.gain() - 0.13).abs() < 1e-9);
    }

    #[test]
    fn a_service_pinned_at_peak_gains_nothing() {
        let study = CaseStudy {
            pattern: DiurnalPattern::Custom {
                base: 1.0,
                amplitude: 0.0,
                peak_hour: 12.0,
                width: 6.0,
            },
            engage_below: 0.85,
            b_mode_batch_speedup: 1.13,
        };
        let report = study.run();
        assert_eq!(report.gain(), 0.0);
        assert_eq!(report.hours_engaged, 0.0);
    }

    #[test]
    fn an_always_engaged_day_credits_exactly_24_hours() {
        let flat = CaseStudy {
            pattern: DiurnalPattern::Custom {
                base: 0.2,
                amplitude: 0.0,
                peak_hour: 12.0,
                width: 6.0,
            },
            engage_below: 0.85,
            b_mode_batch_speedup: 1.13,
        };
        assert_eq!(flat.run().hours_engaged, 24.0);
    }

    #[test]
    fn measured_speedup_scales_the_gain() {
        let paper = CaseStudy::web_search().run();
        let measured = CaseStudy::with_measured_speedup(DiurnalPattern::WebSearch, 1.22).run();
        // Same pattern and threshold, so the engaged hours are identical; a
        // larger measured speedup must scale the 24-hour gain up.
        assert_eq!(measured.hours_engaged, paper.hours_engaged);
        assert!(measured.gain() > paper.gain());
    }

    #[test]
    fn an_invalid_fleet_shape_is_an_error_before_any_calibration() {
        // Calibration panics on an invalid config, so an `Err` here proves
        // the shape was checked first.
        let racked = |racks| FleetTopology::racked(racks, LoadBalancer::RoundRobin);
        let binned = TailAccumulation::binned_default();
        for (servers, requests_per_server, topology, tails, message) in [
            (100, 20, racked(7), binned, "100 servers do not split evenly over 7 racks"),
            (
                16,
                5,
                racked(2),
                binned,
                "5 requests per server-interval cannot resolve a tail percentile (need >= 20)",
            ),
            (0, 20, FleetTopology::Flat, binned, "a fleet needs at least one server"),
        ] {
            let scale = FleetScale { servers, requests_per_server, seed: 1 };
            let result = CaseStudy::web_search().try_fleet_with(
                LoadBalancer::RoundRobin,
                scale,
                topology,
                tails,
                1,
            );
            assert_eq!(result.map(|fleet| fleet.peak_rps()), Err(message.to_string()));
        }
    }

    #[test]
    fn an_invalid_custom_pattern_is_rejected_by_both_routes() {
        // A NaN base read as full load at every hour (`NaN.min(1.0)` is
        // 1.0), so the fleet ran a full-load day; a base of -0.5 read as
        // loads of -0.5 to -0.3, which the analytical route credited with
        // 24 engaged hours while the fleet ran every interval at its
        // 1e-3 rps rate floor.
        for (base, message) in [
            (
                f64::NAN,
                "diurnal pattern parameters must be finite (base NaN, amplitude 0.2, peak hour \
                 12, width 6)",
            ),
            (-0.5, "diurnal base -0.5 and amplitude 0.2 must not be negative"),
        ] {
            let study = CaseStudy {
                pattern: DiurnalPattern::Custom {
                    base,
                    amplitude: 0.2,
                    peak_hour: 12.0,
                    width: 6.0,
                },
                ..CaseStudy::web_search()
            };
            let panic = std::panic::catch_unwind(|| study.run()).expect_err("pattern accepted");
            assert_eq!(panic.downcast_ref::<String>().map(String::as_str), Some(message));
            let fleet = study.try_fleet_with(
                LoadBalancer::RoundRobin,
                FleetScale::quick(1),
                FleetTopology::Flat,
                TailAccumulation::Exact,
                1,
            );
            assert_eq!(fleet.map(|fleet| fleet.peak_rps()), Err(message.to_string()));
        }
    }

    #[test]
    fn an_out_of_range_study_is_rejected_by_both_routes() {
        // Both routes refuse each study with one message before any work.
        // The fleet route's calibration panics on an out-of-range
        // threshold, so an `Err` proves the check ran first; the analytical
        // route would credit an infinite speedup as an infinite gain.
        let threshold = |engage_below| CaseStudy { engage_below, ..CaseStudy::web_search() };
        let speedup =
            |b_mode_batch_speedup| CaseStudy { b_mode_batch_speedup, ..CaseStudy::web_search() };
        let out_of_range = |t: &str| {
            format!(
                "engagement threshold out of range: {t} must be a fraction of peak load in (0, 1]"
            )
        };
        let not_positive =
            |s: &str| format!("B-mode batch speedup must be positive and finite, not {s}");
        for (study, message) in [
            (threshold(0.0), out_of_range("0")),
            (threshold(f64::NAN), out_of_range("NaN")),
            (threshold(1.5), out_of_range("1.5")),
            (speedup(f64::INFINITY), not_positive("inf")),
            (speedup(f64::NAN), not_positive("NaN")),
            (speedup(-1.0), not_positive("-1")),
        ] {
            assert_eq!(study.validate(), Err(message.clone()));
            let panic = std::panic::catch_unwind(|| study.run()).expect_err("study accepted");
            assert_eq!(panic.downcast_ref::<String>(), Some(&message));
            let fleet = study.try_fleet_with(
                LoadBalancer::RoundRobin,
                FleetScale::quick(1),
                FleetTopology::Flat,
                TailAccumulation::Exact,
                1,
            );
            assert_eq!(fleet.map(|fleet| fleet.peak_rps()), Err(message));
        }
        assert_eq!(threshold(1.0).validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "speedup must be positive")]
    fn invalid_speedup_rejected() {
        let mut s = CaseStudy::web_search();
        s.b_mode_batch_speedup = 0.0;
        let _ = s.run();
    }
}
