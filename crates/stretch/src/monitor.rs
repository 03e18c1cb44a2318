//! The software monitor (§IV-C): an extension of Google's CPI² framework
//! that tracks a QoS metric and picks the Stretch mode to engage.
//!
//! This is the repository's one closed loop: the fleet simulation
//! (`cluster_sim::Fleet`) owns one [`SoftwareMonitor`] per server and calls
//! [`SoftwareMonitor::observe_tail_latency`] with each measured
//! server-interval's tail. The monitor compares that tail against the
//! service's QoS target and decides which mode to engage:
//!
//! * ample slack (metric well below the target) → engage **B-mode**;
//! * metric approaching the target → disengage B-mode (back to the baseline
//!   or, if provisioned, **Q-mode**);
//! * persistent violations despite that → take the CPI²-style corrective
//!   action and **throttle the co-runner**.
//!
//! Hysteresis (distinct engage/disengage thresholds plus a required number
//! of consecutive observations before engaging) keeps mode changes — and the
//! pipeline flushes they imply — infrequent, matching the paper's
//! observation that load swings are slow and cyclical.

use crate::config::{StretchConfig, StretchMode};
use sim_model::{CanonicalKey, KeyEncoder};

/// Monitor tuning knobs: the tail-latency thresholds each observation is
/// compared against (the paper's primary QoS signal: "we use tail latency as
/// a representative and easily-available QoS metric") and the hysteresis
/// counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Engage B-mode when tail latency is below this fraction of the target
    /// (e.g. 0.6 → engage when the tail is under 60% of target).
    pub engage_below: f64,
    /// Disengage B-mode when tail latency exceeds this fraction of the
    /// target.
    pub disengage_above: f64,
    /// Consecutive slack observations required before engaging B-mode
    /// (hysteresis against noise).
    pub engage_after: usize,
    /// Consecutive QoS violations (metric above the target itself) tolerated
    /// before the monitor escalates to throttling the co-runner.
    pub violations_before_throttle: usize,
}

impl MonitorConfig {
    /// Validates threshold ordering.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < engage_below < disengage_above <= 1.5`.
    pub fn validate(&self) -> Result<(), String> {
        let MonitorConfig { engage_below, disengage_above, .. } = *self;
        if !(engage_below > 0.0 && engage_below < disengage_above && disengage_above <= 1.5) {
            return Err(format!(
                "tail-latency thresholds must satisfy 0 < engage ({engage_below}) < disengage ({disengage_above}) <= 1.5"
            ));
        }
        Ok(())
    }
}

impl CanonicalKey for MonitorConfig {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        // Tag 0 names the tail-latency signal, the only one the monitor
        // reads; it keeps the byte layout every stored fleet key was
        // written with.
        enc.tag(0)
            .f64(self.engage_below)
            .f64(self.disengage_above)
            .usize(self.engage_after)
            .usize(self.violations_before_throttle);
    }
}

impl Default for MonitorConfig {
    /// Engage below 60% of the target, disengage above 90%, after three
    /// slack observations; throttle after three violations.
    fn default() -> MonitorConfig {
        MonitorConfig {
            engage_below: 0.6,
            disengage_above: 0.9,
            engage_after: 3,
            violations_before_throttle: 3,
        }
    }
}

/// Action the monitor requests after an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorAction {
    /// Keep the currently engaged mode.
    Keep,
    /// Engage the given mode (a mode change, which flushes the pipeline).
    SwitchTo(StretchMode),
    /// QoS violations persist even without B-mode: throttle the co-runner,
    /// as the baseline CPI² framework would.
    ThrottleCoRunner,
}

/// The Stretch software monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftwareMonitor {
    stretch: StretchConfig,
    cfg: MonitorConfig,
    mode: StretchMode,
    slack_streak: usize,
    violation_streak: usize,
    mode_changes: u64,
    throttle_events: u64,
}

impl SoftwareMonitor {
    /// Creates a monitor for the given provisioned configurations.
    ///
    /// # Panics
    ///
    /// Panics if the thresholds are inconsistent.
    pub fn new(stretch: StretchConfig, cfg: MonitorConfig) -> SoftwareMonitor {
        cfg.validate().expect("invalid monitor thresholds");
        SoftwareMonitor {
            stretch,
            cfg,
            mode: StretchMode::Baseline,
            slack_streak: 0,
            violation_streak: 0,
            mode_changes: 0,
            throttle_events: 0,
        }
    }

    /// Currently engaged mode (as last decided by the monitor).
    pub fn mode(&self) -> StretchMode {
        self.mode
    }

    /// Number of mode changes decided so far.
    pub fn mode_changes(&self) -> u64 {
        self.mode_changes
    }

    /// Number of co-runner throttling events requested so far.
    pub fn throttle_events(&self) -> u64 {
        self.throttle_events
    }

    /// Feeds one tail-latency observation (both in milliseconds) and returns
    /// the requested action.
    pub fn observe_tail_latency(&mut self, tail_ms: f64, target_ms: f64) -> MonitorAction {
        let MonitorConfig { engage_below, disengage_above, .. } = self.cfg;
        let ratio = if target_ms > 0.0 { tail_ms / target_ms } else { f64::INFINITY };
        self.decide(ratio < engage_below, ratio > disengage_above, ratio > 1.0)
    }

    /// The decision logic. `slack` / `pressure` / `violation` classify the
    /// current observation.
    fn decide(&mut self, slack: bool, pressure: bool, violation: bool) -> MonitorAction {
        if violation {
            self.violation_streak += 1;
        } else {
            self.violation_streak = 0;
        }
        if slack {
            self.slack_streak += 1;
        } else {
            self.slack_streak = 0;
        }

        // Pressure: leave B-mode first (the paper: "it first disengages
        // B-mode"), escalate to throttling only if violations persist after
        // that.
        if pressure {
            if self.mode.is_batch_boost() {
                return self.switch_to(self.stretch.high_load_mode());
            }
            if self.violation_streak >= self.cfg.violations_before_throttle {
                self.violation_streak = 0;
                self.throttle_events += 1;
                return MonitorAction::ThrottleCoRunner;
            }
            // Under pressure without B-mode engaged: ensure Q-mode (or
            // baseline) is selected.
            let wanted = self.stretch.high_load_mode();
            if self.mode != wanted {
                return self.switch_to(wanted);
            }
            return MonitorAction::Keep;
        }

        // Slack: engage B-mode after the hysteresis streak.
        if slack && !self.mode.is_batch_boost() && self.slack_streak >= self.cfg.engage_after {
            return self.switch_to(self.stretch.low_load_mode());
        }

        // Neither clear slack nor pressure: if Q-mode is engaged but the
        // pressure has subsided, fall back to the baseline.
        if !slack && !pressure && self.mode.is_qos_boost() {
            return self.switch_to(StretchMode::Baseline);
        }

        MonitorAction::Keep
    }

    fn switch_to(&mut self, mode: StretchMode) -> MonitorAction {
        if mode == self.mode {
            return MonitorAction::Keep;
        }
        self.mode = mode;
        self.mode_changes += 1;
        self.slack_streak = 0;
        MonitorAction::SwitchTo(mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RobSkew;

    fn monitor() -> SoftwareMonitor {
        SoftwareMonitor::new(StretchConfig::recommended(), MonitorConfig::default())
    }

    #[test]
    fn engages_b_mode_after_sustained_slack() {
        let mut m = monitor();
        // Two slack samples: not yet (hysteresis = 3).
        assert_eq!(m.observe_tail_latency(20.0, 100.0), MonitorAction::Keep);
        assert_eq!(m.observe_tail_latency(25.0, 100.0), MonitorAction::Keep);
        match m.observe_tail_latency(22.0, 100.0) {
            MonitorAction::SwitchTo(mode) => assert!(mode.is_batch_boost()),
            other => panic!("expected B-mode engagement, got {other:?}"),
        }
        assert!(m.mode().is_batch_boost());
    }

    #[test]
    fn pressure_disengages_b_mode_before_throttling() {
        let mut m = monitor();
        for _ in 0..3 {
            m.observe_tail_latency(10.0, 100.0);
        }
        assert!(m.mode().is_batch_boost());
        // Latency climbs past the disengage threshold: first leave B-mode.
        match m.observe_tail_latency(95.0, 100.0) {
            MonitorAction::SwitchTo(mode) => assert!(!mode.is_batch_boost()),
            other => panic!("expected disengagement, got {other:?}"),
        }
        assert!(!m.mode().is_batch_boost());
    }

    #[test]
    fn persistent_violations_trigger_throttling() {
        let mut m = monitor();
        // Drive straight into violation territory without B-mode engaged.
        let mut throttled = false;
        for _ in 0..8 {
            if m.observe_tail_latency(150.0, 100.0) == MonitorAction::ThrottleCoRunner {
                throttled = true;
                break;
            }
        }
        assert!(throttled, "persistent violations must escalate to throttling");
        assert!(m.throttle_events() >= 1);
    }

    #[test]
    fn q_mode_relaxes_to_baseline_when_pressure_subsides() {
        let mut m = monitor();
        // Push into Q-mode.
        m.observe_tail_latency(95.0, 100.0);
        assert!(m.mode().is_qos_boost());
        // A middling observation (neither slack nor pressure) returns to baseline.
        match m.observe_tail_latency(75.0, 100.0) {
            MonitorAction::SwitchTo(StretchMode::Baseline) => {}
            other => panic!("expected return to baseline, got {other:?}"),
        }
    }

    #[test]
    fn without_q_mode_pressure_selects_baseline() {
        let mut m = SoftwareMonitor::new(
            StretchConfig::b_mode_only(RobSkew::new(56, 136)),
            MonitorConfig::default(),
        );
        for _ in 0..3 {
            m.observe_tail_latency(10.0, 100.0);
        }
        assert!(m.mode().is_batch_boost());
        match m.observe_tail_latency(99.0, 100.0) {
            MonitorAction::SwitchTo(StretchMode::Baseline) => {}
            other => panic!("expected baseline fallback, got {other:?}"),
        }
    }

    #[test]
    fn mode_changes_are_counted_and_hysteresis_limits_them() {
        let mut m = monitor();
        // Alternating noisy observations around the engage threshold must not
        // flap the mode on every sample.
        for i in 0..40 {
            let tail = if i % 2 == 0 { 55.0 } else { 65.0 };
            m.observe_tail_latency(tail, 100.0);
        }
        assert!(
            m.mode_changes() <= 2,
            "hysteresis should prevent flapping ({} changes)",
            m.mode_changes()
        );
    }

    #[test]
    fn default_config_keeps_its_key_bytes() {
        // Fleet cache keys (`fleet/v4`) encode the monitor config, so these
        // bytes may only move with a cell-family bump: otherwise every
        // stored fleet run would silently stop being served.
        let mut enc = KeyEncoder::new();
        MonitorConfig::default().encode_key(&mut enc);
        assert_eq!(enc.digest(), "4ccb232e0d5b3f0a05c700ca9d1ee577");
    }

    #[test]
    #[should_panic(expected = "invalid monitor thresholds")]
    fn bad_thresholds_rejected() {
        let _ = SoftwareMonitor::new(
            StretchConfig::recommended(),
            MonitorConfig {
                engage_below: 0.9,
                disengage_above: 0.5,
                engage_after: 1,
                violations_before_throttle: 1,
            },
        );
    }
}
