//! Stretch as a [`ColocationPolicy`] — the same interface the baselines use.
//!
//! Two implementations cover the two ways the paper exercises the mechanism:
//!
//! * [`PinnedStretch`] — open loop: one [`StretchMode`] for the whole run.
//!   This is what the evaluation figures sweep (B-mode/Q-mode skews over the
//!   colocation matrix).
//! * [`ClosedLoopStretch`] — the §IV-C control loop: the CPI²-style
//!   [`SoftwareMonitor`] consumes QoS telemetry through
//!   [`ColocationPolicy::on_sample`] and picks the mode, so the policy's
//!   [`setup`](ColocationPolicy::setup) tracks the currently engaged mode.
//!   The cluster layer's fleet simulation (`cluster_sim::Fleet`) runs one
//!   per server, fed by that server's measured tail latency, for the §VI-D
//!   case studies.

use crate::config::{StretchConfig, StretchMode};
use crate::monitor::{MonitorAction, MonitorConfig, SoftwareMonitor};
use cpu_sim::{ColocationPolicy, ColocationTopology, CoreSetup, PolicyAction, QosObservation};
use sim_model::{CanonicalKey, CoreConfig, KeyEncoder, ThreadId};

/// Stretch pinned to one mode for the whole run (open loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinnedStretch {
    /// The engaged mode.
    pub mode: StretchMode,
    /// The hardware thread running the latency-sensitive workload.
    pub ls_thread: ThreadId,
}

impl PinnedStretch {
    /// Pins `mode` with the latency-sensitive workload on thread 0 (the
    /// convention of every scenario and figure).
    pub fn new(mode: StretchMode) -> PinnedStretch {
        PinnedStretch { mode, ls_thread: ThreadId::T0 }
    }
}

impl CanonicalKey for PinnedStretch {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.str("policy/stretch-pinned").field(&self.mode).field(&self.ls_thread);
    }
}

impl ColocationPolicy for PinnedStretch {
    fn name(&self) -> String {
        format!("Stretch {}", self.mode)
    }

    fn setup_for(&self, cfg: &CoreConfig, topology: &ColocationTopology) -> CoreSetup {
        let mut setup = CoreSetup::baseline_n(cfg, topology.threads());
        setup.partition = self.mode.partition_policy_n(cfg, topology.threads(), self.ls_thread);
        setup
    }

    fn clone_policy(&self) -> Box<dyn ColocationPolicy> {
        Box::new(*self)
    }
}

/// The full Stretch control loop behind one policy value: provisioned skews
/// plus the software monitor that picks among them.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopStretch {
    stretch: StretchConfig,
    monitor: SoftwareMonitor,
    ls_thread: ThreadId,
}

impl ClosedLoopStretch {
    /// Creates the closed-loop policy (latency-sensitive thread on T0).
    ///
    /// # Panics
    ///
    /// Panics if the monitor policy thresholds are inconsistent.
    pub fn new(stretch: StretchConfig, monitor_cfg: MonitorConfig) -> ClosedLoopStretch {
        ClosedLoopStretch {
            monitor: SoftwareMonitor::new(stretch, monitor_cfg),
            stretch,
            ls_thread: ThreadId::T0,
        }
    }

    /// The currently engaged mode.
    pub fn mode(&self) -> StretchMode {
        self.monitor.mode()
    }

    /// Number of mode changes decided so far.
    pub fn mode_changes(&self) -> u64 {
        self.monitor.mode_changes()
    }

    /// Number of co-runner throttling escalations so far.
    pub fn throttle_events(&self) -> u64 {
        self.monitor.throttle_events()
    }
}

impl CanonicalKey for ClosedLoopStretch {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        // Identity covers the provisioning plus the currently engaged mode —
        // the setup depends on both, so cached cells must too.
        enc.str("policy/stretch-closed-loop")
            .field(&self.stretch.b_mode)
            .field(&self.stretch.q_mode)
            .field(&self.mode())
            .field(&self.ls_thread);
    }
}

impl ColocationPolicy for ClosedLoopStretch {
    fn name(&self) -> String {
        format!("Stretch closed loop ({})", self.mode())
    }

    fn setup_for(&self, cfg: &CoreConfig, topology: &ColocationTopology) -> CoreSetup {
        PinnedStretch { mode: self.mode(), ls_thread: self.ls_thread }.setup_for(cfg, topology)
    }

    fn on_sample(&mut self, obs: &QosObservation) -> PolicyAction {
        let action = match obs.queue_length {
            Some(depth) => self.monitor.observe_queue_length(depth),
            None => self.monitor.observe_tail_latency(obs.tail_latency_ms, obs.qos_target_ms),
        };
        match action {
            MonitorAction::Keep => PolicyAction::Keep,
            MonitorAction::SwitchTo(_) => PolicyAction::Reconfigure,
            MonitorAction::ThrottleCoRunner => PolicyAction::ThrottleCoRunner,
        }
    }

    fn clone_policy(&self) -> Box<dyn ColocationPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RobSkew;

    #[test]
    fn pinned_stretch_programs_the_skew() {
        let cfg = CoreConfig::default();
        let p = PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode()));
        let setup = p.setup(&cfg);
        assert_eq!(setup.partition.rob_limit(&cfg, ThreadId::T0), 56);
        assert_eq!(setup.partition.rob_limit(&cfg, ThreadId::T1), 136);
        // Everything else stays at the baseline sharing.
        assert_eq!(setup.fetch_policy, CoreSetup::baseline(&cfg).fetch_policy);
    }

    #[test]
    fn pinned_modes_are_distinct_cache_cells() {
        let digest = |mode| {
            let mut enc = KeyEncoder::new();
            PinnedStretch::new(mode).encode_key(&mut enc);
            enc.digest()
        };
        let baseline = digest(StretchMode::Baseline);
        let b = digest(StretchMode::BatchBoost(RobSkew::recommended_b_mode()));
        let q = digest(StretchMode::QosBoost(RobSkew::recommended_q_mode()));
        assert_ne!(baseline, b);
        assert_ne!(b, q);
        // Same entries, different mode tag: must still be distinct.
        assert_ne!(
            digest(StretchMode::BatchBoost(RobSkew::new(56, 136))),
            digest(StretchMode::QosBoost(RobSkew::new(56, 136)))
        );
    }

    #[test]
    fn closed_loop_tracks_the_monitor_through_on_sample() {
        let mut p = ClosedLoopStretch::new(
            StretchConfig::recommended(),
            MonitorConfig { engage_after: 2, ..MonitorConfig::default() },
        );
        let cfg = CoreConfig::default();
        assert_eq!(p.mode(), StretchMode::Baseline);
        assert_eq!(p.setup(&cfg).partition.rob_limit(&cfg, ThreadId::T0), 96);

        // Sustained slack engages B-mode and asks for a reconfiguration.
        let slack = QosObservation::tail_latency(20.0, 100.0, 0.2);
        assert_eq!(p.on_sample(&slack), PolicyAction::Keep);
        assert_eq!(p.on_sample(&slack), PolicyAction::Reconfigure);
        assert!(p.mode().is_batch_boost());
        assert_eq!(p.setup(&cfg).partition.rob_limit(&cfg, ThreadId::T1), 136);

        // Pressure disengages B-mode (into Q-mode, since it is provisioned).
        let pressure = QosObservation::tail_latency(95.0, 100.0, 0.95);
        assert_eq!(p.on_sample(&pressure), PolicyAction::Reconfigure);
        assert!(p.mode().is_qos_boost());
        assert_eq!(p.mode_changes(), 2);
    }

    #[test]
    fn closed_loop_consumes_queue_length_signals_too() {
        let mut p = ClosedLoopStretch::new(
            StretchConfig::recommended(),
            MonitorConfig {
                policy: crate::monitor::QosPolicy::default_queue_length(),
                engage_after: 1,
                violations_before_throttle: 3,
            },
        );
        let obs = QosObservation {
            tail_latency_ms: 0.0,
            qos_target_ms: 100.0,
            queue_length: Some(0),
            load: 0.1,
        };
        assert_eq!(p.on_sample(&obs), PolicyAction::Reconfigure);
        assert!(p.mode().is_batch_boost());
    }

    #[test]
    fn closed_loop_key_changes_with_the_engaged_mode() {
        let digest = |p: &ClosedLoopStretch| {
            let mut enc = KeyEncoder::new();
            p.encode_key(&mut enc);
            enc.digest()
        };
        let mut p = ClosedLoopStretch::new(
            StretchConfig::recommended(),
            MonitorConfig { engage_after: 1, ..MonitorConfig::default() },
        );
        let before = digest(&p);
        let _ = p.on_sample(&QosObservation::tail_latency(10.0, 100.0, 0.1));
        assert!(p.mode().is_batch_boost());
        assert_ne!(before, digest(&p), "the engaged mode is part of the policy identity");
    }
}
