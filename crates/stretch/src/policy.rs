//! Stretch as a [`ColocationPolicy`] — the same interface the baselines use.
//!
//! [`PinnedStretch`] engages one [`StretchMode`] for the whole run (open
//! loop). This is what the evaluation figures sweep (B-mode/Q-mode skews
//! over the colocation matrix). The §IV-C control loop that picks the mode
//! at runtime is [`crate::SoftwareMonitor`]; the cluster layer's fleet
//! simulation (`cluster_sim::Fleet`) runs one per server.
//!
//! A pinned mode is the baseline core with the mode's values in the limit
//! registers, nothing more; the skew's small share goes to the topology's
//! latency-sensitive thread. The Baseline mode programs the same core as
//! `cpu_sim::EqualPartition`, and a B-mode and a Q-mode with the same skew
//! program the same core, so the experiment engine serves each such pair
//! from one cell.

use crate::config::StretchMode;
use cpu_sim::{ColocationPolicy, ColocationTopology, CoreSetup};
use sim_model::CoreConfig;

/// Stretch pinned to one mode for the whole run (open loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinnedStretch {
    /// The engaged mode.
    pub mode: StretchMode,
}

impl PinnedStretch {
    /// Pins `mode`.
    pub fn new(mode: StretchMode) -> PinnedStretch {
        PinnedStretch { mode }
    }
}

impl ColocationPolicy for PinnedStretch {
    fn setup_for(&self, cfg: &CoreConfig, topology: &ColocationTopology) -> CoreSetup {
        let mut setup = CoreSetup::baseline(cfg, topology.threads());
        setup.partition = self.mode.partition_policy(cfg, topology.threads(), topology.ls_thread());
        setup
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RobSkew;
    use sim_model::ThreadId;

    #[test]
    fn pinned_stretch_programs_the_skew() {
        let cfg = CoreConfig::default();
        let p = PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode()));
        let setup = p.setup(&cfg);
        assert_eq!(setup.partition.rob_limit(&cfg, ThreadId::T0), 56);
        assert_eq!(setup.partition.rob_limit(&cfg, ThreadId::T1), 136);
        // Everything else stays at the baseline sharing.
        assert_eq!(setup.fetch_policy, CoreSetup::baseline(&cfg, 2).fetch_policy);
        // The skew follows the topology's latency-sensitive thread.
        let swapped = p.setup_for(&cfg, &ColocationTopology::new(2, ThreadId::T1));
        assert_eq!(swapped.partition.rob_limit(&cfg, ThreadId::T1), 56);
        assert_eq!(swapped.partition.rob_limit(&cfg, ThreadId::T0), 136);
    }

    #[test]
    fn a_pinned_mode_is_the_baseline_core_with_its_limit_registers_loaded() {
        let cfg = CoreConfig::default();
        let pinned = |mode| PinnedStretch::new(mode).setup(&cfg);
        assert_eq!(pinned(StretchMode::Baseline), cpu_sim::EqualPartition.setup(&cfg));
        let skew = RobSkew::new(56, 136);
        assert_eq!(pinned(StretchMode::BatchBoost(skew)), pinned(StretchMode::QosBoost(skew)));
        assert_ne!(pinned(StretchMode::BatchBoost(skew)), pinned(StretchMode::Baseline));
    }
}
