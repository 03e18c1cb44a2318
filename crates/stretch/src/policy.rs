//! Stretch as a [`ColocationPolicy`] — the same interface the baselines use.
//!
//! [`PinnedStretch`] engages one [`StretchMode`] for the whole run (open
//! loop). This is what the evaluation figures sweep (B-mode/Q-mode skews
//! over the colocation matrix). The §IV-C control loop that picks the mode
//! at runtime is [`crate::SoftwareMonitor`]; the cluster layer's fleet
//! simulation (`cluster_sim::Fleet`) runs one per server.

use crate::config::StretchMode;
use cpu_sim::{ColocationPolicy, ColocationTopology, CoreSetup};
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
}
