//! Stretch partitioning configurations (§IV-A, §IV-B).
//!
//! A Stretch core provisions, at design time, one or more asymmetric ROB
//! partitionings in addition to the baseline equal split. At runtime system
//! software selects among them: a [`StretchMode`] names the engaged
//! configuration, and engaging it on a live SMT-`threads` core is
//! `SmtCore::set_partition(mode.partition_policy(cfg, threads, ls_thread),
//! true)`, which loads the ROB/LSQ limit registers and charges the
//! mode-change pipeline flush.
//! The paper's notation `N-M` assigns `N` ROB entries to the
//! latency-sensitive thread and `M` to the batch thread; the LSQ is
//! partitioned proportionally.

use cpu_sim::PartitionPolicy;
use sim_model::{CoreConfig, ThreadId};
use std::fmt;

/// An asymmetric ROB split: entries for the latency-sensitive thread and for
/// the batch thread (the paper's `N-M` notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RobSkew {
    /// ROB entries assigned to the latency-sensitive thread.
    pub ls_entries: usize,
    /// ROB entries assigned to the batch thread.
    pub batch_entries: usize,
}

impl RobSkew {
    /// Creates a skew.
    pub const fn new(ls_entries: usize, batch_entries: usize) -> RobSkew {
        RobSkew { ls_entries, batch_entries }
    }

    /// The B-mode skews evaluated in Figure 9 (left): batch side grows from
    /// 128 to 160 entries in steps of 8.
    pub fn b_mode_sweep() -> Vec<RobSkew> {
        vec![
            RobSkew::new(64, 128),
            RobSkew::new(56, 136),
            RobSkew::new(48, 144),
            RobSkew::new(40, 152),
            RobSkew::new(32, 160),
        ]
    }

    /// The Q-mode skews evaluated in Figure 9 (right).
    pub fn q_mode_sweep() -> Vec<RobSkew> {
        vec![
            RobSkew::new(128, 64),
            RobSkew::new(136, 56),
            RobSkew::new(144, 48),
            RobSkew::new(152, 40),
            RobSkew::new(160, 32),
        ]
    }

    /// The paper's headline B-mode configuration (56 entries to the LS
    /// thread, 136 to the batch thread).
    pub const fn recommended_b_mode() -> RobSkew {
        RobSkew::new(56, 136)
    }

    /// The paper's headline Q-mode configuration.
    pub const fn recommended_q_mode() -> RobSkew {
        RobSkew::new(136, 56)
    }

    /// Total entries used by the skew.
    pub fn total(&self) -> usize {
        self.ls_entries + self.batch_entries
    }
}

impl fmt::Display for RobSkew {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.ls_entries, self.batch_entries)
    }
}

/// The partitioning mode currently engaged on the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StretchMode {
    /// Equal partitioning (Stretch disabled / S-bit clear).
    Baseline,
    /// Batch-boost mode: the latency-sensitive thread gets the small share.
    BatchBoost(RobSkew),
    /// QoS-boost mode: the latency-sensitive thread gets the large share.
    QosBoost(RobSkew),
}

impl StretchMode {
    /// Maps the mode onto the ROB/LSQ limit registers of an SMT-`threads`
    /// core (the classic pair is `threads == 2`). `ls_thread` names the
    /// hardware thread running the latency-sensitive workload; Stretch
    /// explicitly supports either mapping (§IV-D). The skew's batch share is
    /// spread evenly over the `threads - 1` batch co-runners.
    pub fn partition_policy(
        &self,
        cfg: &CoreConfig,
        threads: usize,
        ls_thread: ThreadId,
    ) -> PartitionPolicy {
        match self {
            StretchMode::Baseline => PartitionPolicy::equal(cfg, threads),
            StretchMode::BatchBoost(skew) | StretchMode::QosBoost(skew) => {
                PartitionPolicy::ls_split(
                    cfg,
                    threads,
                    ls_thread,
                    skew.ls_entries,
                    skew.batch_entries,
                )
            }
        }
    }

    /// `true` when a batch-boost configuration is engaged.
    pub fn is_batch_boost(&self) -> bool {
        matches!(self, StretchMode::BatchBoost(_))
    }

    /// `true` when a QoS-boost configuration is engaged.
    pub fn is_qos_boost(&self) -> bool {
        matches!(self, StretchMode::QosBoost(_))
    }
}

impl fmt::Display for StretchMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StretchMode::Baseline => write!(f, "baseline"),
            StretchMode::BatchBoost(s) => write!(f, "B-mode {s}"),
            StretchMode::QosBoost(s) => write!(f, "Q-mode {s}"),
        }
    }
}

/// The set of configurations provisioned at processor design time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StretchConfig {
    /// The batch-boost skew.
    pub b_mode: RobSkew,
    /// The optional QoS-boost skew; when absent, the baseline partitioning is
    /// used at high load (§IV-B).
    pub q_mode: Option<RobSkew>,
}

impl StretchConfig {
    /// The paper's recommended provisioning: B-mode 56-136 and Q-mode 136-56.
    pub fn recommended() -> StretchConfig {
        StretchConfig {
            b_mode: RobSkew::recommended_b_mode(),
            q_mode: Some(RobSkew::recommended_q_mode()),
        }
    }

    /// A provisioning with only a B-mode (Q-mode omitted).
    pub fn b_mode_only(b_mode: RobSkew) -> StretchConfig {
        StretchConfig { b_mode, q_mode: None }
    }

    /// The mode to engage when the QoS metric indicates high load: Q-mode if
    /// provisioned, otherwise the baseline.
    pub fn high_load_mode(&self) -> StretchMode {
        match self.q_mode {
            Some(q) => StretchMode::QosBoost(q),
            None => StretchMode::Baseline,
        }
    }

    /// The mode to engage when there is QoS slack.
    pub fn low_load_mode(&self) -> StretchMode {
        StretchMode::BatchBoost(self.b_mode)
    }
}

impl Default for StretchConfig {
    fn default() -> StretchConfig {
        StretchConfig::recommended()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_sim::SmtCoreBuilder;
    use sim_model::{MicroOp, OpKind, TraceGenerator};

    #[test]
    fn sweeps_match_figure_9_labels() {
        let b: Vec<String> = RobSkew::b_mode_sweep().iter().map(|s| s.to_string()).collect();
        assert_eq!(b, vec!["64-128", "56-136", "48-144", "40-152", "32-160"]);
        let q: Vec<String> = RobSkew::q_mode_sweep().iter().map(|s| s.to_string()).collect();
        assert_eq!(q, vec!["128-64", "136-56", "144-48", "152-40", "160-32"]);
    }

    /// An ALU op stream: enough for the core to accept a thread.
    struct AluLoop(u64);

    impl TraceGenerator for AluLoop {
        fn next_op(&mut self) -> MicroOp {
            self.0 += 4;
            MicroOp::alu(self.0, OpKind::IntAlu, [None, None], Some(1))
        }
    }

    /// Engages `skew` in B-mode on a pair core with a workload on both
    /// threads, as a Stretch core programs its limit registers. The panic
    /// message when the core or the partition refuses it, else `None`.
    fn engage_on_a_pair(skew: RobSkew) -> Option<String> {
        let cfg = CoreConfig::default();
        std::panic::catch_unwind(|| {
            let partition = StretchMode::BatchBoost(skew).partition_policy(&cfg, 2, ThreadId::T0);
            let _core = SmtCoreBuilder::new(cfg)
                .partition(partition)
                .thread(ThreadId::T0, Box::new(AluLoop(0x1000)))
                .thread(ThreadId::T1, Box::new(AluLoop(0x8000)))
                .build();
        })
        .err()
        .map(|payload| match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => {
                payload.downcast_ref::<&str>().map_or_else(String::new, |m| m.to_string())
            }
        })
    }

    #[test]
    fn all_sweep_points_fit_the_table_ii_rob() {
        let cfg = CoreConfig::default();
        for s in RobSkew::b_mode_sweep().into_iter().chain(RobSkew::q_mode_sweep()) {
            assert_eq!(s.total(), cfg.rob_capacity);
            let p = StretchMode::BatchBoost(s).partition_policy(&cfg, 2, ThreadId::T0);
            assert_eq!(p.rob_limit(&cfg, ThreadId::T0), s.ls_entries);
            assert_eq!(p.rob_limit(&cfg, ThreadId::T1), s.batch_entries);
        }
    }

    #[test]
    fn skew_validation_rejects_nonsense() {
        // The core boundary refuses both nonsense skews: a side with no ROB
        // entries for a thread with a workload, and a split beyond the ROB.
        let refusal = |skew| engage_on_a_pair(skew).unwrap_or_default();
        assert!(refusal(RobSkew::new(0, 192)).contains("no ROB entries but it has a workload"));
        assert!(refusal(RobSkew::new(128, 128)).contains("exceeds capacity"));
        assert_eq!(engage_on_a_pair(RobSkew::new(56, 136)), None);
    }

    #[test]
    fn partition_policy_respects_ls_thread_mapping() {
        let cfg = CoreConfig::default();
        let mode = StretchMode::BatchBoost(RobSkew::new(56, 136));
        let p0 = mode.partition_policy(&cfg, 2, ThreadId::T0);
        assert_eq!(p0.rob_limit(&cfg, ThreadId::T0), 56);
        assert_eq!(p0.rob_limit(&cfg, ThreadId::T1), 136);
        let p1 = mode.partition_policy(&cfg, 2, ThreadId::T1);
        assert_eq!(p1.rob_limit(&cfg, ThreadId::T0), 136);
        assert_eq!(p1.rob_limit(&cfg, ThreadId::T1), 56);
    }

    #[test]
    fn baseline_mode_is_equal_partitioning() {
        let cfg = CoreConfig::default();
        let p = StretchMode::Baseline.partition_policy(&cfg, 2, ThreadId::T0);
        assert_eq!(p.rob_limit(&cfg, ThreadId::T0), 96);
        assert_eq!(p.rob_limit(&cfg, ThreadId::T1), 96);
    }

    #[test]
    fn config_modes() {
        let c = StretchConfig::recommended();
        assert!(c.low_load_mode().is_batch_boost());
        assert!(c.high_load_mode().is_qos_boost());
        let b_only = StretchConfig::b_mode_only(RobSkew::new(48, 144));
        assert_eq!(b_only.high_load_mode(), StretchMode::Baseline);
    }

    #[test]
    fn mode_display_is_informative() {
        assert_eq!(StretchMode::Baseline.to_string(), "baseline");
        assert_eq!(StretchMode::BatchBoost(RobSkew::new(56, 136)).to_string(), "B-mode 56-136");
        assert_eq!(StretchMode::QosBoost(RobSkew::new(136, 56)).to_string(), "Q-mode 136-56");
    }
}
