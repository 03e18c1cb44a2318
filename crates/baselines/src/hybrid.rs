//! Hybrid fetch-throttle + ROB-skew policy — the demonstration that adding a
//! new colocation scheme is now a one-file change.
//!
//! The paper evaluates fetch throttling *instead of* window management and
//! shows admission control alone cannot stop a miss-bound thread from
//! clogging a dynamically shared ROB. This policy combines the two knobs the
//! way a POWER-style core could: Stretch's static ROB/LSQ skew bounds how
//! much window the batch thread can clog, while a mild 1:M fetch ratio keeps
//! the front-end slots of the topology's latency-sensitive thread
//! protected. It is not a
//! paper configuration — it exists to exercise the [`ColocationPolicy`]
//! surface end to end (the core setup it programs, scenario runs and an
//! extra row of Figure 12) with a scheme the paper does not evaluate.

use cpu_sim::{ColocationPolicy, ColocationTopology, CoreSetup, FetchPolicy, PartitionPolicy};
use mem_sim::Sharing;
use sim_model::CoreConfig;

/// Fetch throttling layered on an asymmetric ROB split. The topology's
/// latency-sensitive thread gets the `1` of the fetch ratio and the small
/// ROB share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridThrottleSkew {
    /// The `M` in the 1:M fetch ratio.
    pub ratio: u32,
    /// ROB entries for the latency-sensitive thread.
    pub ls_rob: usize,
    /// ROB entries for the batch thread.
    pub batch_rob: usize,
}

impl HybridThrottleSkew {
    /// Creates the hybrid policy.
    ///
    /// # Panics
    ///
    /// Panics if `ratio == 0`.
    pub fn new(ratio: u32, ls_rob: usize, batch_rob: usize) -> Self {
        assert!(ratio >= 1, "fetch throttling needs a ratio of at least 1, got {ratio}");
        HybridThrottleSkew { ratio, ls_rob, batch_rob }
    }

    /// The reproduction's default operating point: a mild 1:2 fetch ratio on
    /// top of the paper's headline B-mode 56-136 skew.
    pub fn recommended() -> Self {
        HybridThrottleSkew::new(2, 56, 136)
    }
}

impl ColocationPolicy for HybridThrottleSkew {
    fn setup_for(&self, cfg: &CoreConfig, topology: &ColocationTopology) -> CoreSetup {
        let ls_thread = topology.ls_thread();
        CoreSetup {
            partition: PartitionPolicy::ls_split(
                cfg,
                topology.threads(),
                ls_thread,
                self.ls_rob,
                self.batch_rob,
            ),
            fetch_policy: FetchPolicy::throttled(ls_thread, self.ratio),
            l1i_sharing: Sharing::Shared,
            l1d_sharing: Sharing::Shared,
            bp_sharing: Sharing::Shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_model::ThreadId;

    #[test]
    fn hybrid_setup_combines_both_mechanisms() {
        let cfg = CoreConfig::default();
        let setup = HybridThrottleSkew::recommended().setup(&cfg);
        assert_eq!(setup.partition.rob_limit(&cfg, ThreadId::T0), 56);
        assert_eq!(setup.partition.rob_limit(&cfg, ThreadId::T1), 136);
        match setup.fetch_policy {
            FetchPolicy::Throttled { throttled, ratio } => {
                assert_eq!(throttled, ThreadId::T0);
                assert_eq!(ratio, 2);
            }
            other => panic!("expected a throttled fetch policy, got {other:?}"),
        }
    }

    #[test]
    fn ls_thread_mapping_swaps_the_skew() {
        let cfg = CoreConfig::default();
        let topology = ColocationTopology::new(2, ThreadId::T1);
        let setup = HybridThrottleSkew::new(4, 56, 136).setup_for(&cfg, &topology);
        assert_eq!(setup.partition.rob_limit(&cfg, ThreadId::T1), 56);
        assert_eq!(setup.partition.rob_limit(&cfg, ThreadId::T0), 136);
        assert_eq!(setup.fetch_policy, FetchPolicy::throttled(ThreadId::T1, 4));
    }

    #[test]
    fn hybrid_boosts_the_batch_thread_over_the_equal_baseline() {
        use cpu_sim::{EqualPartition, Scenario, SimLength};
        use workloads::profile_by_name;

        let pair = || {
            Scenario::colocate(
                profile_by_name("web-search").unwrap(),
                profile_by_name("zeusmp").unwrap(),
            )
            .length(SimLength::quick())
            .seed(21)
        };
        let baseline = pair().policy(EqualPartition).run();
        let hybrid = pair().policy(HybridThrottleSkew::recommended()).run();
        // The batch thread gets both the big window and the fetch surplus;
        // it must not end up slower than under equal partitioning.
        assert!(
            hybrid.expect_thread(ThreadId::T1).uipc
                >= baseline.expect_thread(ThreadId::T1).uipc * 0.98,
            "hybrid batch {:.3} vs baseline {:.3}",
            hybrid.expect_thread(ThreadId::T1).uipc,
            baseline.expect_thread(ThreadId::T1).uipc
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ratio_rejected() {
        let _ = HybridThrottleSkew::new(0, 56, 136);
    }
}
