//! Fetch-throttling baseline (Figure 12).
//!
//! Front-end resource management: allocate fetch bandwidth between the
//! threads at a 1:M ratio (the topology's latency-sensitive thread gets the
//! `1`). The paper evaluates M ∈ {2, 4, 8, 16} on top of a *dynamically
//! shared* ROB — the point being that admission control alone cannot keep a
//! miss-bound thread from clogging the window.

use cpu_sim::{ColocationPolicy, ColocationTopology, CoreSetup, FetchPolicy, PartitionPolicy};
use mem_sim::Sharing;
use sim_model::CoreConfig;

/// The fetch-throttling ratios (`M` in 1:M) evaluated in Figure 12.
pub const FETCH_THROTTLING_RATIOS: [u32; 4] = [2, 4, 8, 16];

/// The fetch-throttling policy: dynamically shared ROB, shared
/// caches/predictor, and a throttled fetch policy that gives the
/// latency-sensitive thread one fetch cycle for every `ratio` granted to the
/// co-runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchThrottling {
    /// The `M` in the 1:M fetch ratio.
    pub ratio: u32,
}

impl FetchThrottling {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `ratio == 0` (the underlying fetch policy requires 1:M with
    /// M ≥ 1).
    pub fn new(ratio: u32) -> FetchThrottling {
        assert!(ratio >= 1, "fetch throttling needs a ratio of at least 1, got {ratio}");
        FetchThrottling { ratio }
    }
}

impl ColocationPolicy for FetchThrottling {
    fn setup_for(&self, _cfg: &CoreConfig, topology: &ColocationTopology) -> CoreSetup {
        // The dynamically shared window and the 1:M fetch group are both
        // width-agnostic: every non-throttled thread joins the batch group.
        CoreSetup {
            partition: PartitionPolicy::Dynamic,
            fetch_policy: FetchPolicy::throttled(topology.ls_thread(), self.ratio),
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
    fn ratios_match_the_figure() {
        assert_eq!(FETCH_THROTTLING_RATIOS, [2, 4, 8, 16]);
    }

    #[test]
    fn setup_uses_dynamic_rob_and_throttled_fetch() {
        let cfg = CoreConfig::default();
        for ls_thread in [ThreadId::T0, ThreadId::T1] {
            let topology = ColocationTopology::new(2, ls_thread);
            let setup = FetchThrottling::new(4).setup_for(&cfg, &topology);
            assert_eq!(setup.partition, PartitionPolicy::Dynamic);
            match setup.fetch_policy {
                FetchPolicy::Throttled { throttled, ratio } => {
                    assert_eq!(throttled, ls_thread);
                    assert_eq!(ratio, 4);
                }
                other => panic!("expected a throttled policy, got {other:?}"),
            }
        }
    }

    #[test]
    fn heavier_throttling_hurts_the_latency_sensitive_thread() {
        use cpu_sim::{Scenario, SimLength};
        use workloads::profile_by_name;

        let pair = |ratio| {
            Scenario::colocate(
                profile_by_name("web-search").unwrap(),
                profile_by_name("zeusmp").unwrap(),
            )
            .policy(FetchThrottling::new(ratio))
            .length(SimLength::quick())
            .seed(5)
            .run()
        };
        let mild = pair(2);
        let harsh = pair(16);
        assert!(
            harsh.expect_thread(ThreadId::T0).uipc < mild.expect_thread(ThreadId::T0).uipc,
            "a 1:16 ratio must hurt the throttled thread more than 1:2 (1:2={:.3}, 1:16={:.3})",
            mild.expect_thread(ThreadId::T0).uipc,
            harsh.expect_thread(ThreadId::T0).uipc
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ratio_rejected() {
        let _ = FetchThrottling::new(0);
    }
}
