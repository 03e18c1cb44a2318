//! Dynamically shared ROB baseline (Figure 11).
//!
//! With no resource management at all, either thread may occupy any ROB/LSQ
//! entry. The paper shows this is *worse* than equal partitioning for most
//! batch co-runners: a latency-sensitive thread stalled on a miss clogs the
//! shared ROB without benefiting from it.

use cpu_sim::{ColocationPolicy, ColocationTopology, CoreSetup, FetchPolicy, PartitionPolicy};
use mem_sim::Sharing;
use sim_model::CoreConfig;

/// The dynamically shared ROB policy: ICOUNT fetch, shared caches and
/// predictor (as in the baseline), but no ROB/LSQ partitioning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynamicSharing;

impl ColocationPolicy for DynamicSharing {
    fn setup_for(&self, _cfg: &CoreConfig, _topology: &ColocationTopology) -> CoreSetup {
        // A fully dynamic window is width-agnostic by construction.
        CoreSetup {
            partition: PartitionPolicy::Dynamic,
            fetch_policy: FetchPolicy::ICount,
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
    fn dynamic_setup_has_full_capacity_limits() {
        let cfg = CoreConfig::default();
        let setup = DynamicSharing.setup(&cfg);
        assert_eq!(setup.partition.rob_limit(&cfg, ThreadId::T0), cfg.rob_capacity);
        assert_eq!(setup.partition.rob_limit(&cfg, ThreadId::T1), cfg.rob_capacity);
        assert!(setup.partition.enforce_total_capacity());
        assert_eq!(setup.l1d_sharing, Sharing::Shared);
    }

    #[test]
    fn a_stalled_thread_can_clog_the_shared_rob() {
        // Functional check of the mechanism behind Figure 11: under dynamic
        // sharing a miss-bound thread grabs most of the ROB, hurting an
        // MLP-rich co-runner relative to equal partitioning.
        use cpu_sim::{EqualPartition, Scenario, SimLength};
        use workloads::profile_by_name;

        let length = SimLength::quick();
        let pair = || {
            Scenario::colocate(
                profile_by_name("data-serving").unwrap(),
                profile_by_name("zeusmp").unwrap(),
            )
            .length(length)
            .seed(3)
        };
        let equal = pair().policy(EqualPartition).run();
        let dynamic = pair().policy(DynamicSharing).run();
        let equal_batch = equal.expect_thread(ThreadId::T1).uipc;
        let dynamic_batch = dynamic.expect_thread(ThreadId::T1).uipc;
        assert!(
            dynamic_batch < equal_batch * 1.05,
            "dynamic sharing should not beat equal partitioning for an MLP-rich batch thread \
             (equal={equal_batch:.3}, dynamic={dynamic_batch:.3})"
        );
    }
}
