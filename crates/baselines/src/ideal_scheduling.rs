//! Idealised software scheduling baseline (Figure 13).
//!
//! Software schedulers such as SMiTe can only pick colocation-friendly
//! application pairs; they cannot reprovision microarchitectural resources.
//! The paper bounds what such scheduling could ever achieve by simulating a
//! core in which *all* dynamically shared structures (L1-I, L1-D, branch
//! predictor) are contention-free — i.e. private per thread — while the ROB
//! and LSQ stay equally partitioned. Stretch is complementary: the combined
//! policy (private L1s/BP plus an asymmetric B-mode ROB split, its small
//! share on the topology's latency-sensitive thread) is the "Stretch + Ideal
//! Software Scheduling" bar of Figure 13.

use cpu_sim::{ColocationPolicy, ColocationTopology, CoreSetup, FetchPolicy, PartitionPolicy};
use mem_sim::Sharing;
use sim_model::CoreConfig;

/// Ideal software scheduling: private L1-I, L1-D and branch predictor for
/// each thread. The ROB/LSQ stay equally partitioned unless a Stretch skew is
/// layered on top ([`IdealScheduling::with_stretch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdealScheduling {
    /// Optional Stretch ROB skew `(ls_entries, batch_entries)` layered on top
    /// of the contention-free caches.
    skew: Option<(usize, usize)>,
}

impl IdealScheduling {
    /// The pure ideal-scheduling policy (equal ROB partitioning).
    pub fn new() -> IdealScheduling {
        IdealScheduling { skew: None }
    }

    /// Ideal software scheduling combined with Stretch's B-mode ROB skew:
    /// `ls_rob` entries for the topology's latency-sensitive thread,
    /// `batch_rob` for the batch side.
    pub fn with_stretch(ls_rob: usize, batch_rob: usize) -> IdealScheduling {
        IdealScheduling { skew: Some((ls_rob, batch_rob)) }
    }
}

impl Default for IdealScheduling {
    fn default() -> IdealScheduling {
        IdealScheduling::new()
    }
}

impl ColocationPolicy for IdealScheduling {
    /// Builds the contention-free core, applying the Stretch skew if one was
    /// provisioned. On an SMT-T core the batch share is spread over the
    /// `T - 1` co-runners.
    ///
    /// # Panics
    ///
    /// Panics if the requested skew exceeds the ROB capacity.
    fn setup_for(&self, cfg: &CoreConfig, topology: &ColocationTopology) -> CoreSetup {
        let partition = match self.skew {
            None => PartitionPolicy::equal(cfg, topology.threads()),
            Some((ls_rob, batch_rob)) => PartitionPolicy::ls_split(
                cfg,
                topology.threads(),
                topology.ls_thread(),
                ls_rob,
                batch_rob,
            ),
        };
        CoreSetup {
            partition,
            fetch_policy: FetchPolicy::ICount,
            l1i_sharing: Sharing::PrivatePerThread,
            l1d_sharing: Sharing::PrivatePerThread,
            bp_sharing: Sharing::PrivatePerThread,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_model::ThreadId;

    #[test]
    fn ideal_scheduling_privatises_everything_but_the_window() {
        let cfg = CoreConfig::default();
        let s = IdealScheduling::new().setup(&cfg);
        assert_eq!(s.l1i_sharing, Sharing::PrivatePerThread);
        assert_eq!(s.l1d_sharing, Sharing::PrivatePerThread);
        assert_eq!(s.bp_sharing, Sharing::PrivatePerThread);
        assert_eq!(s.partition.rob_limit(&cfg, ThreadId::T0), 96);
    }

    #[test]
    fn combined_setup_applies_the_skew() {
        let cfg = CoreConfig::default();
        let s = IdealScheduling::with_stretch(56, 136).setup(&cfg);
        assert_eq!(s.partition.rob_limit(&cfg, ThreadId::T0), 56);
        assert_eq!(s.partition.rob_limit(&cfg, ThreadId::T1), 136);
        assert_eq!(s.l1d_sharing, Sharing::PrivatePerThread);
        let swapped = IdealScheduling::with_stretch(56, 136)
            .setup_for(&cfg, &ColocationTopology::new(2, ThreadId::T1));
        assert_eq!(swapped.partition.rob_limit(&cfg, ThreadId::T1), 56);
    }

    #[test]
    fn the_pure_policy_programs_the_rob_only_study_core() {
        // Figure 13's ideal scheduling and Figure 5's ROB-only sharing are
        // one core, so the experiment engine serves them from one cell.
        let cfg = CoreConfig::default();
        for threads in [2, 4] {
            let topology = ColocationTopology::new(threads, ThreadId::T0);
            assert_eq!(
                IdealScheduling::new().setup_for(&cfg, &topology),
                cpu_sim::StudiedResource::Rob.setup(&cfg, threads)
            );
        }
    }

    #[test]
    fn removing_cache_contention_helps_the_batch_thread() {
        use cpu_sim::{EqualPartition, Scenario, SimLength};
        use workloads::profile_by_name;

        let pair = || {
            Scenario::colocate(
                profile_by_name("web-serving").unwrap(),
                profile_by_name("gcc").unwrap(),
            )
            .length(SimLength::quick())
            .seed(9)
        };
        let shared = pair().policy(EqualPartition).run();
        let ideal = pair().policy(IdealScheduling::new()).run();
        assert!(
            ideal.expect_thread(ThreadId::T1).uipc
                >= shared.expect_thread(ThreadId::T1).uipc * 0.98,
            "removing L1/BP contention should not hurt the batch thread \
             (shared={:.3}, ideal={:.3})",
            shared.expect_thread(ThreadId::T1).uipc,
            ideal.expect_thread(ThreadId::T1).uipc
        );
    }
}
