//! The [`ColocationPolicy`] trait: one interface for every way of sharing an
//! SMT core between a latency-sensitive and a batch thread.
//!
//! The paper's argument is that Stretch, dynamic ROB sharing, fetch
//! throttling and idealised software scheduling are *interchangeable
//! policies* over the same core. This module makes that literal: a policy
//! is the [`CoreSetup`] it programs ([`ColocationPolicy::setup_for`]) for a
//! [`ColocationTopology`], the core's SMT width and the one thread system
//! software marks latency-sensitive. The setup holds the values written into
//! the ROB/LSQ limit registers, the fetch arbiter and the sharing controls
//! (§IV-B). Nothing else about a policy reaches a run, so the experiment
//! engine keys a cached cell by that setup: two policies that program the
//! same core share one cell. A [`CoreSetup`] is itself a policy, the one
//! that programs exactly it.
//!
//! The [`crate::Scenario`] builder runs a policy open loop (one setup for the
//! whole run). The closed loop that picks a Stretch mode from measured tail
//! latency lives in the `stretch` crate's software monitor, which the
//! `cluster_sim` crate's fleet simulation drives directly.
//!
//! Static policies that need nothing beyond a fixed [`CoreSetup`] live here
//! ([`EqualPartition`], [`PrivateCore`], and the Figure 4/5 resource-study
//! configurations via [`crate::StudiedResource`]); the comparison systems
//! live in the `baselines` crate and Stretch itself in the `stretch` crate —
//! each is a one-file implementation of this trait.

use crate::runner::CoreSetup;
use sim_model::{CoreConfig, ThreadId};

/// The thread layout of one colocated core: how many hardware threads it has
/// and which of them runs the latency-sensitive service. The remaining
/// `threads - 1` slots are batch threads. It is the one LS-thread
/// designation: every policy that singles out the service reads it here.
///
/// The classic paper configuration is [`ColocationTopology::pair`]: two
/// threads with the LS service on T0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColocationTopology {
    threads: usize,
    ls_thread: ThreadId,
}

impl ColocationTopology {
    /// A topology with `threads` hardware threads and the latency-sensitive
    /// service on `ls_thread`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or `ls_thread` is out of range.
    pub fn new(threads: usize, ls_thread: ThreadId) -> ColocationTopology {
        assert!(threads >= 1, "a topology needs at least one thread");
        assert!(
            ls_thread.index() < threads,
            "LS thread {ls_thread} out of range for an SMT-{threads} core"
        );
        ColocationTopology { threads, ls_thread }
    }

    /// The classic dual-threaded layout with the LS service on T0.
    pub fn pair() -> ColocationTopology {
        ColocationTopology::new(2, ThreadId::T0)
    }

    /// Number of hardware threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The thread running the latency-sensitive service.
    pub fn ls_thread(&self) -> ThreadId {
        self.ls_thread
    }
}

/// A resource-allocation policy for a colocated SMT core.
///
/// See the [module docs](self) for the design rationale. Implementations are
/// cheap config-carrying values whose only effect on a run is the
/// [`CoreSetup`] they return.
pub trait ColocationPolicy: Send + Sync {
    /// The core configuration this policy wants for the given thread layout:
    /// `topology.threads()` hardware threads, the latency-sensitive one at
    /// `topology.ls_thread()`, the rest batch.
    fn setup_for(&self, cfg: &CoreConfig, topology: &ColocationTopology) -> CoreSetup;

    /// The core configuration this policy wants on the classic pair —
    /// shorthand for [`ColocationPolicy::setup_for`] with
    /// [`ColocationTopology::pair`].
    fn setup(&self, cfg: &CoreConfig) -> CoreSetup {
        self.setup_for(cfg, &ColocationTopology::pair())
    }
}

/// A core setup is the policy that programs exactly it, whatever the
/// topology. It must already match the core's width: a static partition over
/// another thread count is rejected when the core is built.
impl ColocationPolicy for CoreSetup {
    fn setup_for(&self, _cfg: &CoreConfig, _topology: &ColocationTopology) -> CoreSetup {
        self.clone()
    }
}

/// The §V-A baseline policy: equal ROB/LSQ partitioning, ICOUNT fetch,
/// everything shared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EqualPartition;

impl ColocationPolicy for EqualPartition {
    fn setup_for(&self, cfg: &CoreConfig, topology: &ColocationTopology) -> CoreSetup {
        CoreSetup::baseline(cfg, topology.threads())
    }
}

/// A fully private core: private caches and predictor, and (optionally
/// capped) private window — the paper's stand-alone "full core" reference and
/// the Figure 6 ROB-sensitivity sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivateCore {
    /// Per-thread ROB allocation; `None` means the full unpartitioned window.
    pub rob_entries: Option<usize>,
}

impl PrivateCore {
    /// The full-window private core (stand-alone reference runs).
    pub fn full() -> PrivateCore {
        PrivateCore { rob_entries: None }
    }

    /// A private core whose ROB is capped at `rob_entries` per thread, with
    /// the LSQ scaled proportionally (the Figure 6 sweep).
    pub fn with_rob(rob_entries: usize) -> PrivateCore {
        PrivateCore { rob_entries: Some(rob_entries) }
    }
}

impl ColocationPolicy for PrivateCore {
    fn setup_for(&self, cfg: &CoreConfig, topology: &ColocationTopology) -> CoreSetup {
        let threads = topology.threads();
        let mut setup = CoreSetup::private_full(cfg, threads);
        if let Some(rob) = self.rob_entries {
            let lsq = cfg.lsq_entries_for_rob(rob);
            setup.partition = crate::partition::PartitionPolicy::Static {
                rob: vec![rob; threads],
                lsq: vec![lsq; threads],
            };
        }
        setup
    }
}

impl ColocationPolicy for crate::resource_study::StudiedResource {
    fn setup_for(&self, cfg: &CoreConfig, topology: &ColocationTopology) -> CoreSetup {
        crate::resource_study::StudiedResource::setup(*self, cfg, topology.threads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource_study::StudiedResource;
    use sim_model::ThreadId;

    #[test]
    fn equal_partition_matches_the_baseline_setup() {
        let cfg = CoreConfig::default();
        assert_eq!(EqualPartition.setup(&cfg), CoreSetup::baseline(&cfg, 2));
    }

    #[test]
    fn private_core_full_and_capped_windows() {
        let cfg = CoreConfig::default();
        let full = PrivateCore::full().setup(&cfg);
        assert_eq!(full, CoreSetup::private_full(&cfg, 2));
        let capped = PrivateCore::with_rob(64).setup(&cfg);
        assert_eq!(capped.partition.rob_limit(&cfg, ThreadId::T0), 64);
        assert_eq!(capped.partition.rob_limit(&cfg, ThreadId::T1), 64);
    }

    #[test]
    fn studied_resource_policy_delegates_to_the_resource_setup() {
        let cfg = CoreConfig::default();
        for r in StudiedResource::ALL {
            assert_eq!(ColocationPolicy::setup(&r, &cfg), r.setup(&cfg, 2));
        }
    }

    #[test]
    fn a_core_setup_used_as_a_policy_returns_itself() {
        let cfg = CoreConfig::default();
        let smt4 = ColocationTopology::new(4, ThreadId::from_index(2));
        for setup in [
            StudiedResource::L1D.setup_for(&cfg, &smt4),
            PrivateCore::with_rob(48).setup_for(&cfg, &smt4),
        ] {
            assert_eq!(setup.setup_for(&cfg, &smt4), setup);
            // The topology does not reshape it: the setup stays four wide.
            assert_eq!(setup.setup(&cfg), setup);
        }
    }

    #[test]
    fn pair_topology_is_the_classic_layout() {
        let t = ColocationTopology::pair();
        assert_eq!(t.threads(), 2);
        assert_eq!(t.ls_thread(), ThreadId::T0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn topology_rejects_out_of_range_ls_thread() {
        let _ = ColocationTopology::new(2, ThreadId::from_index(2));
    }

    #[test]
    fn setup_is_setup_for_on_the_pair() {
        let cfg = CoreConfig::default();
        let pair = ColocationTopology::pair();
        assert_eq!(EqualPartition.setup(&cfg), EqualPartition.setup_for(&cfg, &pair));
        assert_eq!(
            PrivateCore::with_rob(64).setup(&cfg),
            PrivateCore::with_rob(64).setup_for(&cfg, &pair)
        );
    }

    #[test]
    fn smt4_setups_cover_four_threads() {
        let cfg = CoreConfig::default();
        let topo = ColocationTopology::new(4, ThreadId::T0);
        assert_eq!(EqualPartition.setup_for(&cfg, &topo).partition.threads(), Some(4));
        assert_eq!(PrivateCore::with_rob(48).setup_for(&cfg, &topo).partition.threads(), Some(4));
        for r in StudiedResource::ALL {
            assert_eq!(r.setup_for(&cfg, &topo).partition.threads(), Some(4));
        }
    }
}
