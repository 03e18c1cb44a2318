//! Per-resource contention study configurations (Figures 4 and 5).
//!
//! §III-B isolates the contribution of each shared structure to colocation
//! slowdown: "for each colocation, we simulate each hardware thread with
//! completely private microarchitectural structures for everything except the
//! resource under study". This module builds the corresponding [`CoreSetup`]s:
//! the resource under study keeps its baseline sharing (shared tables / caches,
//! or the equally-partitioned ROB), while everything else is private and
//! full-size.

use crate::fetch::FetchPolicy;
use crate::partition::PartitionPolicy;
use crate::runner::CoreSetup;
use mem_sim::Sharing;
use sim_model::CoreConfig;
use std::fmt;

/// The four core resources whose sharing the paper studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StudiedResource {
    /// The reorder buffer (and, proportionally, the LSQ): under study it is
    /// equally partitioned (96 entries per thread); otherwise each thread has
    /// the full window to itself.
    Rob,
    /// The L1 instruction cache.
    L1I,
    /// The L1 data cache.
    L1D,
    /// Branch prediction structures (BTB and direction predictor).
    BtbBp,
}

impl StudiedResource {
    /// All four resources, in the order the paper plots them.
    pub const ALL: [StudiedResource; 4] =
        [StudiedResource::Rob, StudiedResource::L1I, StudiedResource::L1D, StudiedResource::BtbBp];

    /// Builds the core setup of a `threads`-wide core in which only this
    /// resource is shared among the threads (everything else private / full
    /// size).
    pub fn setup(self, cfg: &CoreConfig, threads: usize) -> CoreSetup {
        let mut setup = CoreSetup {
            partition: PartitionPolicy::private_full(cfg, threads),
            fetch_policy: FetchPolicy::ICount,
            l1i_sharing: Sharing::PrivatePerThread,
            l1d_sharing: Sharing::PrivatePerThread,
            bp_sharing: Sharing::PrivatePerThread,
        };
        match self {
            StudiedResource::Rob => setup.partition = PartitionPolicy::equal(cfg, threads),
            StudiedResource::L1I => setup.l1i_sharing = Sharing::Shared,
            StudiedResource::L1D => setup.l1d_sharing = Sharing::Shared,
            StudiedResource::BtbBp => setup.bp_sharing = Sharing::Shared,
        }
        setup
    }
}

impl fmt::Display for StudiedResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StudiedResource::Rob => "ROB",
            StudiedResource::L1I => "L1-I",
            StudiedResource::L1D => "L1-D",
            StudiedResource::BtbBp => "BTB+BP",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_model::ThreadId;

    #[test]
    fn only_the_studied_resource_is_shared() {
        let cfg = CoreConfig::default();

        let rob = StudiedResource::Rob.setup(&cfg, 2);
        assert_eq!(rob.partition.rob_limit(&cfg, ThreadId::T0), 96);
        assert_eq!(rob.l1i_sharing, Sharing::PrivatePerThread);
        assert_eq!(rob.l1d_sharing, Sharing::PrivatePerThread);
        assert_eq!(rob.bp_sharing, Sharing::PrivatePerThread);

        let l1i = StudiedResource::L1I.setup(&cfg, 2);
        assert_eq!(l1i.partition.rob_limit(&cfg, ThreadId::T0), 192);
        assert_eq!(l1i.l1i_sharing, Sharing::Shared);
        assert_eq!(l1i.l1d_sharing, Sharing::PrivatePerThread);

        let l1d = StudiedResource::L1D.setup(&cfg, 2);
        assert_eq!(l1d.l1d_sharing, Sharing::Shared);
        assert_eq!(l1d.l1i_sharing, Sharing::PrivatePerThread);

        let bp = StudiedResource::BtbBp.setup(&cfg, 2);
        assert_eq!(bp.bp_sharing, Sharing::Shared);
        assert_eq!(bp.l1d_sharing, Sharing::PrivatePerThread);
    }

    #[test]
    fn display_names_match_figure_labels() {
        let names: Vec<String> = StudiedResource::ALL.iter().map(|r| r.to_string()).collect();
        assert_eq!(names, vec!["ROB", "L1-I", "L1-D", "BTB+BP"]);
    }
}
