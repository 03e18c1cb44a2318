//! The two shape arguments of [`CaseStudy::fleet_with`](crate::CaseStudy::fleet_with):
//! how the fleet's servers are organised for dispatch, and how its tails
//! are retained.
//!
//! A flat fleet dispatches every request through one global
//! [`LoadBalancer`], which makes the whole fleet a single sequential unit:
//! a queue-aware balancer (`LeastLoaded`, `PowerOfTwoChoices`) inspects
//! *every* server's queue for *every* request, so no prefix of the servers
//! can be simulated independently of the rest. Racks restore independence
//! by construction, the way real datacenters do (RackSched's two-layer
//! inter-/intra-rack scheduling): the cluster tier splits the offered load
//! evenly across racks by server count, and the queue-aware balancer runs
//! *inside* each rack only. Racks therefore never exchange state mid-run,
//! which makes them the natural shard unit for
//! [`Fleet::run_with_workers`](crate::Fleet::run_with_workers) — each rack
//! simulates on its own worker thread with its own RNG streams, and the
//! merge is a deterministic shard-index-order fold. A flat fleet is the
//! one-rack case: [`FleetTopology`] lowers to the
//! [`FleetConfig`](crate::FleetConfig)'s `racks` and `balancer`, and
//! `Flat` and `racked(1, b)` under balancer `b` lower to one configuration.
//!
//! [`TailAccumulation`] picks how day- and fleet-level sojourn collections
//! are retained: exact raw samples (exact percentiles, memory proportional
//! to request count) or 2 ms bins up to 2 s
//! ([`sim_stats::LatencyHistogram`], which stores counts only over the
//! bins it has recorded — required for 10k-server multi-day runs, which
//! would otherwise retain ~10⁸ floats). The choice is part of a run's
//! cache identity.

use crate::fleet::LoadBalancer;
use sim_model::{CanonicalKey, KeyEncoder};

/// How the fleet's servers are organised for dispatch (and, consequently,
/// how the simulation shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetTopology {
    /// One global balancer over all servers: one rack under the fleet's
    /// balancer.
    Flat,
    /// Cluster → rack → server: the cluster tier splits load evenly across
    /// `racks` racks, `balancer` dispatches within each rack, and each rack
    /// is one shard of the parallel simulation.
    Racked {
        /// Number of racks; must divide the fleet's server count evenly.
        racks: usize,
        /// Dispatcher spreading a rack's share of the load over its servers.
        balancer: LoadBalancer,
    },
}

impl FleetTopology {
    /// A racked topology (convenience constructor).
    pub fn racked(racks: usize, balancer: LoadBalancer) -> FleetTopology {
        FleetTopology::Racked { racks, balancer }
    }
}

/// How day- and fleet-level sojourn collections are retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailAccumulation {
    /// Retain every raw sojourn sample (exact percentiles): 8 bytes per
    /// measured request, held once, in one sojourn log per shard that the
    /// merge appends to one log for the run. Memory grows with the request
    /// count — fine at test scale.
    Exact,
    /// 2 ms latency bins up to 2 s ([`sim_stats::LatencyHistogram`]): each
    /// accumulator stores one count per bin between the lowest and highest
    /// bin it has recorded, never more than 1,001, regardless of request
    /// count, and percentiles are conservative to within one 2 ms step.
    Binned,
}

impl TailAccumulation {
    /// The binned accumulation, sized for datacenter-scale service tails:
    /// 2 ms bins up to 2 s (1,001 bins). A web-search tail touches a few
    /// dozen of them, so an accumulator holds about 25 counts (200 bytes),
    /// not 8 KB.
    pub fn binned_default() -> TailAccumulation {
        TailAccumulation::Binned
    }
}

impl CanonicalKey for TailAccumulation {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.tag(match self {
            TailAccumulation::Exact => 0,
            TailAccumulation::Binned => 1,
        });
    }
}
