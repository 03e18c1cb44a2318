//! Cluster → rack → server topology (and tail-accumulation policy) for the
//! sharded fleet.
//!
//! The flat fleet dispatches every request through one global
//! [`LoadBalancer`], which makes the whole fleet a single sequential unit:
//! a queue-aware balancer (`LeastLoaded`, `PowerOfTwoChoices`) inspects
//! *every* server's queue for *every* request, so no prefix of the servers
//! can be simulated independently of the rest. [`RackTopology`] restores
//! independence by construction, the way real datacenters do (RackSched's
//! two-layer inter-/intra-rack scheduling): the cluster tier splits the
//! offered load evenly across racks by server count, and the queue-aware
//! balancer runs *inside* each rack only. Racks therefore never exchange
//! state mid-run, which makes them the natural shard unit for
//! [`Fleet::run_with_workers`](crate::Fleet::run_with_workers) — each rack
//! simulates on its own worker thread with its own RNG streams, and the
//! merge is a deterministic shard-index-order fold.
//!
//! [`TailAccumulation`] picks how day- and fleet-level sojourn collections
//! are retained: exact raw samples (the historical behaviour, exact
//! percentiles, memory proportional to request count) or fixed-resolution
//! bins ([`sim_stats::LatencyHistogram`], which stores counts only over the
//! bins it has recorded — required for 10k-server multi-day runs, which
//! would otherwise retain ~10⁸ floats). Both choices are part of a run's
//! cache identity.

use crate::fleet::LoadBalancer;
use serde::{Deserialize, Serialize};
use sim_model::{CanonicalKey, KeyEncoder};
use sim_stats::tail::MAX_REGULAR_BINS;

/// A two-tier cluster → rack topology: `racks` equal racks of
/// `servers / racks` machines each, with `rack_balancer` dispatching inside
/// every rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RackTopology {
    /// Number of racks; must divide the fleet's server count evenly.
    pub racks: usize,
    /// Dispatcher spreading a rack's share of the load over its servers.
    pub rack_balancer: LoadBalancer,
}

/// How the fleet's servers are organised for dispatch (and, consequently,
/// how the simulation shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetTopology {
    /// One global balancer over all servers — the historical single-shard
    /// fleet. Exact bit-compatibility with pre-topology runs.
    Flat,
    /// Cluster → rack → server: the cluster tier splits load evenly across
    /// racks, the rack tier load-balances within each rack, and each rack is
    /// one shard of the parallel simulation.
    Racked(RackTopology),
}

impl FleetTopology {
    /// A racked topology (convenience constructor).
    pub fn racked(racks: usize, rack_balancer: LoadBalancer) -> FleetTopology {
        FleetTopology::Racked(RackTopology { racks, rack_balancer })
    }

    /// Validates the topology against the fleet's server count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self, servers: usize) -> Result<(), String> {
        match self {
            FleetTopology::Flat => Ok(()),
            FleetTopology::Racked(rt) => {
                if rt.racks == 0 {
                    return Err("a racked topology needs at least one rack".into());
                }
                if rt.racks > servers {
                    return Err(format!(
                        "{} racks cannot be populated from {servers} servers",
                        rt.racks
                    ));
                }
                if !servers.is_multiple_of(rt.racks) {
                    return Err(format!(
                        "{servers} servers do not split evenly over {} racks",
                        rt.racks
                    ));
                }
                Ok(())
            }
        }
    }
}

impl std::fmt::Display for FleetTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetTopology::Flat => f.write_str("flat"),
            FleetTopology::Racked(rt) => {
                write!(f, "{} racks x {}", rt.racks, rt.rack_balancer)
            }
        }
    }
}

impl CanonicalKey for FleetTopology {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        match self {
            FleetTopology::Flat => {
                enc.tag(0);
            }
            FleetTopology::Racked(rt) => {
                enc.tag(1).usize(rt.racks).field(&rt.rack_balancer);
            }
        }
    }
}

/// How day- and fleet-level sojourn collections are retained.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TailAccumulation {
    /// Retain every raw sojourn sample (exact percentiles): 8 bytes per
    /// measured request, held once, in one sojourn log per shard that the
    /// merge appends to one log for the run. Memory grows with the request
    /// count — the historical behaviour, fine at test scale.
    Exact,
    /// Fixed-resolution latency bins ([`sim_stats::LatencyHistogram`]):
    /// each accumulator stores one count per bin between the lowest and
    /// highest bin it has recorded, never more than
    /// `ceil(max_ms / resolution_ms) + 1`, regardless of request count, and
    /// percentiles are conservative to within one resolution step.
    Binned {
        /// Bin width in milliseconds.
        resolution_ms: f64,
        /// Upper edge of the regular bins; larger sojourns land in a
        /// catch-all bin reported one resolution step above this.
        max_ms: f64,
    },
}

impl TailAccumulation {
    /// A binned accumulation sized for datacenter-scale service tails:
    /// 2 ms bins up to 2 s (1,001 bins). A web-search tail touches a few
    /// dozen of them, so an accumulator holds about 25 counts (200 bytes),
    /// not 8 KB.
    pub fn binned_default() -> TailAccumulation {
        TailAccumulation::Binned { resolution_ms: 2.0, max_ms: 2000.0 }
    }

    /// Validates the accumulation parameters: a positive, finite resolution,
    /// a finite maximum at least one bin wide, and at most
    /// [`MAX_REGULAR_BINS`] regular bins.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            TailAccumulation::Exact => Ok(()),
            TailAccumulation::Binned { resolution_ms, max_ms } => {
                if !(resolution_ms.is_finite() && resolution_ms > 0.0) {
                    return Err(format!(
                        "tail bin resolution {resolution_ms} ms must be positive and finite"
                    ));
                }
                if !(max_ms.is_finite() && max_ms >= resolution_ms) {
                    return Err(format!(
                        "tail bin maximum {max_ms} ms must be finite and at least one bin wide"
                    ));
                }
                let bins = (max_ms / resolution_ms).ceil();
                if bins > MAX_REGULAR_BINS as f64 {
                    return Err(format!(
                        "{bins} tail bins of {resolution_ms} ms up to {max_ms} ms exceed the \
                         {MAX_REGULAR_BINS}-bin limit"
                    ));
                }
                Ok(())
            }
        }
    }
}

impl CanonicalKey for TailAccumulation {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        match *self {
            TailAccumulation::Exact => {
                enc.tag(0);
            }
            TailAccumulation::Binned { resolution_ms, max_ms } => {
                enc.tag(1).f64(resolution_ms).f64(max_ms);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_validation_requires_even_split() {
        assert!(FleetTopology::Flat.validate(1).is_ok());
        let t = FleetTopology::racked(4, LoadBalancer::PowerOfTwoChoices);
        assert!(t.validate(8).is_ok());
        assert!(t.validate(6).is_err(), "6 servers over 4 racks is uneven");
        assert!(t.validate(2).is_err(), "more racks than servers");
        assert!(FleetTopology::racked(0, LoadBalancer::RoundRobin).validate(8).is_err());
    }

    #[test]
    fn tail_accumulation_validation() {
        assert!(TailAccumulation::Exact.validate().is_ok());
        assert!(TailAccumulation::binned_default().validate().is_ok());
        assert!(TailAccumulation::Binned { resolution_ms: 0.0, max_ms: 10.0 }.validate().is_err());
        assert!(TailAccumulation::Binned { resolution_ms: 4.0, max_ms: 2.0 }.validate().is_err());
        assert!(TailAccumulation::Binned { resolution_ms: f64::NAN, max_ms: 2.0 }
            .validate()
            .is_err());
        // 10^18 bins: validation must refuse what no histogram can allocate,
        // and the limit itself is accepted.
        assert_eq!(
            TailAccumulation::Binned { resolution_ms: 1e-9, max_ms: 1e9 }.validate(),
            Err("1000000000000000000 tail bins of 0.000000001 ms up to 1000000000 ms exceed \
                 the 1048576-bin limit"
                .to_string())
        );
        let limit = MAX_REGULAR_BINS as f64;
        assert!(TailAccumulation::Binned { resolution_ms: 1.0, max_ms: limit }.validate().is_ok());
        assert!(TailAccumulation::Binned { resolution_ms: 1.0, max_ms: limit + 1.0 }
            .validate()
            .is_err());
    }

    #[test]
    fn canonical_keys_separate_topologies_and_tails() {
        let digest = |t: &dyn CanonicalKey| {
            let mut enc = KeyEncoder::new();
            t.encode_key(&mut enc);
            enc.digest()
        };
        let topo: Vec<FleetTopology> = vec![
            FleetTopology::Flat,
            FleetTopology::racked(1, LoadBalancer::LeastLoaded),
            FleetTopology::racked(2, LoadBalancer::LeastLoaded),
            FleetTopology::racked(2, LoadBalancer::PowerOfTwoChoices),
        ];
        let digests: Vec<String> = topo.iter().map(|t| digest(t)).collect();
        for (i, a) in digests.iter().enumerate() {
            for (j, b) in digests.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "topologies {i} and {j} must have distinct identities");
            }
        }
        let tails = [
            TailAccumulation::Exact,
            TailAccumulation::binned_default(),
            TailAccumulation::Binned { resolution_ms: 2.0, max_ms: 1000.0 },
        ];
        let tdig: Vec<String> = tails.iter().map(|t| digest(t)).collect();
        assert_ne!(tdig[0], tdig[1]);
        assert_ne!(tdig[1], tdig[2]);
    }
}
