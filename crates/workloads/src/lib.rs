//! Synthetic workload generators for the Stretch (HPCA'19) reproduction.
//!
//! Workspace architecture — crate map, simulation layers, policy stack,
//! cache keys, where determinism is enforced: `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! The paper evaluates four CloudSuite latency-sensitive services colocated
//! with all 29 SPEC CPU2006 benchmarks. Neither is runnable inside this
//! repository, so this crate provides parameterised synthetic equivalents
//! (see `DESIGN.md` for the substitution argument):
//!
//! * [`latency_sensitive`] — Data Serving, Web Serving, Web Search and Media
//!   Streaming profiles: huge instruction footprints, pointer-chasing data
//!   accesses, low MLP.
//! * [`batch`] — 29 SPEC-like profiles spanning memory-bound/MLP-rich,
//!   pointer-chasing and compute-bound behaviour.
//! * [`WorkloadProfile`] — the parameter set describing a workload.
//! * [`SyntheticWorkload`] — the deterministic trace generator realising a
//!   profile (implements [`sim_model::TraceGenerator`]).
//!
//! A profile reaches a run as a [`sim_model::TraceSource`]: the scenario
//! layer names it and spawns its stream from a derived seed.
//!
//! # Example
//!
//! ```
//! use sim_model::TraceSource;
//! use workloads::{batch, profile_by_name};
//!
//! let ws = profile_by_name("web-search").expect("built-in profile");
//! assert_eq!(ws.source_name(), "web-search");
//! let op = ws.spawn_trace(42).next_op();
//! assert!(op.is_well_formed());
//! assert_eq!(batch::all_profiles().len(), 29);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod generator;
pub mod latency_sensitive;
pub mod profile;

pub use generator::SyntheticWorkload;
pub use profile::WorkloadProfile;

use sim_model::{BoxedTrace, TraceSource};

/// A profile is the source of its synthetic streams.
impl TraceSource for WorkloadProfile {
    fn source_name(&self) -> &str {
        &self.name
    }

    /// # Panics
    ///
    /// Panics if the profile fails validation.
    fn spawn_trace(&self, seed: u64) -> BoxedTrace {
        Box::new(SyntheticWorkload::new(self.clone(), seed))
    }
}

/// Returns every workload profile in the study: the four latency-sensitive
/// services followed by the 29 batch benchmarks.
pub fn all_profiles() -> Vec<WorkloadProfile> {
    let mut v = latency_sensitive::all_profiles();
    v.extend(batch::all_profiles());
    v
}

/// Looks up any workload (latency-sensitive or batch) by name.
pub fn profile_by_name(name: &str) -> Option<WorkloadProfile> {
    latency_sensitive::profile_by_name(name).or_else(|| batch::profile_by_name(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_registry_has_33_workloads() {
        assert_eq!(all_profiles().len(), 33);
    }

    #[test]
    fn lookup_spans_both_classes() {
        assert!(profile_by_name("web-search").is_some());
        assert!(profile_by_name("zeusmp").is_some());
        assert!(profile_by_name("unknown").is_none());
    }

    #[test]
    fn spawn_produces_a_named_generator() {
        use sim_model::TraceGenerator;
        let p = profile_by_name("web-search").unwrap();
        assert_eq!(p.source_name(), "web-search");
        let mut spawned = p.spawn_trace(1);
        let mut direct = SyntheticWorkload::new(p, 1);
        for _ in 0..100 {
            assert_eq!(spawned.next_op(), direct.next_op());
        }
    }
}
