//! The four latency-sensitive service workloads (Tables I and III).
//!
//! Each profile encodes the microarchitectural behaviour the paper (and the
//! scale-out-workload literature it cites) attributes to these services:
//! multi-megabyte instruction footprints that pressure the L1-I, data-
//! dependent pointer-chasing access patterns that keep MLP low, modest hot
//! working sets, and mostly-predictable branches. The result is a workload
//! class that gains little from a large ROB (Figure 6) and places modest
//! demands on shared core resources (Figure 3).

use crate::profile::WorkloadProfile;
use sim_model::WorkloadClass;

/// Names of the four latency-sensitive services, in the order the paper
/// lists them.
pub const NAMES: [&str; 4] = ["data-serving", "web-serving", "web-search", "media-streaming"];

#[allow(clippy::too_many_arguments)] // mirrors the column order of the profile table
fn ls_profile(
    name: &str,
    load_frac: f64,
    store_frac: f64,
    branch_frac: f64,
    code_kb: u64,
    dependent_load_frac: f64,
    hot_access_frac: f64,
    data_mb: u64,
    stride_frac: f64,
    branch_predictability: f64,
) -> WorkloadProfile {
    WorkloadProfile {
        name: name.to_string(),
        class: WorkloadClass::LatencySensitive,
        load_frac,
        store_frac,
        branch_frac,
        fp_frac: 0.02,
        mul_frac: 0.04,
        code_footprint_bytes: code_kb * 1024,
        branch_predictability,
        data_footprint_bytes: data_mb * 1024 * 1024,
        hot_region_bytes: 40 * 1024,
        hot_access_frac,
        stride_frac,
        dependent_load_frac,
        dependency_distance: 4,
    }
}

/// Data Serving (Cassandra): large heap, key-value lookups dominated by
/// pointer chasing through index structures.
pub fn data_serving_profile() -> WorkloadProfile {
    ls_profile("data-serving", 0.28, 0.10, 0.17, 2048, 0.50, 0.62, 48, 0.08, 0.92)
}

/// Web Serving (Nginx/Elgg + MySQL): very large code footprint, branchy
/// request handling, moderate data footprint.
pub fn web_serving_profile() -> WorkloadProfile {
    ls_profile("web-serving", 0.26, 0.08, 0.20, 3072, 0.40, 0.70, 16, 0.05, 0.90)
}

/// Web Search (Nutch/Lucene): inverted-index traversal — data-dependent
/// loads over a large index with little spatial locality.
pub fn web_search_profile() -> WorkloadProfile {
    ls_profile("web-search", 0.30, 0.05, 0.18, 1536, 0.45, 0.68, 24, 0.10, 0.93)
}

/// Media Streaming (Darwin/Nginx streaming): sequential buffer movement with
/// somewhat more streaming behaviour than the other services, but still
/// front-end bound.
pub fn media_streaming_profile() -> WorkloadProfile {
    ls_profile("media-streaming", 0.30, 0.12, 0.14, 1024, 0.28, 0.58, 64, 0.45, 0.95)
}

/// All four latency-sensitive profiles, in [`NAMES`] order.
pub fn all_profiles() -> Vec<WorkloadProfile> {
    vec![
        data_serving_profile(),
        web_serving_profile(),
        web_search_profile(),
        media_streaming_profile(),
    ]
}

/// Looks up a latency-sensitive profile by name.
pub fn profile_by_name(name: &str) -> Option<WorkloadProfile> {
    all_profiles().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_services_with_expected_names() {
        let profiles = all_profiles();
        assert_eq!(profiles.len(), 4);
        let names: Vec<&str> = profiles.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, NAMES.to_vec());
    }

    #[test]
    fn all_profiles_are_valid_and_latency_sensitive() {
        for p in all_profiles() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(p.is_latency_sensitive());
            assert!(
                p.code_footprint_bytes >= 1024 * 1024,
                "{} should have a multi-MB code footprint",
                p.name
            );
            assert!(
                p.dependent_load_frac >= 0.25,
                "{} should be dominated by dependent accesses",
                p.name
            );
        }
    }

    #[test]
    fn lookup_by_name_works() {
        assert!(profile_by_name("web-search").is_some());
        assert!(profile_by_name("no-such-service").is_none());
    }
}
