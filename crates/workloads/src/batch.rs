//! The 29 SPEC CPU2006-like batch workload profiles (§V-B).
//!
//! The paper colocates every latency-sensitive service with all 29 SPEC
//! CPU2006 benchmarks. The real binaries and reference inputs are not
//! available here, so each benchmark is represented by a synthetic profile
//! whose parameters follow its published characterisation: memory-bound
//! benchmarks with abundant independent misses (`zeusmp`, `lbm`,
//! `libquantum`, `leslie3d`, `GemsFDTD`, `milc`, ...) are MLP-rich and
//! therefore highly ROB-sensitive; pointer-chasing benchmarks (`mcf`,
//! `omnetpp`, `astar`, `xalancbmk`) are memory-bound but less able to use a
//! large window; compute-bound benchmarks (`gamess`, `povray`, `namd`,
//! `calculix`, ...) barely notice ROB capacity. The resulting *population*
//! reproduces the spread the paper reports (≈19 % average loss at half ROB,
//! ≈31 % worst case; 15 of 29 losing more than 15 % when sharing the ROB).

use crate::profile::WorkloadProfile;
use sim_model::WorkloadClass;

/// Builds one batch profile.
#[allow(clippy::too_many_arguments)]
fn batch_profile(
    name: &str,
    load_frac: f64,
    store_frac: f64,
    branch_frac: f64,
    fp_frac: f64,
    code_kb: u64,
    branch_predictability: f64,
    data_mb: u64,
    hot_kb: u64,
    hot_access_frac: f64,
    stride_frac: f64,
    dependent_load_frac: f64,
    dependency_distance: u8,
) -> WorkloadProfile {
    WorkloadProfile {
        name: name.to_string(),
        class: WorkloadClass::Batch,
        load_frac,
        store_frac,
        branch_frac,
        fp_frac,
        mul_frac: 0.05,
        code_footprint_bytes: code_kb * 1024,
        branch_predictability,
        data_footprint_bytes: data_mb * 1024 * 1024,
        hot_region_bytes: hot_kb * 1024,
        hot_access_frac,
        stride_frac,
        dependent_load_frac,
        dependency_distance,
    }
}

/// The 29 benchmark names in SPEC CPU2006 (integer then floating point).
pub const NAMES: [&str; 29] = [
    "astar",
    "bwaves",
    "bzip2",
    "cactusADM",
    "calculix",
    "dealII",
    "gamess",
    "gcc",
    "GemsFDTD",
    "gobmk",
    "gromacs",
    "h264ref",
    "hmmer",
    "lbm",
    "leslie3d",
    "libquantum",
    "mcf",
    "milc",
    "namd",
    "omnetpp",
    "perlbench",
    "povray",
    "sjeng",
    "soplex",
    "sphinx3",
    "tonto",
    "wrf",
    "xalancbmk",
    "zeusmp",
];

/// All 29 batch profiles, in [`NAMES`] order.
pub fn all_profiles() -> Vec<WorkloadProfile> {
    vec![
        // name            ld    st    br    fp   codeKB pred  dataMB hotKB hot%  stride dep  dist
        // Pointer-heavy integer codes: memory bound but with limited MLP.
        batch_profile("astar", 0.30, 0.08, 0.16, 0.00, 48, 0.90, 24, 32, 0.72, 0.10, 0.35, 6),
        // Memory-streaming FP codes: abundant independent misses, very ROB hungry.
        batch_profile("bwaves", 0.30, 0.09, 0.04, 0.60, 32, 0.985, 96, 32, 0.74, 0.35, 0.02, 20),
        batch_profile("bzip2", 0.28, 0.11, 0.13, 0.00, 48, 0.93, 12, 48, 0.82, 0.30, 0.10, 10),
        batch_profile("cactusADM", 0.32, 0.10, 0.03, 0.62, 48, 0.985, 80, 32, 0.73, 0.30, 0.02, 22),
        batch_profile("calculix", 0.26, 0.08, 0.06, 0.58, 64, 0.97, 8, 32, 0.93, 0.40, 0.02, 14),
        batch_profile("dealII", 0.30, 0.09, 0.12, 0.40, 96, 0.95, 16, 40, 0.84, 0.25, 0.12, 10),
        batch_profile("gamess", 0.24, 0.08, 0.08, 0.55, 96, 0.97, 4, 24, 0.96, 0.30, 0.02, 12),
        batch_profile("gcc", 0.26, 0.12, 0.18, 0.00, 512, 0.92, 16, 48, 0.80, 0.15, 0.20, 8),
        batch_profile("GemsFDTD", 0.32, 0.10, 0.03, 0.60, 48, 0.98, 96, 32, 0.72, 0.30, 0.02, 22),
        batch_profile("gobmk", 0.24, 0.09, 0.19, 0.00, 192, 0.86, 4, 32, 0.94, 0.15, 0.08, 6),
        batch_profile("gromacs", 0.26, 0.09, 0.05, 0.60, 64, 0.97, 6, 32, 0.94, 0.35, 0.02, 14),
        batch_profile("h264ref", 0.30, 0.12, 0.09, 0.10, 96, 0.95, 6, 40, 0.92, 0.45, 0.03, 12),
        batch_profile("hmmer", 0.30, 0.12, 0.08, 0.00, 48, 0.96, 8, 40, 0.90, 0.40, 0.04, 14),
        // lbm: the L1-D streaming outlier of Figures 4/5 — enormous store
        // traffic marching through a huge grid.
        batch_profile("lbm", 0.34, 0.26, 0.02, 0.55, 24, 0.99, 128, 24, 0.28, 0.90, 0.01, 24),
        batch_profile("leslie3d", 0.32, 0.11, 0.04, 0.60, 48, 0.98, 80, 32, 0.73, 0.35, 0.02, 20),
        batch_profile("libquantum", 0.28, 0.08, 0.12, 0.00, 24, 0.99, 64, 24, 0.70, 0.75, 0.01, 24),
        // mcf: dominant pointer chasing over a huge graph, some MLP from
        // independent bucket scans.
        batch_profile("mcf", 0.34, 0.08, 0.16, 0.00, 24, 0.92, 96, 24, 0.55, 0.05, 0.45, 6),
        batch_profile("milc", 0.32, 0.10, 0.03, 0.58, 32, 0.98, 96, 32, 0.72, 0.30, 0.02, 20),
        batch_profile("namd", 0.26, 0.08, 0.05, 0.62, 64, 0.97, 6, 40, 0.95, 0.35, 0.02, 16),
        batch_profile("omnetpp", 0.30, 0.10, 0.18, 0.00, 128, 0.90, 32, 32, 0.68, 0.05, 0.40, 6),
        batch_profile("perlbench", 0.26, 0.12, 0.18, 0.00, 384, 0.93, 8, 48, 0.90, 0.15, 0.15, 8),
        batch_profile("povray", 0.26, 0.09, 0.12, 0.45, 96, 0.95, 2, 32, 0.97, 0.30, 0.03, 12),
        batch_profile("sjeng", 0.22, 0.08, 0.18, 0.00, 96, 0.87, 4, 32, 0.95, 0.15, 0.06, 6),
        batch_profile("soplex", 0.32, 0.09, 0.10, 0.40, 64, 0.95, 64, 32, 0.74, 0.25, 0.06, 16),
        batch_profile("sphinx3", 0.32, 0.08, 0.08, 0.45, 64, 0.96, 48, 32, 0.76, 0.35, 0.04, 18),
        batch_profile("tonto", 0.26, 0.09, 0.07, 0.55, 96, 0.96, 6, 32, 0.94, 0.30, 0.02, 14),
        batch_profile("wrf", 0.30, 0.10, 0.05, 0.58, 128, 0.97, 64, 32, 0.76, 0.35, 0.02, 18),
        batch_profile("xalancbmk", 0.30, 0.08, 0.20, 0.00, 384, 0.91, 24, 40, 0.74, 0.10, 0.30, 6),
        // zeusmp: the paper's example of a highly ROB-sensitive batch code.
        batch_profile("zeusmp", 0.32, 0.11, 0.04, 0.60, 48, 0.98, 96, 32, 0.71, 0.30, 0.02, 22),
    ]
}

/// Looks up one batch profile by benchmark name.
pub fn profile_by_name(name: &str) -> Option<WorkloadProfile> {
    all_profiles().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn exactly_29_benchmarks() {
        assert_eq!(NAMES.len(), 29);
        assert_eq!(all_profiles().len(), 29);
    }

    #[test]
    fn names_match_and_are_unique() {
        let profiles = all_profiles();
        let names: Vec<&str> = profiles.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, NAMES.to_vec());
        let unique: HashSet<&str> = names.into_iter().collect();
        assert_eq!(unique.len(), 29);
    }

    #[test]
    fn all_profiles_are_valid_batch_profiles() {
        for p in all_profiles() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(p.class.is_batch(), "{} must be a batch workload", p.name);
        }
    }

    #[test]
    fn the_suite_is_diverse_in_memory_behaviour() {
        let profiles = all_profiles();
        let memory_bound =
            profiles.iter().filter(|p| p.data_footprint_bytes >= 48 * 1024 * 1024).count();
        let compute_bound =
            profiles.iter().filter(|p| p.data_footprint_bytes <= 8 * 1024 * 1024).count();
        let pointer_chasing = profiles.iter().filter(|p| p.dependent_load_frac >= 0.3).count();
        assert!(memory_bound >= 10, "need a sizeable memory-bound population ({memory_bound})");
        assert!(compute_bound >= 6, "need a sizeable compute-bound population ({compute_bound})");
        assert!(pointer_chasing >= 4, "need pointer-chasing representatives ({pointer_chasing})");
    }

    #[test]
    fn lookup_by_name() {
        assert!(profile_by_name("zeusmp").is_some());
        assert!(profile_by_name("notabenchmark").is_none());
    }

    #[test]
    fn lbm_is_the_streaming_outlier() {
        let lbm = profile_by_name("lbm").unwrap();
        for p in all_profiles() {
            if p.name != "lbm" {
                assert!(
                    lbm.store_frac >= p.store_frac,
                    "lbm should have the highest store fraction"
                );
            }
        }
        assert!(lbm.stride_frac > 0.8);
    }
}
