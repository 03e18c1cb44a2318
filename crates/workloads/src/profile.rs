//! Workload profiles: the parameter sets that characterise each synthetic
//! workload's microarchitectural behaviour.
//!
//! The reproduction does not run the real CloudSuite services or SPEC CPU2006
//! binaries; instead, each workload is described by a [`WorkloadProfile`]
//! whose parameters control the properties the paper's analysis depends on:
//!
//! * instruction mix (loads, stores, branches, FP),
//! * code footprint (instruction-cache pressure — large for server
//!   workloads [Ferdman et al., ASPLOS'12]),
//! * data footprint and hot-set size (L1-D / LLC / memory miss rates),
//! * the fraction of *dependent* (pointer-chasing) loads versus independent
//!   loads (memory-level parallelism — the key difference between
//!   latency-sensitive and batch workloads in §III-C),
//! * stride-friendliness (prefetcher effectiveness),
//! * branch predictability.

use sim_model::WorkloadClass;

/// Complete description of a synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Workload name (e.g. `"web-search"`, `"zeusmp"`).
    pub name: String,
    /// Latency-sensitive or batch.
    pub class: WorkloadClass,
    /// Fraction of dynamic instructions that are loads.
    pub load_frac: f64,
    /// Fraction of dynamic instructions that are stores.
    pub store_frac: f64,
    /// Fraction of dynamic instructions that are branches.
    pub branch_frac: f64,
    /// Fraction of the remaining (non-memory, non-branch) instructions that
    /// are floating-point.
    pub fp_frac: f64,
    /// Fraction of the remaining instructions that are integer multiplies.
    pub mul_frac: f64,
    /// Static code footprint in bytes (drives L1-I miss rate).
    pub code_footprint_bytes: u64,
    /// Probability that a branch is well-behaved (biased and therefore
    /// predictable); the rest behave randomly.
    pub branch_predictability: f64,
    /// Total data working set in bytes (drives LLC / memory miss rates).
    pub data_footprint_bytes: u64,
    /// Size of the hot data region in bytes (drives the L1-D hit rate).
    pub hot_region_bytes: u64,
    /// Fraction of memory accesses that go to the hot region.
    pub hot_access_frac: f64,
    /// Fraction of cold accesses that follow a sequential stride
    /// (prefetchable).
    pub stride_frac: f64,
    /// Fraction of loads whose address depends on the previous load's result
    /// (pointer chasing). High values serialise misses and destroy MLP.
    pub dependent_load_frac: f64,
    /// Register dependency distance for ALU operations: larger values mean
    /// more instruction-level parallelism.
    pub dependency_distance: u8,
}

impl WorkloadProfile {
    /// Checks that all fractions are in range and the footprints are
    /// non-degenerate.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let fracs = [
            ("load_frac", self.load_frac),
            ("store_frac", self.store_frac),
            ("branch_frac", self.branch_frac),
            ("fp_frac", self.fp_frac),
            ("mul_frac", self.mul_frac),
            ("branch_predictability", self.branch_predictability),
            ("hot_access_frac", self.hot_access_frac),
            ("stride_frac", self.stride_frac),
            ("dependent_load_frac", self.dependent_load_frac),
        ];
        for (name, v) in fracs {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(format!("{name} = {v} is outside [0, 1] for workload {}", self.name));
            }
        }
        if self.load_frac + self.store_frac + self.branch_frac > 1.0 {
            return Err(format!(
                "instruction mix sums to more than 1.0 for workload {}",
                self.name
            ));
        }
        if self.code_footprint_bytes < 64 {
            return Err(format!("code footprint too small for workload {}", self.name));
        }
        if self.data_footprint_bytes < 64 || self.hot_region_bytes < 64 {
            return Err(format!("data footprint too small for workload {}", self.name));
        }
        if self.hot_region_bytes > self.data_footprint_bytes {
            return Err(format!(
                "hot region larger than the data footprint for workload {}",
                self.name
            ));
        }
        if self.dependency_distance == 0 {
            return Err(format!("dependency distance must be >= 1 for workload {}", self.name));
        }
        if self.name.is_empty() {
            return Err("workload name must not be empty".to_string());
        }
        Ok(())
    }

    /// `true` for latency-sensitive workloads.
    pub fn is_latency_sensitive(&self) -> bool {
        self.class.is_latency_sensitive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> WorkloadProfile {
        WorkloadProfile {
            name: "test".to_string(),
            class: WorkloadClass::Batch,
            load_frac: 0.3,
            store_frac: 0.1,
            branch_frac: 0.15,
            fp_frac: 0.2,
            mul_frac: 0.05,
            code_footprint_bytes: 32 * 1024,
            branch_predictability: 0.95,
            data_footprint_bytes: 8 * 1024 * 1024,
            hot_region_bytes: 32 * 1024,
            hot_access_frac: 0.7,
            stride_frac: 0.4,
            dependent_load_frac: 0.1,
            dependency_distance: 8,
        }
    }

    #[test]
    fn valid_profile_passes() {
        assert!(valid().validate().is_ok());
    }

    #[test]
    fn out_of_range_fraction_rejected() {
        let mut p = valid();
        p.load_frac = 1.5;
        assert!(p.validate().is_err());
        let mut p = valid();
        p.dependent_load_frac = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn mix_exceeding_one_rejected() {
        let mut p = valid();
        p.load_frac = 0.5;
        p.store_frac = 0.4;
        p.branch_frac = 0.3;
        assert!(p.validate().is_err());
    }

    #[test]
    fn hot_region_must_fit_in_footprint() {
        let mut p = valid();
        p.hot_region_bytes = p.data_footprint_bytes * 2;
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_dependency_distance_rejected() {
        let mut p = valid();
        p.dependency_distance = 0;
        assert!(p.validate().is_err());
    }
}
