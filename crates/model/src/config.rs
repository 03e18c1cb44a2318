//! Processor configuration structures.
//!
//! The defaults reproduce Table II of the paper: a 6-wide dual-threaded SMT
//! out-of-order core at 2.5 GHz with a 192-entry ROB, 64-entry LSQ, 64 KB L1
//! caches, a hybrid branch predictor, a stride prefetcher, an 8 MB NUCA LLC
//! and 75 ns memory.

/// L1 cache geometry and behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Line (block) size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Number of banks (each bank supplies one block per cycle).
    pub banks: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// 64 KB, 64 B lines, 8-way, 2 banks — the Table II L1 configuration.
    pub fn l1_default() -> CacheConfig {
        CacheConfig { capacity_bytes: 64 * 1024, line_bytes: 64, ways: 8, banks: 2, hit_latency: 2 }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible by
    /// `ways * line_bytes`).
    pub fn sets(&self) -> usize {
        let denom = self.ways * self.line_bytes;
        assert!(
            denom > 0 && self.capacity_bytes.is_multiple_of(denom),
            "inconsistent cache geometry {self:?}"
        );
        self.capacity_bytes / denom
    }
}

/// Branch prediction structures (Table II front-end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchPredictorConfig {
    /// gShare table entries (16 K in Table II).
    pub gshare_entries: usize,
    /// Bimodal table entries (4 K in Table II).
    pub bimodal_entries: usize,
    /// Chooser (meta-predictor) entries.
    pub chooser_entries: usize,
    /// Branch target buffer entries (2 K in Table II).
    pub btb_entries: usize,
    /// Return address stack depth per thread.
    pub ras_depth: usize,
    /// Global history length in bits.
    pub history_bits: usize,
}

impl Default for BranchPredictorConfig {
    fn default() -> BranchPredictorConfig {
        BranchPredictorConfig {
            gshare_entries: 16 * 1024,
            bimodal_entries: 4 * 1024,
            chooser_entries: 4 * 1024,
            btb_entries: 2 * 1024,
            ras_depth: 16,
            history_bits: 12,
        }
    }
}

/// Functional unit mix (Table II back-end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Simple integer ALUs.
    pub int_alu: usize,
    /// Integer multipliers.
    pub int_mul: usize,
    /// Floating-point units.
    pub fpu: usize,
    /// Load/store units.
    pub lsu: usize,
}

impl Default for FuConfig {
    fn default() -> FuConfig {
        FuConfig { int_alu: 4, int_mul: 2, fpu: 3, lsu: 2 }
    }
}

/// Uncore (LLC + NoC + memory) timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncoreConfig {
    /// LLC capacity in bytes (8 MB NUCA in Table II). Partitioned equally
    /// between the two hardware threads to mirror the paper's use of cache
    /// partitioning (Intel CAT) to isolate LLC working sets.
    pub llc_capacity_bytes: usize,
    /// LLC associativity.
    pub llc_ways: usize,
    /// Average LLC access latency in cycles (28 in Table II, including NoC).
    pub llc_latency: u64,
    /// NoC hop latency in cycles (3 per hop in Table II).
    pub noc_hop_latency: u64,
    /// Memory access latency in nanoseconds (75 ns in Table II).
    pub mem_latency_ns: f64,
    /// Core clock frequency in GHz (2.5 in Table II).
    pub freq_ghz: f64,
}

impl Default for UncoreConfig {
    fn default() -> UncoreConfig {
        UncoreConfig {
            llc_capacity_bytes: 8 * 1024 * 1024,
            llc_ways: 16,
            llc_latency: 28,
            noc_hop_latency: 3,
            mem_latency_ns: 75.0,
            freq_ghz: 2.5,
        }
    }
}

impl UncoreConfig {
    /// Memory access latency converted to core cycles.
    pub fn mem_latency_cycles(&self) -> u64 {
        (self.mem_latency_ns * self.freq_ghz).round() as u64
    }
}

/// Full core configuration. Defaults reproduce Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle (6 in Table II).
    pub fetch_width: usize,
    /// Cache blocks that can be fetched per cycle (2 in Table II).
    pub fetch_blocks_per_cycle: usize,
    /// Branches that can be fetched per cycle (1 in Table II).
    pub fetch_branches_per_cycle: usize,
    /// Decode/dispatch width (6 in Table II).
    pub dispatch_width: usize,
    /// Issue width (bounded by functional units as well).
    pub issue_width: usize,
    /// Commit width (6 in Table II).
    pub commit_width: usize,
    /// Total ROB capacity across both threads (192 in Table II).
    pub rob_capacity: usize,
    /// Total LSQ capacity across both threads (64 in Table II).
    pub lsq_capacity: usize,
    /// Pipeline flush / redirect penalty in cycles (12 in Table II).
    pub pipeline_flush_cycles: u64,
    /// MSHRs per thread in the L1-D (5 per thread in Table II).
    pub mshrs_per_thread: usize,
    /// Maximum load/store PCs tracked by the stride prefetcher (32 in Table II).
    pub prefetcher_pc_slots: usize,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Branch prediction structures.
    pub branch: BranchPredictorConfig,
    /// Functional unit mix.
    pub fus: FuConfig,
    /// Uncore timing.
    pub uncore: UncoreConfig,
    /// Per-thread fetch/decode buffer capacity.
    pub fetch_buffer_entries: usize,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            fetch_width: 6,
            fetch_blocks_per_cycle: 2,
            fetch_branches_per_cycle: 1,
            dispatch_width: 6,
            issue_width: 8,
            commit_width: 6,
            rob_capacity: 192,
            lsq_capacity: 64,
            pipeline_flush_cycles: 12,
            mshrs_per_thread: 5,
            prefetcher_pc_slots: 32,
            l1i: CacheConfig::l1_default(),
            l1d: CacheConfig::l1_default(),
            branch: BranchPredictorConfig::default(),
            fus: FuConfig::default(),
            uncore: UncoreConfig::default(),
            fetch_buffer_entries: 24,
        }
    }
}

impl CoreConfig {
    /// Scales the LSQ partition in proportion to a ROB partition, as the
    /// paper does ("we also manage the LSQ in proportion to the ROB", §IV).
    ///
    /// The result is clamped to at least 4 entries so a thread can always
    /// make forward progress on memory operations.
    pub fn lsq_entries_for_rob(&self, rob_entries: usize) -> usize {
        if self.rob_capacity == 0 {
            return 0;
        }
        let scaled = rob_entries * self.lsq_capacity / self.rob_capacity;
        scaled.max(4).min(self.lsq_capacity)
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency found
    /// (zero widths, ROB smaller than two entries, cache geometry mismatch,
    /// an L1 line size other than the hierarchy's 64-byte block).
    pub fn validate(&self) -> Result<(), String> {
        if self.fetch_width == 0 || self.dispatch_width == 0 || self.commit_width == 0 {
            return Err("pipeline widths must be non-zero".to_string());
        }
        if self.rob_capacity < 2 {
            return Err(format!("ROB capacity {} too small for two threads", self.rob_capacity));
        }
        if self.lsq_capacity < 2 {
            return Err(format!("LSQ capacity {} too small for two threads", self.lsq_capacity));
        }
        for (name, c) in [("l1i", &self.l1i), ("l1d", &self.l1d)] {
            let denom = c.ways * c.line_bytes;
            if denom == 0 || c.capacity_bytes % denom != 0 {
                return Err(format!("{name} geometry inconsistent: {c:?}"));
            }
            // The hierarchy fills both L1s with 64-byte block numbers
            // (`addr >> 6`) and the fetch stage groups pcs by `pc >> 6`, so
            // a cache indexing by any other line size would never hit.
            if c.line_bytes != 64 {
                return Err(format!(
                    "{name} line size {} B is unsupported: the memory hierarchy uses 64 B blocks",
                    c.line_bytes
                ));
            }
        }
        if self.fus.int_alu == 0 || self.fus.lsu == 0 {
            return Err("need at least one integer ALU and one LSU".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let c = CoreConfig::default();
        assert_eq!(c.fetch_width, 6);
        assert_eq!(c.rob_capacity, 192);
        assert_eq!(c.lsq_capacity, 64);
        assert_eq!(c.pipeline_flush_cycles, 12);
        assert_eq!(c.mshrs_per_thread, 5);
        assert_eq!(c.l1i.capacity_bytes, 64 * 1024);
        assert_eq!(c.l1d.ways, 8);
        assert_eq!(c.branch.gshare_entries, 16 * 1024);
        assert_eq!(c.branch.btb_entries, 2 * 1024);
        assert_eq!(c.fus.int_alu, 4);
        assert_eq!(c.fus.fpu, 3);
        assert_eq!(c.uncore.llc_capacity_bytes, 8 * 1024 * 1024);
        assert_eq!(c.uncore.llc_latency, 28);
        assert!((c.uncore.mem_latency_ns - 75.0).abs() < f64::EPSILON);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn memory_latency_in_cycles() {
        let u = UncoreConfig::default();
        // 75 ns at 2.5 GHz = 187.5 -> 188 cycles.
        assert_eq!(u.mem_latency_cycles(), 188);
    }

    #[test]
    fn lsq_scales_with_rob() {
        let c = CoreConfig::default();
        assert_eq!(c.lsq_entries_for_rob(96), 32);
        assert_eq!(c.lsq_entries_for_rob(192), 64);
        assert_eq!(c.lsq_entries_for_rob(48), 16);
        // Clamped to a useful minimum.
        assert!(c.lsq_entries_for_rob(4) >= 4);
    }

    #[test]
    fn validation_rejects_broken_configs() {
        let c = CoreConfig { rob_capacity: 1, ..CoreConfig::default() };
        assert!(c.validate().is_err());

        let mut c = CoreConfig::default();
        c.l1d.capacity_bytes = 1000; // not divisible by ways*line
        assert!(c.validate().is_err());

        let mut c = CoreConfig::default();
        c.fus.lsu = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_l1_lines_other_than_64_bytes() {
        for line_bytes in [32, 128] {
            for name in ["l1i", "l1d"] {
                let mut c = CoreConfig::default();
                let cache = if name == "l1i" { &mut c.l1i } else { &mut c.l1d };
                cache.line_bytes = line_bytes;
                let err = c.validate().expect_err("only 64-byte L1 lines can hit");
                assert!(
                    err.starts_with(&format!("{name} line size {line_bytes} B")),
                    "the message must name the cache: {err}"
                );
            }
        }
    }

    #[test]
    fn cache_sets_computed() {
        let c = CacheConfig::l1_default();
        assert_eq!(c.sets(), 64 * 1024 / (8 * 64));
    }
}
