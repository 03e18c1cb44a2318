//! The synthetic trace generator: turns a [`WorkloadProfile`] into a
//! deterministic, infinite micro-op stream implementing
//! [`sim_model::TraceGenerator`].
//!
//! The generator walks a synthetic code region (instruction addresses cover
//! the profile's code footprint, so big-code server workloads pressure the
//! L1-I), issues loads and stores over a two-level data layout (a hot region
//! that largely fits in the L1-D plus a cold footprint that spills into the
//! LLC partition or memory), and expresses data dependencies over a small
//! logical register file so the core model sees realistic ILP and MLP:
//! independent cold loads can overlap (high MLP, ROB-hungry), dependent
//! "pointer-chasing" loads serialise (low MLP, ROB-insensitive).

use crate::profile::WorkloadProfile;
use sim_model::uop::BranchInfo;
use sim_model::{MicroOp, OpKind, Reg, SimRng, TraceGenerator};

/// Register reserved for the pointer-chase chain.
const CHASE_REG: Reg = 1;
/// First general destination register.
const FIRST_DST: Reg = 4;
/// Number of general destination registers in rotation.
const NUM_DST: Reg = 48;
/// Ring size for tracking recently written registers.
const RECENT_RING: usize = 64;

#[inline]
fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A deterministic synthetic workload trace.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    profile: WorkloadProfile,
    rng: SimRng,
    code_base: u64,
    data_base: u64,
    hot_base: u64,
    pc: u64,
    stride_cursor: u64,
    dst_counter: u8,
    recent_dsts: [Reg; RECENT_RING],
    recent_head: usize,
}

impl SyntheticWorkload {
    /// Creates a generator for `profile` seeded by `seed`.
    ///
    /// Different workloads are placed in disjoint address regions (derived
    /// from the workload name) so that colocated threads never share data or
    /// code by accident.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`WorkloadProfile::validate`].
    pub fn new(profile: WorkloadProfile, seed: u64) -> SyntheticWorkload {
        profile.validate().unwrap_or_else(|e| panic!("invalid workload profile: {e}"));
        let name_hash = fnv1a(profile.name.as_bytes());
        // 4 GiB-aligned per-workload address spaces for code and data.
        let code_base = 0x1_0000_0000u64 + (name_hash % 512) * 0x1_0000_0000;
        let data_base = 0x200_0000_0000u64 + (name_hash % 512) * 0x4_0000_0000;
        let hot_base = data_base;
        let rng = SimRng::new(seed ^ name_hash);
        SyntheticWorkload {
            pc: code_base,
            stride_cursor: data_base + profile.hot_region_bytes,
            profile,
            rng,
            code_base,
            data_base,
            hot_base,
            dst_counter: 0,
            recent_dsts: [FIRST_DST; RECENT_RING],
            recent_head: 0,
        }
    }

    fn alloc_dst(&mut self) -> Reg {
        let reg = FIRST_DST + self.dst_counter % NUM_DST;
        self.dst_counter = self.dst_counter.wrapping_add(1);
        self.recent_head = (self.recent_head + 1) % RECENT_RING;
        self.recent_dsts[self.recent_head] = reg;
        reg
    }

    /// A source register written roughly `distance` instructions ago.
    fn src_at_distance(&self, distance: u8) -> Reg {
        let d = usize::from(distance).min(RECENT_RING - 1);
        let idx = (self.recent_head + RECENT_RING - d) % RECENT_RING;
        self.recent_dsts[idx]
    }

    fn advance_pc(&mut self) -> u64 {
        let footprint = self.profile.code_footprint_bytes;
        self.pc += 4;
        if self.pc >= self.code_base + footprint {
            self.pc = self.code_base;
        }
        self.pc
    }

    fn code_address(&mut self, key: u64) -> u64 {
        let footprint = self.profile.code_footprint_bytes;
        let offset = (fnv1a(&key.to_le_bytes()) % footprint.max(4)) & !3;
        self.code_base + offset
    }

    fn cold_address(&mut self) -> u64 {
        let p = &self.profile;
        if self.rng.chance(p.stride_frac) {
            // Sequential streaming through the cold region (prefetchable).
            self.stride_cursor += 64;
            if self.stride_cursor >= self.data_base + p.data_footprint_bytes {
                self.stride_cursor = self.data_base + p.hot_region_bytes;
            }
            self.stride_cursor
        } else {
            let cold_span = p.data_footprint_bytes - p.hot_region_bytes;
            self.data_base + p.hot_region_bytes + (self.rng.below(cold_span.max(64)) & !7)
        }
    }

    fn data_address(&mut self) -> u64 {
        let p = &self.profile;
        if self.rng.chance(p.hot_access_frac) {
            self.hot_base + (self.rng.below(p.hot_region_bytes) & !7)
        } else {
            self.cold_address()
        }
    }

    fn make_branch(&mut self, pc: u64) -> MicroOp {
        let predictable = {
            // Deterministic per-PC classification.
            let h = fnv1a(&pc.to_le_bytes());
            (h % 10_000) as f64 / 10_000.0 < self.profile.branch_predictability
        };
        let (taken, target) = if predictable {
            // Biased branch: direction and target are fixed functions of the PC.
            let h = fnv1a(&(pc ^ 0xABCD).to_le_bytes());
            let taken = h % 10 < 8; // 80% of predictable branches are taken
            let target = self.code_address(pc ^ 0x5555);
            (taken, target)
        } else {
            // Data-dependent branch: essentially random direction and target.
            let taken = self.rng.chance(0.5);
            let target_key = self.rng.next_u64();
            (taken, self.code_address(target_key))
        };
        if taken {
            self.pc = target;
        }
        let src = self.src_at_distance(self.profile.dependency_distance);
        MicroOp::branch(
            pc,
            BranchInfo { taken, target, is_call: false, is_return: false },
            [Some(src), None],
        )
    }

    fn make_load(&mut self, pc: u64) -> MicroOp {
        let p = &self.profile;
        if self.rng.chance(p.dependent_load_frac) {
            // Pointer chase: address producer is the previous chained load.
            let addr = self.cold_address();
            MicroOp::load(pc, addr, [Some(CHASE_REG), None], Some(CHASE_REG))
        } else {
            let addr = self.data_address();
            let src = self.src_at_distance(self.profile.dependency_distance);
            let dst = self.alloc_dst();
            MicroOp::load(pc, addr, [Some(src), None], Some(dst))
        }
    }

    fn make_store(&mut self, pc: u64) -> MicroOp {
        let addr = self.data_address();
        let data_src = self.src_at_distance(2);
        let addr_src = self.src_at_distance(self.profile.dependency_distance);
        MicroOp::store(pc, addr, [Some(data_src), Some(addr_src)])
    }

    fn make_compute(&mut self, pc: u64) -> MicroOp {
        let p = &self.profile;
        let kind = if self.rng.chance(p.fp_frac) {
            OpKind::Fp
        } else if self.rng.chance(p.mul_frac) {
            OpKind::IntMul
        } else {
            OpKind::IntAlu
        };
        let s1 = self.src_at_distance(self.profile.dependency_distance);
        let s2 = self.src_at_distance(self.profile.dependency_distance.saturating_mul(2).max(2));
        let dst = self.alloc_dst();
        MicroOp::alu(pc, kind, [Some(s1), Some(s2)], Some(dst))
    }
}

impl TraceGenerator for SyntheticWorkload {
    fn next_op(&mut self) -> MicroOp {
        let pc = self.advance_pc();
        let p = &self.profile;
        let r = self.rng.uniform_f64();
        let load_cut = p.load_frac;
        let store_cut = load_cut + p.store_frac;
        let branch_cut = store_cut + p.branch_frac;
        if r < load_cut {
            self.make_load(pc)
        } else if r < store_cut {
            self.make_store(pc)
        } else if r < branch_cut {
            self.make_branch(pc)
        } else {
            self.make_compute(pc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_model::WorkloadClass;

    fn profile(name: &str) -> WorkloadProfile {
        WorkloadProfile {
            name: name.to_string(),
            class: WorkloadClass::Batch,
            load_frac: 0.3,
            store_frac: 0.1,
            branch_frac: 0.15,
            fp_frac: 0.3,
            mul_frac: 0.05,
            code_footprint_bytes: 16 * 1024,
            branch_predictability: 0.9,
            data_footprint_bytes: 16 * 1024 * 1024,
            hot_region_bytes: 32 * 1024,
            hot_access_frac: 0.7,
            stride_frac: 0.3,
            dependent_load_frac: 0.1,
            dependency_distance: 8,
        }
    }

    #[test]
    fn stream_is_deterministic_for_a_seed() {
        let mut a = SyntheticWorkload::new(profile("det"), 42);
        let mut b = SyntheticWorkload::new(profile("det"), 42);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SyntheticWorkload::new(profile("det"), 1);
        let mut b = SyntheticWorkload::new(profile("det"), 2);
        let identical = (0..200).filter(|_| a.next_op() == b.next_op()).count();
        assert!(identical < 200);
    }

    #[test]
    fn all_ops_are_well_formed() {
        let mut w = SyntheticWorkload::new(profile("wf"), 3);
        for _ in 0..5000 {
            let op = w.next_op();
            assert!(op.is_well_formed(), "{op:?}");
        }
    }

    #[test]
    fn instruction_mix_roughly_matches_profile() {
        let p = profile("mix");
        let mut w = SyntheticWorkload::new(p.clone(), 11);
        let n = 50_000;
        let mut loads = 0;
        let mut stores = 0;
        let mut branches = 0;
        for _ in 0..n {
            match w.next_op().kind {
                OpKind::Load => loads += 1,
                OpKind::Store => stores += 1,
                OpKind::Branch => branches += 1,
                _ => {}
            }
        }
        let lf = loads as f64 / n as f64;
        let sf = stores as f64 / n as f64;
        let bf = branches as f64 / n as f64;
        assert!((lf - p.load_frac).abs() < 0.02, "load fraction {lf}");
        assert!((sf - p.store_frac).abs() < 0.02, "store fraction {sf}");
        assert!((bf - p.branch_frac).abs() < 0.02, "branch fraction {bf}");
    }

    #[test]
    fn pcs_stay_inside_the_code_footprint() {
        let p = profile("code");
        let mut w = SyntheticWorkload::new(p.clone(), 5);
        let base = w.code_base;
        for _ in 0..10_000 {
            let op = w.next_op();
            assert!(op.pc >= base && op.pc < base + p.code_footprint_bytes);
        }
    }

    #[test]
    fn data_addresses_stay_inside_the_data_footprint() {
        let p = profile("data");
        let mut w = SyntheticWorkload::new(p.clone(), 5);
        let base = w.data_base;
        for _ in 0..10_000 {
            if let Some(mem) = w.next_op().mem {
                assert!(
                    mem.addr >= base && mem.addr < base + p.data_footprint_bytes,
                    "address {:#x} outside [{:#x}, {:#x})",
                    mem.addr,
                    base,
                    base + p.data_footprint_bytes
                );
            }
        }
    }

    #[test]
    fn different_workload_names_use_disjoint_address_spaces() {
        let a = SyntheticWorkload::new(profile("alpha"), 1);
        let b = SyntheticWorkload::new(profile("beta"), 1);
        assert_ne!(a.code_base, b.code_base);
        assert_ne!(a.data_base, b.data_base);
    }

    #[test]
    fn dependent_loads_use_the_chase_register() {
        let mut p = profile("chase");
        p.dependent_load_frac = 1.0;
        p.load_frac = 1.0;
        p.store_frac = 0.0;
        p.branch_frac = 0.0;
        let mut w = SyntheticWorkload::new(p, 9);
        for _ in 0..100 {
            let op = w.next_op();
            assert_eq!(op.kind, OpKind::Load);
            assert_eq!(op.srcs[0], Some(CHASE_REG));
            assert_eq!(op.dst, Some(CHASE_REG));
        }
    }

    #[test]
    #[should_panic(expected = "invalid workload profile")]
    fn invalid_profile_panics_at_construction() {
        let mut p = profile("bad");
        p.load_frac = 2.0;
        let _ = SyntheticWorkload::new(p, 0);
    }
}
