//! Micro-op representation shared between workload generators and the core.
//!
//! The reproduction is trace-driven: workload models emit a deterministic
//! stream of [`MicroOp`]s carrying explicit register dependencies, memory
//! addresses and branch outcomes. The SMT core model consumes them, applying
//! the structural and timing constraints of Table II (ROB/LSQ occupancy,
//! functional-unit mix, cache/MSHR behaviour, branch prediction).

use crate::Reg;
use std::fmt;

/// Functional class of a micro-op. Determines which functional unit executes
/// it and its execution latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Simple integer ALU operation (1-cycle latency, 4 units in Table II).
    IntAlu,
    /// Integer multiply/divide (3-cycle latency, 2 units).
    IntMul,
    /// Floating-point operation (4-cycle latency, 3 units).
    Fp,
    /// Memory load (issues to an LSU, completes when data returns).
    Load,
    /// Memory store (issues to an LSU, commits to memory at retirement).
    Store,
    /// Conditional or unconditional branch (1-cycle ALU latency; mispredicts
    /// flush the pipeline).
    Branch,
}

impl OpKind {
    /// `true` for loads and stores.
    pub fn is_mem(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// `true` for branches.
    pub fn is_branch(self) -> bool {
        matches!(self, OpKind::Branch)
    }

    /// Fixed execution latency in cycles, excluding memory access time.
    pub fn exec_latency(self) -> u64 {
        match self {
            OpKind::IntAlu | OpKind::Branch => 1,
            OpKind::IntMul => 3,
            OpKind::Fp => 4,
            OpKind::Load | OpKind::Store => 1, // address generation; memory time added separately
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::IntAlu => "int",
            OpKind::IntMul => "mul",
            OpKind::Fp => "fp",
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::Branch => "branch",
        };
        f.write_str(s)
    }
}

/// Kind of memory access carried by a load or store micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Read.
    Read,
    /// Write.
    Write,
}

/// A memory access: byte address plus access kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Virtual byte address accessed.
    pub addr: u64,
    /// Read or write.
    pub kind: MemKind,
}

impl MemAccess {
    /// Cache-block address (64-byte blocks).
    pub fn block(&self) -> u64 {
        self.addr >> 6
    }
}

/// Branch metadata attached to [`OpKind::Branch`] micro-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Actual outcome of the branch (taken or not).
    pub taken: bool,
    /// Target program counter when taken.
    pub target: u64,
    /// `true` for call-like branches that push the return address stack.
    pub is_call: bool,
    /// `true` for return-like branches that pop the return address stack.
    pub is_return: bool,
}

/// One micro-op of a workload's dynamic instruction stream.
///
/// Register dependencies are expressed over a small per-thread logical
/// register file ([`crate::NUM_LOGICAL_REGS`]); the core resolves them to
/// producing in-flight instructions at dispatch time, which captures true
/// data dependencies (and hence ILP/MLP) without modelling a full renamer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroOp {
    /// Program counter of the instruction (used for I-cache and branch
    /// predictor indexing).
    pub pc: u64,
    /// Functional class.
    pub kind: OpKind,
    /// Up to two source registers.
    pub srcs: [Option<Reg>; 2],
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Memory access performed, for loads and stores.
    pub mem: Option<MemAccess>,
    /// Branch metadata, for branches.
    pub branch: Option<BranchInfo>,
}

impl MicroOp {
    /// Constructs a register-to-register ALU micro-op.
    pub fn alu(pc: u64, kind: OpKind, srcs: [Option<Reg>; 2], dst: Option<Reg>) -> MicroOp {
        debug_assert!(!kind.is_mem() && !kind.is_branch());
        MicroOp { pc, kind, srcs, dst, mem: None, branch: None }
    }

    /// Constructs a load micro-op reading `addr` into `dst`.
    pub fn load(pc: u64, addr: u64, srcs: [Option<Reg>; 2], dst: Option<Reg>) -> MicroOp {
        MicroOp {
            pc,
            kind: OpKind::Load,
            srcs,
            dst,
            mem: Some(MemAccess { addr, kind: MemKind::Read }),
            branch: None,
        }
    }

    /// Constructs a store micro-op writing `addr`.
    pub fn store(pc: u64, addr: u64, srcs: [Option<Reg>; 2]) -> MicroOp {
        MicroOp {
            pc,
            kind: OpKind::Store,
            srcs,
            dst: None,
            mem: Some(MemAccess { addr, kind: MemKind::Write }),
            branch: None,
        }
    }

    /// Constructs a branch micro-op.
    pub fn branch(pc: u64, info: BranchInfo, srcs: [Option<Reg>; 2]) -> MicroOp {
        MicroOp { pc, kind: OpKind::Branch, srcs, dst: None, mem: None, branch: Some(info) }
    }

    /// `true` if this micro-op reads or writes memory.
    pub fn is_mem(&self) -> bool {
        self.kind.is_mem()
    }

    /// `true` if this micro-op is a branch.
    pub fn is_branch(&self) -> bool {
        self.kind.is_branch()
    }

    /// Checks internal consistency: memory ops carry an address, branches
    /// carry branch info, and nothing else does.
    pub fn is_well_formed(&self) -> bool {
        let mem_ok = self.kind.is_mem() == self.mem.is_some();
        let br_ok = self.kind.is_branch() == self.branch.is_some();
        let store_dst_ok = self.kind != OpKind::Store || self.dst.is_none();
        mem_ok && br_ok && store_dst_ok
    }
}

pub use self::BranchInfo as Branch;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_produce_well_formed_ops() {
        let a = MicroOp::alu(0x100, OpKind::IntAlu, [Some(1), Some(2)], Some(3));
        let l = MicroOp::load(0x104, 0xdead_beef, [Some(3), None], Some(4));
        let s = MicroOp::store(0x108, 0xdead_bee0, [Some(4), Some(1)]);
        let b = MicroOp::branch(
            0x10c,
            BranchInfo { taken: true, target: 0x200, is_call: false, is_return: false },
            [Some(4), None],
        );
        for op in [a, l, s, b] {
            assert!(op.is_well_formed(), "{op:?} should be well-formed");
        }
    }

    #[test]
    fn block_address_strips_offset() {
        let m = MemAccess { addr: 0x1240, kind: MemKind::Read };
        assert_eq!(m.block(), 0x1240 >> 6);
        let m2 = MemAccess { addr: 0x1240 + 63, kind: MemKind::Read };
        assert_eq!(m.block(), m2.block());
        let m3 = MemAccess { addr: 0x1240 + 64, kind: MemKind::Read };
        assert_ne!(m.block(), m3.block());
    }

    #[test]
    fn latency_by_kind() {
        assert_eq!(OpKind::IntAlu.exec_latency(), 1);
        assert_eq!(OpKind::IntMul.exec_latency(), 3);
        assert_eq!(OpKind::Fp.exec_latency(), 4);
    }

    #[test]
    fn malformed_op_detected() {
        let bad = MicroOp {
            pc: 0,
            kind: OpKind::Load,
            srcs: [None, None],
            dst: None,
            mem: None, // load without address
            branch: None,
        };
        assert!(!bad.is_well_formed());
    }
}
