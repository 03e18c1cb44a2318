//! Memory hierarchy model for the Stretch (HPCA'19) reproduction.
//!
//! Workspace architecture — crate map, simulation layers, policy stack,
//! cache keys, where determinism is enforced: `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! The hierarchy matches Table II of the paper:
//!
//! * split 64 KB, 8-way, 2-bank L1 instruction and data caches with LRU
//!   replacement;
//! * 10 data MSHRs, statically split 5 per hardware thread;
//! * a stride prefetcher tracking up to 32 load/store PCs;
//! * an 8 MB, 16-way NUCA LLC reached over a mesh (28-cycle average access),
//!   way-partitioned between the two threads to mirror the paper's use of
//!   cache partitioning for LLC isolation;
//! * 75 ns main memory.
//!
//! The L1 caches (and, in the core crate, the branch predictor) can be
//! configured as *shared* between the two SMT threads or *private per thread*
//! — the latter is used by the per-resource contention study (Figures 4/5)
//! and by the "ideal software scheduling" baseline (Figure 13).
//!
//! # Example
//!
//! ```
//! use mem_sim::{MemoryHierarchy, HierarchyConfig, LoadResult};
//! use sim_model::{CoreConfig, ThreadId};
//!
//! let cfg = CoreConfig::default();
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::from_core(&cfg, 2));
//! match mem.load(ThreadId::T0, 0x1000, 0x400, 0) {
//!     LoadResult::Hit { .. } | LoadResult::Miss { .. } | LoadResult::NoMshr => {}
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod mshr;
pub mod prefetch;

pub use cache::{CacheStats, SetAssocCache, Sharing};
pub use hierarchy::{HierarchyConfig, HierarchyStats, LoadResult, MemoryHierarchy};
pub use mshr::MshrFile;
pub use prefetch::StridePrefetcher;
