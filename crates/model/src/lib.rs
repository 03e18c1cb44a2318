//! Shared simulation types for the Stretch (HPCA'19) reproduction.
//!
//! Workspace architecture — crate map, simulation layers, policy stack,
//! cache keys, where determinism is enforced: `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! This crate holds everything that more than one simulator crate needs:
//!
//! * [`uop`] — the micro-op representation emitted by workload generators and
//!   consumed by the core model ([`MicroOp`], [`OpKind`], [`MemAccess`]).
//! * [`config`] — processor configuration structures whose defaults reproduce
//!   Table II of the paper ([`CoreConfig`], [`CacheConfig`], [`UncoreConfig`]).
//! * [`rng`] — a small deterministic PRNG ([`SimRng`]) plus samplers
//!   (exponential, log-normal, geometric) used for reproducible workload
//!   generation.
//! * [`parallel`] — the order-preserving worker pool ([`parallel_fold`],
//!   [`parallel_map`]) the fleet simulator and the experiment engine fan
//!   work out through.
//! * [`ids`] — strongly-typed identifiers ([`ThreadId`], [`WorkloadClass`]).
//! * [`trace`] — the [`TraceGenerator`] stream workload models implement
//!   (one method, `next_op`), and the [`TraceSource`] recipe through which
//!   every workload reaches a run: a name plus a stream per seed.
//!
//! # Example
//!
//! ```
//! use sim_model::CoreConfig;
//!
//! let cfg = CoreConfig::default();
//! assert_eq!(cfg.rob_capacity, 192);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
pub mod config;
pub mod ids;
pub mod parallel;
pub mod rng;
pub mod trace;
pub mod uop;

pub use canon::{CanonicalKey, KeyEncoder};
pub use config::{BranchPredictorConfig, CacheConfig, CoreConfig, FuConfig, UncoreConfig};
pub use ids::{ThreadId, WorkloadClass};
pub use parallel::{parallel_fold, parallel_map};
pub use rng::SimRng;
pub use trace::{BoxedTrace, TraceGenerator, TraceSource};
pub use uop::{MemAccess, MemKind, MicroOp, OpKind};

/// A cycle count. All simulator timestamps use this type.
pub type Cycle = u64;

/// A logical (architectural) register index inside a thread.
///
/// Workload generators emit dependencies over a small logical register file;
/// the core model maps them to producing ROB entries at dispatch time.
pub type Reg = u8;

/// Number of logical registers visible to workload generators.
pub const NUM_LOGICAL_REGS: usize = 64;
