//! Cycle-level SMT-T out-of-order core model for the Stretch (HPCA'19)
//! reproduction.
//!
//! Workspace architecture — crate map, simulation layers, policy stack,
//! cache keys, where determinism is enforced: `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! The crate provides:
//!
//! * [`core::SmtCore`] / [`core::SmtCoreBuilder`] — the Table II core,
//!   generalised to T hardware threads (T ≥ 1, default the paper's SMT
//!   pair): 6-wide out-of-order pipeline, hybrid branch prediction, shared
//!   or private L1 caches, a 192-entry ROB and 64-entry LSQ with per-thread
//!   limit/usage partition registers, and ICOUNT/round-robin/fetch-throttled
//!   thread selection.
//! * [`partition::PartitionPolicy`] — the limit-register programming model
//!   that Stretch's modes program, as per-thread share vectors.
//! * [`fetch::FetchPolicy`] — ICOUNT, round-robin and 1:M fetch throttling.
//! * [`policy`] — the [`ColocationPolicy`] trait every resource-allocation
//!   scheme (Stretch and every baseline) implements: the [`CoreSetup`] it
//!   programs for a [`ColocationTopology`] (SMT width + which thread is the
//!   latency-sensitive one, the only place that thread is named). That setup
//!   is all a policy is to a run and to the result store, and a
//!   [`CoreSetup`] is itself a policy. The module also holds the static
//!   [`EqualPartition`] / [`PrivateCore`] policies.
//! * [`allocation`] — the [`AllocationPolicy`] layer *above* colocation:
//!   which threads land on which core of an M-core server, with
//!   [`Greedy`] / [`RoundRobin`] / [`SymbiosisAware`] reference allocators
//!   (each with a result-store identity; a [`Placement`] is itself an
//!   allocator) and the [`ServerScenario`] runner composing both layers.
//! * [`scenario`] — the [`Scenario`] builder, the single entry point for
//!   stand-alone and colocated runs of [`sim_model::TraceSource`] workloads
//!   under any policy.
//! * [`runner`] — the measurement loop ([`run_core`]) and the UIPC figure of
//!   merit the scenario layer is built on.
//! * [`resource_study`] — the "share exactly one resource" configurations of
//!   Figures 4 and 5, themselves policies.
//!
//! # Example
//!
//! A workload reaches a run as a [`sim_model::TraceSource`]: a name plus a
//! recipe for its micro-op stream at a seed the scenario derives.
//!
//! ```
//! use cpu_sim::{Scenario, SimLength};
//! use sim_model::{BoxedTrace, MicroOp, OpKind, TraceGenerator, TraceSource};
//!
//! struct Spin(u64);
//! impl TraceGenerator for Spin {
//!     fn next_op(&mut self) -> MicroOp {
//!         self.0 += 4;
//!         MicroOp::alu(0x1000 + self.0 % 256, OpKind::IntAlu, [None, None], Some(1))
//!     }
//! }
//!
//! struct SpinLoop;
//! impl TraceSource for SpinLoop {
//!     fn source_name(&self) -> &str { "spin" }
//!     fn spawn_trace(&self, _seed: u64) -> BoxedTrace { Box::new(Spin(0)) }
//! }
//!
//! let result = Scenario::standalone(SpinLoop).length(SimLength::quick()).run_thread0();
//! assert_eq!(result.name, "spin");
//! assert!(result.uipc > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod branch;
pub mod core;
pub mod fetch;
pub mod partition;
pub mod policy;
pub mod resource_study;
pub mod runner;
pub mod scenario;

pub use crate::core::{SmtCore, SmtCoreBuilder, ThreadStats};
pub use allocation::{
    AllocationPolicy, Greedy, Placement, RoundRobin, ServerRunResult, ServerScenario, ServerSpec,
    ServerThread, SymbiosisAware, ThreadSpec,
};
pub use branch::{BranchPredictor, BranchStats, Prediction};
pub use fetch::{FetchPolicy, FetchScheduler};
pub use partition::PartitionPolicy;
pub use policy::{ColocationPolicy, ColocationTopology, EqualPartition, PrivateCore};
pub use resource_study::StudiedResource;
pub use runner::{run_core, ColocationResult, CoreSetup, SimLength, ThreadRunResult};
pub use scenario::{colocation_seed, pair_seed, Scenario};
