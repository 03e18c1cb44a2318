//! Umbrella crate for the Stretch (HPCA'19) reproduction.
//!
//! Workspace architecture — crate map, simulation layers, policy stack,
//! cache keys, where determinism is enforced: `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! This crate re-exports every sub-crate of the workspace so that examples,
//! integration tests and downstream users can depend on a single package:
//!
//! ```
//! use stretch_repro::prelude::*;
//!
//! let cfg = CoreConfig::default();
//! assert_eq!(cfg.rob_capacity, 192);
//! ```
//!
//! The individual crates are:
//!
//! * [`model`] — shared simulation types (micro-ops, configuration, RNG).
//! * [`stats`] — percentile / distribution / sampling statistics.
//! * [`mem`] — cache hierarchy, MSHRs, prefetcher, LLC and DRAM models.
//! * [`cpu`] — the T-thread SMT out-of-order core simulator, its per-core
//!   colocation policies and the server-level allocation policies above them.
//! * [`workloads`] — synthetic latency-sensitive and batch workload generators.
//! * [`stretch`] — the paper's contribution: asymmetric ROB/LSQ partitioning,
//!   its B-/Q-/baseline modes and the software QoS monitor that picks them.
//! * [`qos`] — request-level queueing simulation, latency percentiles, slack
//!   analysis (package `sim_qos`).
//! * [`baselines`] — fetch throttling, dynamic sharing, ideal software scheduling.
//! * [`cluster`] — diurnal load models, the analytical cluster case studies
//!   and the measured load-balanced fleet simulation, whose per-server
//!   Stretch monitors drive every simulated day (package `cluster_sim`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use baselines;
pub use cluster_sim as cluster;
pub use cpu_sim as cpu;
pub use mem_sim as mem;
pub use sim_model as model;
pub use sim_qos as qos;
pub use sim_stats as stats;
pub use stretch;
pub use workloads;

/// Commonly used items, suitable for glob import in examples.
pub mod prelude {
    pub use baselines::{DynamicSharing, FetchThrottling, HybridThrottleSkew, IdealScheduling};
    pub use cluster_sim::{CaseStudy, Fleet, FleetConfig, FleetScale, LoadBalancer};
    pub use cpu_sim::{
        AllocationPolicy, ColocationPolicy, ColocationResult, ColocationTopology, CoreSetup,
        EqualPartition, Greedy, Placement, PrivateCore, RoundRobin, Scenario, ServerScenario,
        ServerSpec, ServerThread, SimLength, SmtCore, SmtCoreBuilder, SymbiosisAware, ThreadSpec,
    };
    pub use sim_model::{CoreConfig, ThreadId, WorkloadClass};
    pub use stretch::{PinnedStretch, RobSkew, SoftwareMonitor, StretchConfig, StretchMode};
    pub use workloads::{batch, latency_sensitive, WorkloadProfile};
}
