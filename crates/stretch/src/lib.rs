//! **Stretch** — software-controlled asymmetric ROB/LSQ partitioning for SMT
//! cores (Margaritov et al., HPCA 2019).
//!
//! Workspace architecture — crate map, simulation layers, policy stack,
//! cache keys, where determinism is enforced: `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! Stretch exploits the performance slack of latency-sensitive services
//! running below peak load: system software can shift reorder-buffer (and,
//! proportionally, load/store-queue) capacity from the latency-sensitive
//! hardware thread to a co-running batch thread, boosting batch throughput
//! without violating QoS targets. The mechanism is a handful of ROB
//! partitioning configurations provisioned at design time; the policy is a
//! CPI²-style software monitor driven by the service's tail latency that
//! picks among them.
//!
//! To the rest of the repository, a pinned Stretch mode is just another
//! [`cpu_sim::ColocationPolicy`] — the same interface every baseline
//! implements, and like each of them nothing more than the core setup it
//! programs — and runs through the same [`cpu_sim::Scenario`] entry point:
//!
//! * [`policy`] — [`PinnedStretch`] (one mode for a whole run; what the
//!   evaluation figures sweep). Its skew gives the small share to the thread
//!   the [`cpu_sim::ColocationTopology`] marks latency-sensitive.
//! * [`config`] — ROB skews ([`RobSkew`]), the provisioned configuration set
//!   ([`StretchConfig`]) and the runtime mode ([`StretchMode`]:
//!   Baseline / B-mode / Q-mode), plus the mapping onto the partition
//!   limit registers of an SMT-T core. Engaging a mode on a live core is
//!   `SmtCore::set_partition(mode.partition_policy(cfg, threads, ls_thread),
//!   true)`, which charges the mode-change pipeline flush.
//! * [`monitor`] — the software monitor ([`SoftwareMonitor`]): sliding-window
//!   QoS tracking, hysteresis, B-/Q-mode engagement and the co-runner
//!   throttling fallback. It is the one closed loop: the cluster layer's
//!   fleet simulation (`cluster_sim::Fleet`) runs one per server over a
//!   simulated day and feeds it each interval's measured tail directly.
//! * [`table`] — per-mode performance numbers ([`PerformanceTable`]): what
//!   each mode leaves the latency-sensitive thread and buys the batch
//!   thread, the input a fleet day is charged against.
//!
//! # Example
//!
//! ```
//! use cpu_sim::ColocationPolicy;
//! use stretch::{PinnedStretch, RobSkew, StretchMode};
//! use sim_model::{CoreConfig, ThreadId};
//!
//! let cfg = CoreConfig::default();
//! let policy = PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode()));
//! let setup = policy.setup(&cfg);
//! assert_eq!(setup.partition.rob_limit(&cfg, ThreadId::T0), 56);
//! assert_eq!(setup.partition.rob_limit(&cfg, ThreadId::T1), 136);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod monitor;
pub mod policy;
pub mod table;

pub use config::{RobSkew, StretchConfig, StretchMode};
pub use monitor::{MonitorAction, MonitorConfig, SoftwareMonitor};
pub use policy::PinnedStretch;
pub use table::{ModePerformance, PerformanceTable};
