//! Comparison systems evaluated against Stretch — each a one-file
//! implementation of [`cpu_sim::ColocationPolicy`].
//!
//! Workspace architecture — crate map, simulation layers, policy stack,
//! cache keys, where determinism is enforced: `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! The paper's framing is that all of these mechanisms are interchangeable
//! resource-allocation policies over the same SMT core; this crate makes
//! them literally interchangeable values. Each is nothing more than the
//! [`cpu_sim::CoreSetup`] it programs, and the experiment engine caches a
//! cell by that setup, so a baseline that programs the same core as another
//! policy shares its cells. Run any of them through [`cpu_sim::Scenario`]
//! (`Scenario::colocate(ls, batch).policy(p).run()`) or the experiment
//! engine's colocation matrix:
//!
//! * [`DynamicSharing`] — a dynamically shared ROB (no partitioning at all),
//!   the Figure 11 configuration;
//! * [`FetchThrottling`] — front-end control: the latency-sensitive thread
//!   receives one fetch cycle for every `M` given to the batch thread
//!   (Figure 12), as on IBM POWER;
//! * [`IdealScheduling`] — idealised software scheduling (SMiTe-style):
//!   contention in all dynamically shared structures is assumed away by
//!   giving each thread private L1s and branch predictor (Figure 13), with
//!   an optional Stretch skew layered on top for the combined bar. Without
//!   the skew it programs the same core as Figure 5's ROB-only
//!   configuration (`cpu_sim::StudiedResource::Rob`), so the two share
//!   their cells;
//! * [`HybridThrottleSkew`] — *not* a paper configuration: fetch throttling
//!   layered on a Stretch ROB skew, added as the demonstration that a new
//!   policy is a one-file change.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamic_sharing;
pub mod fetch_throttling;
pub mod hybrid;
pub mod ideal_scheduling;

pub use dynamic_sharing::DynamicSharing;
pub use fetch_throttling::{FetchThrottling, FETCH_THROTTLING_RATIOS};
pub use hybrid::HybridThrottleSkew;
pub use ideal_scheduling::IdealScheduling;
