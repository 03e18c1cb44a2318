//! Cluster-level impact of Stretch (§VI-D, Figure 14) — analytical *and*
//! measured.
//!
//! Workspace architecture — crate map, simulation layers, policy stack,
//! cache keys, where determinism is enforced: `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! The paper closes with two deployment case studies: a Web Search cluster
//! whose load stays below 85% of peak for about 11 hours a day, and a
//! YouTube-like video cluster below 85% for about 17 hours a day. During
//! those hours Stretch's B-mode can be engaged, and the colocated batch
//! jobs run ~11–13% faster; averaged over 24 hours this yields ~5% and ~11%
//! cluster throughput gains respectively.
//!
//! This crate reproduces those numbers twice, by two independent routes:
//!
//! * [`case_study`] — the paper's own *accounting*: hours below the
//!   engagement threshold × B-mode batch speedup
//!   ([`CaseStudy`], the analytical cross-check).
//! * [`fleet`] — a *measured* datacenter run: [`Fleet`] simulates N servers
//!   behind a pluggable [`LoadBalancer`], each running its own
//!   [`stretch::SoftwareMonitor`] fed by the tail latency of its own
//!   requests, under a diurnal-modulated open-loop arrival stream.
//!   Engagement is decided by measurement and hysteresis, the fleet
//!   reports measured tail percentiles, and the resulting 24-hour batch
//!   gain lands within two percentage points of the accounting
//!   (`tests/fleet.rs` pins this).
//! * [`topology`] — the shape arguments of [`CaseStudy::fleet_with`]: the
//!   cluster → rack → server organisation ([`FleetTopology`], a flat fleet
//!   being one rack) and the tail-retention policy ([`TailAccumulation`])
//!   that let a fleet scale to 10k servers: racks dispatch independently,
//!   so they shard across worker threads ([`Fleet::run_with_workers`])
//!   with a bit-exact deterministic merge.
//! * [`diurnal`] — the parametric diurnal load curves of Figure 14 shared
//!   by both routes (shapes from Meisner et al. and Gill et al.), and the
//!   15-minute control interval ([`INTERVAL_HOURS`]) both routes step by.
//!
//! The fleet is the repository's one closed-loop day simulator: every
//! route from the Stretch monitor to a simulated day — the measured
//! Figure 14, the `fleet` binary, the fleet examples — builds a [`Fleet`],
//! of one server or ten thousand. [`CaseStudy::fleet`] fills its per-mode
//! [`stretch::PerformanceTable`] with the paper's headline numbers and the
//! study's B-mode batch speedup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case_study;
pub mod diurnal;
pub mod fleet;
pub mod topology;

pub use case_study::{CaseStudy, CaseStudyReport};
pub use diurnal::{day_steps, DiurnalPattern, LoadSample, INTERVAL_HOURS};
pub use fleet::{
    calibrated_monitor_with_peak, measured_peak_rps, rack_seed, server_seed, Fleet, FleetConfig,
    FleetIntervalReport, FleetReport, FleetScale, LoadBalancer, ServerSummary,
};
pub use topology::{FleetTopology, TailAccumulation};
