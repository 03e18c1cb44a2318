//! Request-level queueing simulation and QoS slack analysis.
//!
//! Workspace architecture — crate map, simulation layers, policy stack,
//! cache keys, where determinism is enforced: `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! Section II of the paper establishes two facts on real hardware:
//!
//! 1. tail latency stays far below the QoS target until the load approaches
//!    the sustainable peak (Figure 1), because queueing — not processing
//!    time — dominates latency near saturation;
//! 2. consequently there is *slack*: at low to moderate load, a large
//!    fraction of single-thread performance can be sacrificed without
//!    violating the QoS target (Figure 2).
//!
//! This crate reproduces both studies with a discrete-event queueing
//! simulator whose per-request service times scale inversely with the
//! "performance fraction" delivered by the core — the quantity Stretch's
//! B-mode trades away.
//!
//! * [`service::ServiceSpec`] — the four latency-sensitive services of
//!   Table I (QoS target, tail metric, service-time distribution, and the
//!   [`service::ServiceSpec::slowdown`] mapping from delivered performance
//!   to service-time stretch shared with the fleet simulation).
//! * [`arrival`] — Poisson and bursty (two-state MMPP) open-loop arrivals,
//!   validated at construction ([`arrival::ArrivalProcess::validate`]). A
//!   generator is a rate-free draw ([`arrival::ArrivalDraws`]) fed to a
//!   rate-bound clock ([`arrival::ArrivalClock`]).
//! * [`queue`] — the request model: the FCFS queues of one or more servers
//!   over their worker threads ([`queue::ServerQueues`], stored worker-major
//!   so a least-loaded choice is one sweep) and the 12-step bisection that
//!   finds a peak sustainable load ([`queue::bisect_peak_rps`]), probing two
//!   steps at a time on two lanes.
//! * [`server::ServerSim`] — one server's run over a one-server
//!   [`queue::ServerQueues`], percentile collection.
//! * [`sweep`] — latency-versus-load curves (Figure 1).
//! * [`slack`] — minimum performance meeting QoS per load level (Figure 2).
//!
//! A run's randomness does not depend on its rate or its performance
//! fraction, so a search draws it once and replays it (common random
//! numbers): every arrival's `ln(1 − u)` and burst state, and every
//! request's log-normal service factor. Each replay forms the products a
//! live run forms — the rate's mean gap times the stored `ln`, the
//! stretched median times the stored factor — so it has the live run's
//! bits. The peak search and the Figure 1 and 2 curves each replay one
//! tape of a run (see [`server`]) at every probed rate, load point and
//! performance fraction, instead of redrawing the same seed each time.
//!
//! The `cluster_sim` crate scales this single-server model to a datacenter:
//! its fleet simulation dispatches one arrival stream over N servers held in
//! one [`queue::ServerQueues`] per shard, whose backlogs its load balancers
//! probe, finds the fleet's peak with [`queue::bisect_peak_rps`] over
//! probes that replay one tape of the same draws (the arrivals shared, the
//! service factors one copy per lane), and calibrates Stretch's engagement
//! thresholds from the tails the queueing model produces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod queue;
pub mod server;
pub mod service;
pub mod slack;
pub mod sweep;

pub use arrival::{ArrivalClock, ArrivalDraw, ArrivalDraws, ArrivalGenerator, ArrivalProcess};
pub use queue::{bisect_peak_rps, ServerQueues};
pub use server::{LatencySummary, ServerSim, SimParams};
pub use service::{ServiceSpec, TailMetric};
pub use slack::{slack_curve, SlackPoint};
pub use sweep::{latency_vs_load, LoadPoint};
