//! Experiment harness for the Stretch (HPCA'19) reproduction.
//!
//! Workspace architecture — crate map, simulation layers, policy stack,
//! cache keys, where determinism is enforced: `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! The `figures` driver binary regenerates any subset of the paper's
//! evaluation in a single process (`figures figure03` renders one figure);
//! the `tables` binary prints Tables I-III, also as JSON. This library holds
//! the shared machinery:
//!
//! * [`engine`] — the shared experiment engine: runs every distinct
//!   experiment cell exactly once (in-process memoisation + in-flight
//!   deduplication) and persists results via [`store`];
//! * [`store`] — the content-addressed on-disk result store, keyed by a
//!   collision-free canonical digest of core config, setup, pairing, seed
//!   and simulation length;
//! * [`figures`] — every figure/table of the paper as a declarative
//!   renderer over the engine, plus the registry the `figures` driver
//!   dispatches on;
//! * [`harness`] — the experiment configuration, the shared
//!   [`harness::parallel_map`] worker pool, and the per-cell
//!   [`cpu_sim::Scenario`] runners the engine memoises: SMT colocations of
//!   `1 + N` threads under a [`cpu_sim::ColocationPolicy`] and whole-server
//!   runs under a [`cpu_sim::AllocationPolicy`] above it — Stretch and all
//!   baselines go through one interface, and the cache digest covers the
//!   policy identities;
//! * [`report`] — plain-text table formatting and cache-statistics reporting
//!   shared by the binaries.
//!
//! Nothing here reads a wall clock. Speed is measured from outside by the
//! repository benchmark (`BENCHMARK.json`, `repobench/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod figures;
pub mod harness;
pub mod report;
pub mod store;

pub use engine::{CacheStats, Engine};
pub use harness::{
    batch_names, ls_names, pair_seed, ExperimentConfig, PairOutcome, ServerOutcome, SmtOutcome,
};
pub use report::{format_cache_stats, format_distribution_row, format_percent, TableWriter};
pub use store::{JsonCodec, ResultStore};
