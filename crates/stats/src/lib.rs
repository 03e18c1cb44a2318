//! Statistics utilities for the Stretch (HPCA'19) reproduction.
//!
//! Workspace architecture — crate map, simulation layers, policy stack,
//! cache keys, where determinism is enforced: `docs/ARCHITECTURE.md` at
//! the repository root.
//!
//! * [`percentile`](mod@percentile) — exact percentiles over sample sets (tail
//!   latency), selected in linear time, several from one copy.
//! * [`histogram`] — fixed-bin histograms (the MLP census).
//! * [`distribution`] — five-number / violin-style summaries used to report
//!   the slowdown and speedup distributions of Figures 3, 9, 10, 11.
//! * [`reduce`] — the canonical deterministic reducers ([`det_sum`],
//!   [`det_merge`]) every float accumulation on a parallel merge path must
//!   go through (enforced by the `reduction-order` simlint rule).
//! * [`tail`] — bounded-memory tail-latency accumulation
//!   ([`LatencyHistogram`]): fixed-resolution bins, stored only over the
//!   ones recorded, whose merge is bit-exact integer addition, for
//!   fleet-scale runs that cannot retain raw samples.
//!
//! # Example
//!
//! ```
//! use sim_stats::distribution::DistributionSummary;
//!
//! let s = DistributionSummary::from_samples(&[1.0, 2.0, 3.0, 4.0, 100.0]);
//! assert_eq!(s.median, 3.0);
//! assert!(s.max > s.p75);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod histogram;
pub mod percentile;
pub mod reduce;
pub mod tail;

pub use distribution::DistributionSummary;
pub use histogram::Histogram;
pub use percentile::{percentile, Percentiles};
pub use reduce::{det_mean, det_merge, det_sum};
pub use tail::LatencyHistogram;
