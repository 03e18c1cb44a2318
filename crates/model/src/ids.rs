//! Strongly-typed identifiers used across the simulator crates.

use std::fmt;

/// Identifier of a hardware thread (SMT context) on the simulated core.
///
/// The identifier is an index newtype: a core may host any number of SMT
/// contexts (`T >= 1`), and a `ThreadId` names one of them. Using a newtype
/// rather than a bare `usize` prevents indexing mistakes between "per-thread"
/// arrays and other arrays. The constants [`ThreadId::T0`] / [`ThreadId::T1`]
/// keep the historical dual-threaded call sites readable.
///
/// ```
/// use sim_model::ThreadId;
/// assert_eq!(ThreadId::T0.other(), ThreadId::T1);
/// assert_eq!(ThreadId::T1.index(), 1);
/// assert_eq!(ThreadId::from_index(3).index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(u8);

impl ThreadId {
    /// Hardware thread 0. By convention the latency-sensitive thread in
    /// colocation experiments, though nothing in the simulator requires it
    /// (the paper explicitly allows either mapping, §IV-D).
    pub const T0: ThreadId = ThreadId(0);
    /// Hardware thread 1. By convention the batch thread of the classic pair.
    pub const T1: ThreadId = ThreadId(1);

    /// The two threads of the classic SMT pair, in index order. Wider cores
    /// enumerate their contexts with [`ThreadId::first_n`] instead.
    pub const ALL: [ThreadId; 2] = [ThreadId::T0, ThreadId::T1];

    /// The largest representable thread index + 1.
    pub const MAX_THREADS: usize = 256;

    /// Returns the array index for per-thread state vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the other hardware thread of a *dual-threaded* core.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not part of the classic pair — on a wider core
    /// "the other thread" is not well defined.
    #[inline]
    pub fn other(self) -> ThreadId {
        match self {
            ThreadId::T0 => ThreadId::T1,
            ThreadId::T1 => ThreadId::T0,
            _ => panic!("ThreadId::other: {self} is not part of an SMT pair"),
        }
    }

    /// Builds a `ThreadId` from an array index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= ThreadId::MAX_THREADS`.
    #[inline]
    pub fn from_index(index: usize) -> ThreadId {
        assert!(
            index < ThreadId::MAX_THREADS,
            "ThreadId::from_index: index {index} out of range (must be below {})",
            ThreadId::MAX_THREADS
        );
        ThreadId(index as u8)
    }

    /// The first `n` hardware threads, in index order — the contexts of an
    /// SMT-`n` core.
    ///
    /// # Panics
    ///
    /// Panics if `n > ThreadId::MAX_THREADS`.
    pub fn first_n(n: usize) -> impl Iterator<Item = ThreadId> {
        assert!(n <= ThreadId::MAX_THREADS, "SMT width {n} exceeds {}", ThreadId::MAX_THREADS);
        (0..n).map(ThreadId::from_index)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.index())
    }
}

/// Broad class of a workload, mirroring the paper's terminology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Interactive services with a tail-latency QoS target
    /// (Data Serving, Web Serving, Web Search, Media Streaming).
    LatencySensitive,
    /// Throughput-oriented batch jobs (the SPEC CPU2006-like suite).
    Batch,
}

impl WorkloadClass {
    /// `true` for latency-sensitive workloads.
    pub fn is_latency_sensitive(self) -> bool {
        matches!(self, WorkloadClass::LatencySensitive)
    }

    /// `true` for batch workloads.
    pub fn is_batch(self) -> bool {
        matches!(self, WorkloadClass::Batch)
    }
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadClass::LatencySensitive => write!(f, "latency-sensitive"),
            WorkloadClass::Batch => write!(f, "batch"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_round_trips_through_index() {
        for t in ThreadId::first_n(16) {
            assert_eq!(ThreadId::from_index(t.index()), t);
        }
    }

    #[test]
    fn other_is_an_involution_on_the_pair() {
        for t in ThreadId::ALL {
            assert_eq!(t.other().other(), t);
            assert_ne!(t.other(), t);
        }
    }

    #[test]
    #[should_panic(expected = "not part of an SMT pair")]
    fn other_rejects_wide_threads() {
        let _ = ThreadId::from_index(2).other();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_rejects_large_indices() {
        let _ = ThreadId::from_index(ThreadId::MAX_THREADS);
    }

    #[test]
    fn first_n_enumerates_an_smt4_core() {
        let ids: Vec<usize> = ThreadId::first_n(4).map(ThreadId::index).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn workload_class_predicates() {
        assert!(WorkloadClass::LatencySensitive.is_latency_sensitive());
        assert!(!WorkloadClass::LatencySensitive.is_batch());
        assert!(WorkloadClass::Batch.is_batch());
        assert!(!WorkloadClass::Batch.is_latency_sensitive());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(ThreadId::T0.to_string(), "T0");
        assert_eq!(WorkloadClass::Batch.to_string(), "batch");
    }
}
