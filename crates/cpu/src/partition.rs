//! ROB / LSQ partitioning control.
//!
//! This module models the limit/usage-register mechanism of §IV-B: each of the
//! ROB and LSQ carries, per thread, a *limit register* (maximum entries the
//! thread may occupy) and a *usage register* (entries currently occupied).
//! Dispatch for a thread is blocked when usage reaches the limit. The baseline
//! core partitions both structures equally; Stretch reprograms the limit
//! registers to asymmetric values; dynamic sharing sets both limits to the
//! full capacity (bounded only by total occupancy).
//!
//! The limit registers are per-thread *vectors* sized to the core's SMT width
//! (T ≥ 1), and every constructor takes that width; the classic pair is
//! `threads == 2`. All share vectors are validated at construction time: a
//! partitioning must cover at least one thread, and explicit splits must fit
//! the physical capacity.

use sim_model::{CanonicalKey, CoreConfig, KeyEncoder, ThreadId};

/// How the ROB and LSQ are divided between the core's hardware threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Static partitioning with explicit per-thread limits.
    ///
    /// The equal split (96/96 ROB entries on the Table II core) is the
    /// baseline; asymmetric splits are the Stretch B-/Q-modes.
    Static {
        /// ROB entries available to each thread, indexed by [`ThreadId::index`].
        rob: Vec<usize>,
        /// LSQ entries available to each thread.
        lsq: Vec<usize>,
    },
    /// Fully dynamic sharing: any thread may occupy any entry; only the
    /// total capacity constrains occupancy (the Figure 11 configuration).
    Dynamic,
}

impl PartitionPolicy {
    /// The baseline equal partitioning across `threads` hardware threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn equal(cfg: &CoreConfig, threads: usize) -> PartitionPolicy {
        assert!(threads >= 1, "a partition must cover at least one thread");
        PartitionPolicy::Static {
            rob: vec![cfg.rob_capacity / threads; threads],
            lsq: vec![cfg.lsq_capacity / threads; threads],
        }
    }

    /// Static partitioning from an explicit per-thread ROB share vector; the
    /// LSQ share of each thread is derived in proportion to its ROB share, as
    /// the paper does.
    ///
    /// # Panics
    ///
    /// Panics if the share vector is empty or the shares exceed the ROB
    /// capacity in total.
    pub fn rob_shares(cfg: &CoreConfig, shares: &[usize]) -> PartitionPolicy {
        assert!(!shares.is_empty(), "a partition must cover at least one thread");
        let total: usize = shares.iter().sum();
        assert!(
            total <= cfg.rob_capacity,
            "ROB split {total} exceeds capacity {}",
            cfg.rob_capacity
        );
        PartitionPolicy::Static {
            rob: shares.to_vec(),
            lsq: shares.iter().map(|&rob| cfg.lsq_entries_for_rob(rob)).collect(),
        }
    }

    /// Static partitioning that gives the designated latency-sensitive thread
    /// `ls_rob` entries and splits a `batch_rob` *total* evenly among the
    /// remaining `threads - 1` batch threads. With `threads == 2` this is
    /// the two-entry [`PartitionPolicy::rob_shares`] in either thread order.
    ///
    /// # Panics
    ///
    /// Panics if `threads < 2`, if the LS index is out of range, or if the
    /// shares exceed the ROB capacity in total.
    pub fn ls_split(
        cfg: &CoreConfig,
        threads: usize,
        ls_thread: ThreadId,
        ls_rob: usize,
        batch_rob: usize,
    ) -> PartitionPolicy {
        assert!(threads >= 2, "an LS/batch split needs at least two threads, got {threads}");
        assert!(
            ls_thread.index() < threads,
            "LS thread {ls_thread} out of range for an SMT-{threads} core"
        );
        let per_batch = batch_rob / (threads - 1);
        let shares: Vec<usize> =
            (0..threads).map(|i| if i == ls_thread.index() { ls_rob } else { per_batch }).collect();
        PartitionPolicy::rob_shares(cfg, &shares)
    }

    /// Per-thread full-size private structures across `threads` threads,
    /// used by the per-resource contention study when the ROB is *not* the
    /// resource under study (each thread behaves as if it had the whole
    /// window).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn private_full(cfg: &CoreConfig, threads: usize) -> PartitionPolicy {
        assert!(threads >= 1, "a partition must cover at least one thread");
        PartitionPolicy::Static {
            rob: vec![cfg.rob_capacity; threads],
            lsq: vec![cfg.lsq_capacity; threads],
        }
    }

    /// Number of threads the partition describes, or `None` for the
    /// thread-count-agnostic [`PartitionPolicy::Dynamic`].
    pub fn threads(&self) -> Option<usize> {
        match self {
            PartitionPolicy::Static { rob, .. } => Some(rob.len()),
            PartitionPolicy::Dynamic => None,
        }
    }

    /// The ROB limit register value for `thread`.
    ///
    /// # Panics
    ///
    /// Panics if a static partition does not cover `thread`.
    pub fn rob_limit(&self, cfg: &CoreConfig, thread: ThreadId) -> usize {
        match self {
            PartitionPolicy::Static { rob, .. } => rob[thread.index()],
            PartitionPolicy::Dynamic => cfg.rob_capacity,
        }
    }

    /// The LSQ limit register value for `thread`.
    ///
    /// # Panics
    ///
    /// Panics if a static partition does not cover `thread`.
    pub fn lsq_limit(&self, cfg: &CoreConfig, thread: ThreadId) -> usize {
        match self {
            PartitionPolicy::Static { lsq, .. } => lsq[thread.index()],
            PartitionPolicy::Dynamic => cfg.lsq_capacity,
        }
    }

    /// Whether total occupancy must also be bounded by the physical capacity.
    ///
    /// For static partitions whose limits sum to at most the capacity this is
    /// redundant; for [`PartitionPolicy::Dynamic`] and for the private-full
    /// idealisation it is the only (respectively: a deliberately absent)
    /// constraint.
    pub fn enforce_total_capacity(&self) -> bool {
        match self {
            PartitionPolicy::Static { .. } => false,
            PartitionPolicy::Dynamic => true,
        }
    }
}

impl CanonicalKey for PartitionPolicy {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        match self {
            PartitionPolicy::Static { rob, lsq } => {
                // Length-prefixed share vectors: an SMT2 and an SMT4 setup can
                // never alias, even when their flattened scalars would agree.
                enc.tag(0).list(rob).list(lsq);
            }
            PartitionPolicy::Dynamic => {
                enc.tag(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_split_matches_table_ii() {
        let cfg = CoreConfig::default();
        let p = PartitionPolicy::equal(&cfg, 2);
        assert_eq!(p.rob_limit(&cfg, ThreadId::T0), 96);
        assert_eq!(p.rob_limit(&cfg, ThreadId::T1), 96);
        assert_eq!(p.lsq_limit(&cfg, ThreadId::T0), 32);
        assert_eq!(p.threads(), Some(2));
    }

    #[test]
    fn equal_split_generalises_to_smt4() {
        let cfg = CoreConfig::default();
        let p = PartitionPolicy::equal(&cfg, 4);
        for t in ThreadId::first_n(4) {
            assert_eq!(p.rob_limit(&cfg, t), 48);
            assert_eq!(p.lsq_limit(&cfg, t), 16);
        }
        assert_eq!(p.threads(), Some(4));
    }

    #[test]
    fn rob_split_scales_lsq() {
        let cfg = CoreConfig::default();
        let p = PartitionPolicy::rob_shares(&cfg, &[56, 136]);
        assert_eq!(p.rob_limit(&cfg, ThreadId::T0), 56);
        assert_eq!(p.rob_limit(&cfg, ThreadId::T1), 136);
        // 56/192 * 64 = 18.67 -> 18; 136/192 * 64 = 45.33 -> 45.
        assert_eq!(p.lsq_limit(&cfg, ThreadId::T0), 18);
        assert_eq!(p.lsq_limit(&cfg, ThreadId::T1), 45);
    }

    #[test]
    fn ls_split_reduces_to_rob_split_on_the_pair() {
        let cfg = CoreConfig::default();
        assert_eq!(
            PartitionPolicy::ls_split(&cfg, 2, ThreadId::T0, 56, 136),
            PartitionPolicy::rob_shares(&cfg, &[56, 136])
        );
        assert_eq!(
            PartitionPolicy::ls_split(&cfg, 2, ThreadId::T1, 56, 136),
            PartitionPolicy::rob_shares(&cfg, &[136, 56])
        );
    }

    #[test]
    fn ls_split_spreads_the_batch_share_on_smt4() {
        let cfg = CoreConfig::default();
        let p = PartitionPolicy::ls_split(&cfg, 4, ThreadId::T0, 56, 136);
        assert_eq!(p.rob_limit(&cfg, ThreadId::T0), 56);
        for t in ThreadId::first_n(4).skip(1) {
            assert_eq!(p.rob_limit(&cfg, t), 136 / 3);
        }
    }

    #[test]
    fn dynamic_limits_are_full_capacity() {
        let cfg = CoreConfig::default();
        let p = PartitionPolicy::Dynamic;
        assert_eq!(p.rob_limit(&cfg, ThreadId::T0), 192);
        assert_eq!(p.lsq_limit(&cfg, ThreadId::T1), 64);
        assert!(p.enforce_total_capacity());
        assert_eq!(p.threads(), None);
    }

    #[test]
    fn private_full_gives_each_thread_everything() {
        let cfg = CoreConfig::default();
        let p = PartitionPolicy::private_full(&cfg, 2);
        assert_eq!(p.rob_limit(&cfg, ThreadId::T0), 192);
        assert_eq!(p.rob_limit(&cfg, ThreadId::T1), 192);
        assert!(!p.enforce_total_capacity());
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversubscribed_split_rejected() {
        let cfg = CoreConfig::default();
        let _ = PartitionPolicy::ls_split(&cfg, 2, ThreadId::T0, 128, 128);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversubscribed_share_vector_rejected() {
        let cfg = CoreConfig::default();
        let _ = PartitionPolicy::rob_shares(&cfg, &[64, 64, 64, 64]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn empty_share_vector_rejected() {
        let cfg = CoreConfig::default();
        let _ = PartitionPolicy::rob_shares(&cfg, &[]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_thread_equal_partition_rejected() {
        let _ = PartitionPolicy::equal(&CoreConfig::default(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ls_split_rejects_out_of_range_ls_thread() {
        let cfg = CoreConfig::default();
        let _ = PartitionPolicy::ls_split(&cfg, 2, ThreadId::from_index(2), 56, 136);
    }

    #[test]
    fn smt2_and_smt4_partitions_are_distinct_keys() {
        let cfg = CoreConfig { rob_capacity: 384, ..CoreConfig::default() };
        let digest = |p: &PartitionPolicy| {
            let mut enc = KeyEncoder::new();
            p.encode_key(&mut enc);
            enc.digest()
        };
        let smt2 = PartitionPolicy::equal(&cfg, 2);
        let smt4 = PartitionPolicy::equal(&cfg, 4);
        assert_ne!(digest(&smt2), digest(&smt4));
    }
}
