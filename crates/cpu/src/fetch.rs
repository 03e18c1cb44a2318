//! SMT fetch (thread selection) policies.
//!
//! The baseline core uses ICOUNT [Tullsen et al., ISCA'96]: each cycle the
//! thread with the fewest in-flight instructions is selected for fetch,
//! decode and dispatch; if that thread cannot make use of the full width the
//! core switches to the other thread (§V-A). Fetch throttling (the Figure 12
//! baseline) instead grants the co-runner `M` fetch cycles for every cycle
//! granted to the latency-sensitive thread.

use serde::{Deserialize, Serialize};
use sim_model::{CanonicalKey, KeyEncoder, ThreadId};

/// Thread-selection policy for the shared front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FetchPolicy {
    /// Select the thread with the fewest in-flight instructions (ICOUNT).
    ICount,
    /// Alternate between threads every cycle regardless of occupancy.
    RoundRobin,
    /// Fetch throttling with ratio 1:M — the `throttled` thread receives one
    /// fetch cycle for every `ratio` cycles granted to the other thread.
    ///
    /// Within its granted cycles each thread is still subject to ICOUNT-style
    /// switching if it cannot fetch.
    Throttled {
        /// The thread whose fetch bandwidth is restricted (the
        /// latency-sensitive thread in the Figure 12 study).
        throttled: ThreadId,
        /// `M` in the 1:M ratio (must be at least 1).
        ratio: u32,
    },
}

impl FetchPolicy {
    /// Fetch-throttling policy restricting `throttled` to a 1:`ratio` share.
    ///
    /// # Panics
    ///
    /// Panics if `ratio == 0`.
    pub fn throttled(throttled: ThreadId, ratio: u32) -> FetchPolicy {
        assert!(ratio >= 1, "fetch throttling ratio must be at least 1");
        FetchPolicy::Throttled { throttled, ratio }
    }
}

impl CanonicalKey for FetchPolicy {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        match self {
            FetchPolicy::ICount => {
                enc.tag(0);
            }
            FetchPolicy::RoundRobin => {
                enc.tag(1);
            }
            FetchPolicy::Throttled { throttled, ratio } => {
                enc.tag(2).field(throttled).u64(u64::from(*ratio));
            }
        }
    }
}

/// Runtime state of the fetch policy (cycle counters for round-robin and
/// throttling schedules).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FetchScheduler {
    cycle: u64,
    /// Rotation counter for the non-throttled group under
    /// [`FetchPolicy::Throttled`]; advances only when a non-throttled thread
    /// is granted, so the batch threads share their cycles fairly.
    batch_rotation: u64,
}

impl FetchScheduler {
    /// Creates a fresh scheduler.
    pub fn new() -> FetchScheduler {
        FetchScheduler::default()
    }

    /// Selects the preferred thread for this cycle.
    ///
    /// `in_flight` is the number of in-flight instructions per thread (fetch
    /// buffer plus ROB occupancy), used by ICOUNT. `active` marks threads that
    /// actually have a workload attached (single-thread runs only activate
    /// one). Both slices are indexed by [`ThreadId::index`] and must agree on
    /// the SMT width. The core may still fall back to another thread when the
    /// preferred one cannot fetch this cycle.
    pub fn select(
        &mut self,
        policy: FetchPolicy,
        in_flight: &[usize],
        active: &[bool],
    ) -> Option<ThreadId> {
        debug_assert_eq!(in_flight.len(), active.len());
        let threads = active.len();
        self.cycle += 1;
        let active_count = active.iter().filter(|&&a| a).count();
        if active_count == 0 {
            return None;
        }
        if active_count == 1 {
            let only = active.iter().position(|&a| a).expect("one thread is active");
            return Some(ThreadId::from_index(only));
        }
        let preferred = match policy {
            FetchPolicy::ICount => {
                // Fewest in-flight instructions wins; ties go to the lowest
                // thread index (T0 on the classic pair).
                let mut best = None;
                for (i, &count) in in_flight.iter().enumerate() {
                    if !active[i] {
                        continue;
                    }
                    best = match best {
                        Some((_, best_count)) if best_count <= count => best,
                        _ => Some((i, count)),
                    };
                }
                best.expect("at least two threads are active").0
            }
            FetchPolicy::RoundRobin => {
                // Rotate through the thread slots, skipping inactive ones.
                let start = (self.cycle % threads as u64) as usize;
                (0..threads)
                    .map(|offset| (start + offset) % threads)
                    .find(|&i| active[i])
                    .expect("at least two threads are active")
            }
            FetchPolicy::Throttled { throttled, ratio } => {
                // Out of every (ratio + 1) cycles, exactly one goes to the
                // throttled thread; the rest rotate through the non-throttled
                // group. At least two threads are active, so that group is
                // never empty.
                let slot = self.cycle % (u64::from(ratio) + 1);
                if slot == 0 && active[throttled.index()] {
                    throttled.index()
                } else {
                    let in_group = |i: &usize| *i != throttled.index() && active[*i];
                    let size = (0..threads).filter(in_group).count() as u64;
                    let turn = (self.batch_rotation % size) as usize;
                    self.batch_rotation += 1;
                    (0..threads).filter(in_group).nth(turn).expect("turn is below the group size")
                }
            }
        };
        Some(ThreadId::from_index(preferred))
    }

    /// Advances the schedule as `cycles` calls to [`FetchScheduler::select`]
    /// with the same `active` mask would, without choosing threads. The
    /// core's quiescence skip uses it for cycles in which no thread can
    /// fetch.
    pub(crate) fn advance(&mut self, policy: FetchPolicy, cycles: u64, active: &[bool]) {
        let start = self.cycle;
        self.cycle += cycles;
        let FetchPolicy::Throttled { throttled, ratio } = policy else { return };
        if active.iter().filter(|&&a| a).count() < 2 {
            return;
        }
        // Every cycle rotates the non-throttled group except those whose slot
        // goes to an active throttled thread: the multiples of the period in
        // (start, start + cycles].
        let period = u64::from(ratio) + 1;
        let throttled_turns =
            if active[throttled.index()] { self.cycle / period - start / period } else { 0 };
        self.batch_rotation += cycles - throttled_turns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn icount_prefers_emptier_thread() {
        let mut s = FetchScheduler::new();
        assert_eq!(s.select(FetchPolicy::ICount, &[10, 3], &[true, true]), Some(ThreadId::T1));
        assert_eq!(s.select(FetchPolicy::ICount, &[2, 30], &[true, true]), Some(ThreadId::T0));
        // Ties go to T0.
        assert_eq!(s.select(FetchPolicy::ICount, &[5, 5], &[true, true]), Some(ThreadId::T0));
    }

    #[test]
    fn icount_generalises_to_smt4() {
        let mut s = FetchScheduler::new();
        assert_eq!(
            s.select(FetchPolicy::ICount, &[9, 4, 2, 7], &[true; 4]),
            Some(ThreadId::from_index(2))
        );
        // Inactive threads never win, even when empty.
        assert_eq!(
            s.select(FetchPolicy::ICount, &[9, 4, 0, 7], &[true, true, false, true]),
            Some(ThreadId::T1)
        );
    }

    #[test]
    fn single_active_thread_always_selected() {
        let mut s = FetchScheduler::new();
        assert_eq!(s.select(FetchPolicy::ICount, &[100, 0], &[true, false]), Some(ThreadId::T0));
        assert_eq!(s.select(FetchPolicy::RoundRobin, &[0, 0], &[false, true]), Some(ThreadId::T1));
        assert_eq!(s.select(FetchPolicy::ICount, &[0, 0], &[false, false]), None);
    }

    #[test]
    fn round_robin_alternates() {
        let mut s = FetchScheduler::new();
        let picks: Vec<ThreadId> = (0..4)
            .map(|_| s.select(FetchPolicy::RoundRobin, &[0, 0], &[true, true]).unwrap())
            .collect();
        assert_ne!(picks[0], picks[1]);
        assert_eq!(picks[0], picks[2]);
    }

    #[test]
    fn round_robin_visits_every_smt4_thread() {
        let mut s = FetchScheduler::new();
        let mut counts = [0usize; 4];
        for _ in 0..400 {
            let t = s.select(FetchPolicy::RoundRobin, &[0; 4], &[true; 4]).unwrap();
            counts[t.index()] += 1;
        }
        assert_eq!(counts, [100, 100, 100, 100]);
    }

    #[test]
    fn throttled_ratio_shares_cycles() {
        let mut s = FetchScheduler::new();
        let policy = FetchPolicy::throttled(ThreadId::T0, 4);
        let mut t0 = 0;
        let mut t1 = 0;
        for _ in 0..500 {
            let t = s.select(policy, &[0, 0], &[true, true]).unwrap();
            if t == ThreadId::T0 {
                t0 += 1;
            } else {
                t1 += 1;
            }
        }
        // Expect roughly a 1:4 split.
        assert_eq!(t0, 100);
        assert_eq!(t1, 400);
    }

    #[test]
    fn throttled_batch_group_rotates_fairly_on_smt4() {
        let mut s = FetchScheduler::new();
        let policy = FetchPolicy::throttled(ThreadId::T0, 2);
        let mut counts = [0usize; 4];
        for _ in 0..300 {
            let t = s.select(policy, &[0; 4], &[true; 4]).unwrap();
            counts[t.index()] += 1;
        }
        // One cycle in three goes to the throttled LS thread; the other two
        // rotate across the three batch threads.
        assert_eq!(counts[0], 100);
        assert_eq!(counts[1] + counts[2] + counts[3], 200);
        for &c in &counts[1..] {
            assert!((66..=67).contains(&c), "batch share skewed: {counts:?}");
        }
    }

    #[test]
    fn advance_matches_repeated_select() {
        let policies = [
            FetchPolicy::ICount,
            FetchPolicy::RoundRobin,
            FetchPolicy::throttled(ThreadId::T0, 2),
            FetchPolicy::throttled(ThreadId::T1, 3),
        ];
        let masks: [&[bool]; 7] = [
            &[true, true, true, true],
            &[false, true, true, true],
            &[true, false, true, true],
            &[true, false],
            &[false, true, false, false],
            &[true, true],
            &[false, false, false, false],
        ];
        for policy in policies {
            let ratio = match policy {
                FetchPolicy::Throttled { ratio, .. } => u64::from(ratio),
                _ => 1,
            };
            for active in masks {
                let in_flight = vec![0; active.len()];
                // Start at every phase of the throttling period.
                for warmup in 0..=ratio + 1 {
                    for k in [0, 1, ratio, ratio + 1, 1000] {
                        let mut stepped = FetchScheduler::new();
                        for _ in 0..warmup {
                            stepped.select(policy, &in_flight, active);
                        }
                        let mut advanced = stepped.clone();
                        for _ in 0..k {
                            stepped.select(policy, &in_flight, active);
                        }
                        advanced.advance(policy, k, active);
                        assert_eq!(
                            advanced, stepped,
                            "{policy:?}, mask {active:?}, phase {warmup}, k = {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ratio_rejected() {
        let _ = FetchPolicy::throttled(ThreadId::T0, 0);
    }
}
