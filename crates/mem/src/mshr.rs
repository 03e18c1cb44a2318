//! Miss status holding registers (MSHRs).
//!
//! The modelled L1-D has 10 MSHRs, statically split 5 per hardware thread
//! (Table II). MSHRs bound the number of outstanding demand misses a thread
//! can have in flight and therefore bound its memory-level parallelism — the
//! property Figure 7 measures.

use sim_model::{Cycle, ThreadId};

/// One outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    block: u64,
    completion: Cycle,
}

/// A per-thread file of miss status holding registers.
///
/// Requests to a block that is already outstanding for the same thread are
/// coalesced onto the existing entry (they complete at the same time and do
/// not consume an additional register), mirroring real hardware behaviour and
/// the paper's note that accesses to the same cache block are coalesced.
#[derive(Debug, Clone)]
pub struct MshrFile {
    per_thread_capacity: usize,
    entries: Vec<Vec<Entry>>,
}

/// Result of attempting to allocate an MSHR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the miss completes at the given cycle.
    Allocated(Cycle),
    /// The block was already outstanding; the request coalesces and completes
    /// at the given cycle.
    Coalesced(Cycle),
    /// No register available; the requester must retry later.
    Full,
}

impl MshrFile {
    /// Creates a file with `per_thread_capacity` registers for each of
    /// `threads` hardware threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(per_thread_capacity: usize, threads: usize) -> MshrFile {
        assert!(threads >= 1, "an MSHR file needs at least one thread");
        MshrFile { per_thread_capacity, entries: vec![Vec::new(); threads] }
    }

    /// Attempts to track a miss for `block` completing at `completion`.
    pub fn request(&mut self, thread: ThreadId, block: u64, completion: Cycle) -> MshrOutcome {
        let list = &mut self.entries[thread.index()];
        if let Some(e) = list.iter().find(|e| e.block == block) {
            return MshrOutcome::Coalesced(e.completion);
        }
        if list.len() >= self.per_thread_capacity {
            return MshrOutcome::Full;
        }
        list.push(Entry { block, completion });
        MshrOutcome::Allocated(completion)
    }

    /// Checks whether `block` is already outstanding for `thread`, returning
    /// its completion cycle.
    pub fn lookup(&self, thread: ThreadId, block: u64) -> Option<Cycle> {
        self.entries[thread.index()].iter().find(|e| e.block == block).map(|e| e.completion)
    }

    /// Releases every entry whose completion time is at or before `now`,
    /// appending the completed blocks to `done` (so the caller can fill
    /// caches). The buffer is the caller's, so the every-cycle drain never
    /// allocates.
    pub fn drain_completed_into(&mut self, thread: ThreadId, now: Cycle, done: &mut Vec<u64>) {
        let list = &mut self.entries[thread.index()];
        list.retain(|e| {
            if e.completion <= now {
                done.push(e.block);
                false
            } else {
                true
            }
        });
    }

    /// Current number of outstanding misses for `thread` — the instantaneous
    /// MLP used by the Figure 7 census.
    pub fn outstanding(&self, thread: ThreadId) -> usize {
        self.entries[thread.index()].len()
    }

    /// Earliest completion cycle among `thread`'s outstanding misses, if any —
    /// the hierarchy's next-interesting-cycle watermark source, which lets the
    /// per-cycle tick skip entirely while every MSHR file is quiescent.
    pub fn next_completion(&self, thread: ThreadId) -> Option<Cycle> {
        self.entries[thread.index()].iter().map(|e| e.completion).min()
    }

    /// Per-thread capacity.
    pub fn capacity(&self) -> usize {
        self.per_thread_capacity
    }

    /// Removes all outstanding entries (used on pipeline flushes that squash
    /// speculative loads; conservative but simple).
    pub fn clear_thread(&mut self, thread: ThreadId) {
        self.entries[thread.index()].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_until_full() {
        let mut m = MshrFile::new(2, 2);
        assert!(matches!(m.request(ThreadId::T0, 1, 100), MshrOutcome::Allocated(100)));
        assert!(matches!(m.request(ThreadId::T0, 2, 120), MshrOutcome::Allocated(120)));
        assert!(matches!(m.request(ThreadId::T0, 3, 130), MshrOutcome::Full));
        // The other thread has its own registers.
        assert!(matches!(m.request(ThreadId::T1, 3, 130), MshrOutcome::Allocated(130)));
    }

    #[test]
    fn coalescing_same_block() {
        let mut m = MshrFile::new(1, 2);
        assert!(matches!(m.request(ThreadId::T0, 7, 50), MshrOutcome::Allocated(50)));
        assert!(matches!(m.request(ThreadId::T0, 7, 90), MshrOutcome::Coalesced(50)));
        assert_eq!(m.outstanding(ThreadId::T0), 1);
    }

    #[test]
    fn drain_releases_entries_at_completion() {
        let mut m = MshrFile::new(4, 2);
        m.request(ThreadId::T0, 1, 10);
        m.request(ThreadId::T0, 2, 20);
        let mut done = Vec::new();
        m.drain_completed_into(ThreadId::T0, 10, &mut done);
        assert_eq!(done, vec![1]);
        assert_eq!(m.outstanding(ThreadId::T0), 1);
        done.clear();
        m.drain_completed_into(ThreadId::T0, 25, &mut done);
        assert_eq!(done, vec![2]);
        assert_eq!(m.outstanding(ThreadId::T0), 0);
    }

    #[test]
    fn lookup_and_clear() {
        let mut m = MshrFile::new(2, 2);
        m.request(ThreadId::T1, 9, 33);
        assert_eq!(m.lookup(ThreadId::T1, 9), Some(33));
        assert_eq!(m.lookup(ThreadId::T0, 9), None);
        m.clear_thread(ThreadId::T1);
        assert_eq!(m.outstanding(ThreadId::T1), 0);
    }
}
