//! Stride prefetcher.
//!
//! Table II specifies "stride prefetcher tracking up to 32 load/store PCs".
//! The implementation is a classic reference-prediction table: each entry
//! remembers the last address and the last stride observed for one PC; after
//! two consecutive accesses with the same non-zero stride the entry enters a
//! steady state and issues a prefetch for the next predicted block.

use sim_model::ThreadId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Initial,
    Transient,
    Steady,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    pc: u64,
    last_addr: u64,
    stride: i64,
    state: EntryState,
    lru: u64,
}

/// A per-thread stride prefetcher (reference prediction table).
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    slots: usize,
    tables: Vec<Vec<Entry>>,
    clock: u64,
    issued: u64,
}

impl StridePrefetcher {
    /// Creates a prefetcher with `slots` PC-tracking entries for each of
    /// `threads` hardware threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(slots: usize, threads: usize) -> StridePrefetcher {
        assert!(threads >= 1, "a prefetcher needs at least one thread");
        StridePrefetcher { slots, tables: vec![Vec::new(); threads], clock: 0, issued: 0 }
    }

    /// Observes a demand access by `pc` to byte address `addr` and returns the
    /// byte address to prefetch, if the stride pattern is established.
    pub fn observe(&mut self, thread: ThreadId, pc: u64, addr: u64) -> Option<u64> {
        if self.slots == 0 {
            return None;
        }
        self.clock += 1;
        let clock = self.clock;
        let slots = self.slots;
        let table = &mut self.tables[thread.index()];

        if let Some(entry) = table.iter_mut().find(|e| e.pc == pc) {
            let new_stride = addr as i64 - entry.last_addr as i64;
            entry.lru = clock;
            let prediction = match entry.state {
                EntryState::Initial => {
                    entry.state = EntryState::Transient;
                    None
                }
                EntryState::Transient | EntryState::Steady => {
                    if new_stride == entry.stride && new_stride != 0 {
                        entry.state = EntryState::Steady;
                        Some((addr as i64 + new_stride) as u64)
                    } else {
                        entry.state = EntryState::Transient;
                        None
                    }
                }
            };
            entry.stride = new_stride;
            entry.last_addr = addr;
            if prediction.is_some() {
                self.issued += 1;
            }
            return prediction;
        }

        // Allocate a new entry, evicting LRU if the table is full.
        if table.len() >= slots {
            if let Some(pos) = table.iter().enumerate().min_by_key(|(_, e)| e.lru).map(|(i, _)| i) {
                table.swap_remove(pos);
            }
        }
        table.push(Entry {
            pc,
            last_addr: addr,
            stride: 0,
            state: EntryState::Initial,
            lru: clock,
        });
        None
    }

    /// Whether observing `pc` at `addr` again would only advance the clock
    /// and restamp its entry: the entry exists, last saw `addr`, and holds a
    /// zero stride in the `Transient` state, so the observation predicts
    /// nothing and leaves the entry as it is.
    pub(crate) fn repeat_is_inert(&self, thread: ThreadId, pc: u64, addr: u64) -> bool {
        self.tables[thread.index()].iter().any(|e| {
            e.pc == pc && e.last_addr == addr && e.stride == 0 && e.state == EntryState::Transient
        })
    }

    /// Applies `n` inert observations to the shared clock in closed form and
    /// returns the clock value of the last one. The caller restamps the
    /// observed entries with [`StridePrefetcher::restamp`].
    pub(crate) fn skip_inert_observations(&mut self, n: u64) -> u64 {
        self.clock += n;
        self.clock
    }

    /// Sets the LRU stamp of `thread`'s entry for `pc`, which must exist.
    pub(crate) fn restamp(&mut self, thread: ThreadId, pc: u64, clock: u64) {
        let entry = self.tables[thread.index()]
            .iter_mut()
            .find(|e| e.pc == pc)
            .expect("restamping needs a tracked pc");
        entry.lru = clock;
    }

    /// Number of prefetches issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Number of PC slots per thread.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_stride_predicts_next_address() {
        let mut p = StridePrefetcher::new(8, 2);
        let pc = 0x400;
        assert_eq!(p.observe(ThreadId::T0, pc, 0x1000), None); // allocate
        assert_eq!(p.observe(ThreadId::T0, pc, 0x1040), None); // learn stride
        assert_eq!(p.observe(ThreadId::T0, pc, 0x1080), Some(0x10C0));
        assert_eq!(p.observe(ThreadId::T0, pc, 0x10C0), Some(0x1100));
        assert!(p.issued() >= 2);
    }

    #[test]
    fn irregular_pattern_predicts_nothing() {
        let mut p = StridePrefetcher::new(8, 2);
        let pc = 0x400;
        let addrs = [0x1000u64, 0x9000, 0x2000, 0x7000, 0x3000];
        let mut predictions = 0;
        for a in addrs {
            if p.observe(ThreadId::T1, pc, a).is_some() {
                predictions += 1;
            }
        }
        assert_eq!(predictions, 0);
    }

    #[test]
    fn zero_stride_never_prefetches() {
        let mut p = StridePrefetcher::new(4, 2);
        for _ in 0..5 {
            assert_eq!(p.observe(ThreadId::T0, 0x10, 0x5000), None);
        }
    }

    #[test]
    fn table_capacity_is_bounded() {
        let mut p = StridePrefetcher::new(2, 2);
        for i in 0..10u64 {
            p.observe(ThreadId::T0, 0x100 + i * 4, 0x1000 + i * 64);
        }
        assert!(p.tables[0].len() <= 2);
    }

    #[test]
    fn threads_have_independent_tables() {
        let mut p = StridePrefetcher::new(4, 2);
        p.observe(ThreadId::T0, 0x400, 0x1000);
        p.observe(ThreadId::T0, 0x400, 0x1040);
        // T1 with the same PC has no history; no prediction on its second access.
        p.observe(ThreadId::T1, 0x400, 0x2000);
        assert_eq!(p.observe(ThreadId::T1, 0x400, 0x2040), None);
        // T0 continues its streak.
        assert_eq!(p.observe(ThreadId::T0, 0x400, 0x1080), Some(0x10C0));
    }

    #[test]
    fn disabled_prefetcher_with_zero_slots() {
        let mut p = StridePrefetcher::new(0, 2);
        for i in 0..4 {
            assert_eq!(p.observe(ThreadId::T0, 0x1, 0x1000 + i * 64), None);
        }
    }
}
