//! Stride prefetcher.
//!
//! Table II specifies "stride prefetcher tracking up to 32 load/store PCs".
//! The implementation is a classic reference-prediction table: each entry
//! remembers the last address and the last stride observed for one PC; after
//! two consecutive accesses with the same non-zero stride the entry enters a
//! steady state and issues a prefetch for the next predicted block.
//!
//! Every load and store trains the prefetcher, so each thread's table keeps
//! its PCs in a contiguous array beside the entries: a lookup scans 8-byte
//! PCs, not whole entries. A full table evicts its least recently used entry
//! with `swap_remove`, which moves the last entry into the freed slot.

use sim_model::ThreadId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Initial,
    Transient,
    Steady,
}

/// One tracked PC's history; its PC sits at the same index of
/// [`Table::pcs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    last_addr: u64,
    stride: i64,
    state: EntryState,
    lru: u64,
}

/// One thread's table. `pcs[i]` is the PC of `entries[i]`: a lookup scans
/// the contiguous PCs alone, and both vectors are pushed and
/// `swap_remove`d together.
#[derive(Debug, Clone, Default)]
struct Table {
    pcs: Vec<u64>,
    entries: Vec<Entry>,
}

impl Table {
    fn position(&self, pc: u64) -> Option<usize> {
        self.pcs.iter().position(|&p| p == pc)
    }
}

/// A per-thread stride prefetcher (reference prediction table).
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    slots: usize,
    tables: Vec<Table>,
    clock: u64,
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
        StridePrefetcher { slots, tables: vec![Table::default(); threads], clock: 0 }
    }

    /// Observes a demand access by `pc` to byte address `addr` and returns the
    /// byte address to prefetch, if the stride pattern is established.
    pub fn observe(&mut self, thread: ThreadId, pc: u64, addr: u64) -> Option<u64> {
        if self.slots == 0 {
            return None;
        }
        self.clock += 1;
        let clock = self.clock;
        let table = &mut self.tables[thread.index()];

        if let Some(i) = table.position(pc) {
            let entry = &mut table.entries[i];
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
            return prediction;
        }

        // Allocate a new entry, evicting LRU if the table is full.
        if table.entries.len() >= self.slots {
            if let Some(pos) =
                table.entries.iter().enumerate().min_by_key(|(_, e)| e.lru).map(|(i, _)| i)
            {
                table.pcs.swap_remove(pos);
                table.entries.swap_remove(pos);
            }
        }
        table.pcs.push(pc);
        table.entries.push(Entry {
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
        let table = &self.tables[thread.index()];
        table.position(pc).is_some_and(|i| {
            let e = &table.entries[i];
            e.last_addr == addr && e.stride == 0 && e.state == EntryState::Transient
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
        let table = &mut self.tables[thread.index()];
        let i = table.position(pc).expect("restamping needs a tracked pc");
        table.entries[i].lru = clock;
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
        assert!(p.tables[0].entries.len() <= 2);
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

    /// The previous design of the prefetcher, kept as the oracle of the
    /// contiguous PC array: each 40-byte entry carries its own PC, and a
    /// lookup scans the entries.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct ReferenceEntry {
        pc: u64,
        last_addr: u64,
        stride: i64,
        state: EntryState,
        lru: u64,
    }

    struct ReferencePrefetcher {
        slots: usize,
        tables: Vec<Vec<ReferenceEntry>>,
        clock: u64,
    }

    impl ReferencePrefetcher {
        fn observe(&mut self, thread: ThreadId, pc: u64, addr: u64) -> Option<u64> {
            self.clock += 1;
            let clock = self.clock;
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
                return prediction;
            }
            if table.len() >= self.slots {
                if let Some(pos) =
                    table.iter().enumerate().min_by_key(|(_, e)| e.lru).map(|(i, _)| i)
                {
                    table.swap_remove(pos);
                }
            }
            table.push(ReferenceEntry {
                pc,
                last_addr: addr,
                stride: 0,
                state: EntryState::Initial,
                lru: clock,
            });
            None
        }

        fn repeat_is_inert(&self, thread: ThreadId, pc: u64, addr: u64) -> bool {
            self.tables[thread.index()].iter().any(|e| {
                e.pc == pc
                    && e.last_addr == addr
                    && e.stride == 0
                    && e.state == EntryState::Transient
            })
        }

        fn restamp(&mut self, thread: ThreadId, pc: u64, clock: u64) {
            let entry = self.tables[thread.index()]
                .iter_mut()
                .find(|e| e.pc == pc)
                .expect("restamping needs a tracked pc");
            entry.lru = clock;
        }
    }

    /// `thread`'s table as the reference lays it out.
    fn entries_of(p: &StridePrefetcher, thread: usize) -> Vec<ReferenceEntry> {
        let table = &p.tables[thread];
        assert_eq!(table.pcs.len(), table.entries.len(), "pcs and entries move together");
        let rows = table.pcs.iter().zip(&table.entries);
        rows.map(|(&pc, e)| ReferenceEntry {
            pc,
            last_addr: e.last_addr,
            stride: e.stride,
            state: e.state,
            lru: e.lru,
        })
        .collect()
    }

    #[test]
    fn pc_array_matches_the_entry_scan_reference() {
        let mut rng = sim_model::SimRng::new(0x9ef_e7c4);
        let (mut predictions, mut evictions, mut inert) = (0, 0, 0);
        for case in 0..192 {
            let slots = 1 + case % 32;
            let threads = 1 + rng.below(3) as usize;
            // More PCs than slots, so every table runs at capacity and evicts.
            let pcs = slots as u64 + 1 + rng.below(2 * slots as u64);
            let mut flat = StridePrefetcher::new(slots, threads);
            let mut reference =
                ReferencePrefetcher { slots, tables: vec![Vec::new(); threads], clock: 0 };
            // Each (thread, pc) walks its own stride; a step may repeat the
            // last address (a zero stride, as a retried load sees) or jump.
            let mut walked = vec![0u64; threads * pcs as usize];
            for step in 0..800 {
                let t = rng.below(threads as u64) as usize;
                let thread = ThreadId::from_index(t);
                let pc_index = rng.below(pcs);
                let pc = 0x400 + 4 * pc_index;
                let count = &mut walked[t * pcs as usize + pc_index as usize];
                let stride = [0, 64, 192, 64u64.wrapping_neg()][(pc_index % 4) as usize];
                let addr = match rng.below(8) {
                    0 => 0x10_0000 + rng.below(1 << 20) * 8,
                    1 => (0x100_0000 * (pc_index + 1)).wrapping_add(count.wrapping_mul(stride)),
                    _ => {
                        *count += 1;
                        (0x100_0000 * (pc_index + 1)).wrapping_add(count.wrapping_mul(stride))
                    }
                };
                let what = format!("case {case} ({slots} slots, {threads} threads), step {step}");
                let before = reference.tables[t].len();
                let tracked = reference.tables[t].iter().any(|e| e.pc == pc);
                match rng.below(10) {
                    0..=5 => {
                        let prediction = flat.observe(thread, pc, addr);
                        predictions += usize::from(prediction.is_some());
                        evictions += usize::from(!tracked && before == slots);
                        assert_eq!(prediction, reference.observe(thread, pc, addr), "{what}");
                    }
                    6 | 7 => {
                        let answer = flat.repeat_is_inert(thread, pc, addr);
                        inert += usize::from(answer);
                        assert_eq!(answer, reference.repeat_is_inert(thread, pc, addr), "{what}");
                    }
                    8 => {
                        let n = rng.below(50);
                        reference.clock += n;
                        assert_eq!(flat.skip_inert_observations(n), reference.clock, "{what}");
                    }
                    _ if tracked => {
                        let clock = reference.clock - rng.below(reference.clock.min(4) + 1);
                        flat.restamp(thread, pc, clock);
                        reference.restamp(thread, pc, clock);
                    }
                    _ => {}
                }
                assert_eq!(flat.clock, reference.clock, "{what}");
                for (i, table) in reference.tables.iter().enumerate() {
                    assert_eq!(&entries_of(&flat, i), table, "{what}: thread {i}'s table");
                }
            }
        }
        assert!(predictions > 1_000, "too few predictions: {predictions}");
        assert!(evictions > 10_000, "too few evictions: {evictions}");
        assert!(inert > 500, "too few inert repeats: {inert}");
    }
}
