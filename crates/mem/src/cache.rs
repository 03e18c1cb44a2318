//! Set-associative caches with LRU replacement and optional per-thread
//! privatisation.

use sim_model::{CacheConfig, CanonicalKey, KeyEncoder, ThreadId};

/// How a cache structure is shared between the two SMT threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// One physical structure, dynamically shared: either thread can allocate
    /// into any entry (the baseline SMT core of §V-A).
    Shared,
    /// Each thread is given its own full-size copy. This idealisation removes
    /// all inter-thread contention for the structure and is used by the
    /// per-resource study (Figures 4/5) and the ideal-software-scheduling
    /// baseline (Figure 13).
    PrivatePerThread,
}

impl CanonicalKey for Sharing {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.tag(match self {
            Sharing::Shared => 0,
            Sharing::PrivatePerThread => 1,
        });
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

/// One bank-agnostic set-associative cache with true-LRU replacement.
///
/// Tags are full block addresses; capacity and associativity come from a
/// [`CacheConfig`]. Banking is modelled only as a port constraint in the core
/// front-end, not here.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + way]`, `None` when invalid.
    tags: Vec<Option<u64>>,
    /// LRU stamps, larger = more recently used.
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds an empty cache from a geometry description.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::sets`]).
    pub fn new(cfg: &CacheConfig) -> SetAssocCache {
        let sets = cfg.sets();
        let line_shift = cfg.line_bytes.trailing_zeros();
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        SetAssocCache {
            sets,
            ways: cfg.ways,
            line_shift,
            tags: vec![None; sets * cfg.ways],
            stamps: vec![0; sets * cfg.ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Builds a cache with an explicit number of sets and ways and a 64-byte
    /// line, used for LLC partitions.
    pub fn with_geometry(sets: usize, ways: usize) -> SetAssocCache {
        assert!(sets > 0 && ways > 0, "cache must have at least one set and one way");
        SetAssocCache {
            sets,
            ways,
            line_shift: 6,
            tags: vec![None; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_index(&self, block: u64) -> usize {
        (block % self.sets as u64) as usize
    }

    /// Accesses byte address `addr`; on a miss the block is allocated
    /// (write-allocate for both reads and writes). Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        self.access_block(block)
    }

    /// Accesses a pre-computed block address.
    pub fn access_block(&mut self, block: u64) -> bool {
        self.clock += 1;
        let set = self.set_index(block);
        let base = set * self.ways;
        // Hit?
        for way in 0..self.ways {
            if self.tags[base + way] == Some(block) {
                self.stamps[base + way] = self.clock;
                self.stats.hits += 1;
                return true;
            }
        }
        // Miss: fill into LRU way.
        self.stats.misses += 1;
        self.fill_block(block);
        false
    }

    /// Looks up byte address `addr`, updating LRU state and hit/miss counters,
    /// but **without** allocating on a miss. Used for demand loads, whose fill
    /// only lands when the corresponding miss completes (see the MSHR file).
    pub fn lookup(&mut self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        self.clock += 1;
        let set = self.set_index(block);
        let base = set * self.ways;
        for way in 0..self.ways {
            if self.tags[base + way] == Some(block) {
                self.stamps[base + way] = self.clock;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Probes for a block without updating LRU state or statistics.
    pub fn probe_block(&self, block: u64) -> bool {
        let set = self.set_index(block);
        let base = set * self.ways;
        (0..self.ways).any(|way| self.tags[base + way] == Some(block))
    }

    /// Installs a block (e.g. a prefetch fill) without counting an access.
    pub fn fill_block(&mut self, block: u64) {
        self.clock += 1;
        let set = self.set_index(block);
        let base = set * self.ways;
        // Already present: refresh.
        for way in 0..self.ways {
            if self.tags[base + way] == Some(block) {
                self.stamps[base + way] = self.clock;
                return;
            }
        }
        let mut victim = 0usize;
        let mut oldest = u64::MAX;
        for way in 0..self.ways {
            match self.tags[base + way] {
                None => {
                    victim = way;
                    break;
                }
                Some(_) => {
                    if self.stamps[base + way] < oldest {
                        oldest = self.stamps[base + way];
                        victim = way;
                    }
                }
            }
        }
        self.tags[base + victim] = Some(block);
        self.stamps[base + victim] = self.clock;
    }

    /// Applies `n` [`SetAssocCache::lookup`] misses in closed form: a missing
    /// lookup only advances the clock and counts a miss.
    pub(crate) fn repeat_misses(&mut self, n: u64) {
        self.clock += n;
        self.stats.misses += n;
    }

    /// Applies `n` hitting [`SetAssocCache::access_block`] calls to a
    /// resident `block` in closed form: the clock and the hit count advance
    /// by `n`, and the block ends stamped with the final clock.
    pub(crate) fn repeat_hits(&mut self, block: u64, n: u64) {
        self.clock += n;
        self.stats.hits += n;
        let base = self.set_index(block) * self.ways;
        let way = (0..self.ways)
            .find(|&way| self.tags[base + way] == Some(block))
            .expect("repeated hits need a resident block");
        self.stamps[base + way] = self.clock;
    }

    /// Hit/miss statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }
}

/// A cache structure that can be configured as shared or private per thread.
///
/// In `Shared` mode both threads access the same underlying cache (index 0);
/// in `PrivatePerThread` mode each thread gets its own full-size copy.
#[derive(Debug, Clone)]
pub struct ThreadedCache {
    sharing: Sharing,
    caches: Vec<SetAssocCache>,
}

impl ThreadedCache {
    /// Builds the structure for an SMT-`threads` core: one shared copy, or
    /// one full-size private copy per hardware thread.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(cfg: &CacheConfig, sharing: Sharing, threads: usize) -> ThreadedCache {
        assert!(threads >= 1, "a cache needs at least one thread");
        let copies = match sharing {
            Sharing::Shared => 1,
            Sharing::PrivatePerThread => threads,
        };
        let caches = (0..copies).map(|_| SetAssocCache::new(cfg)).collect();
        ThreadedCache { sharing, caches }
    }

    #[inline]
    fn cache_mut(&mut self, thread: ThreadId) -> &mut SetAssocCache {
        match self.sharing {
            Sharing::Shared => &mut self.caches[0],
            Sharing::PrivatePerThread => &mut self.caches[thread.index()],
        }
    }

    #[inline]
    fn cache(&self, thread: ThreadId) -> &SetAssocCache {
        match self.sharing {
            Sharing::Shared => &self.caches[0],
            Sharing::PrivatePerThread => &self.caches[thread.index()],
        }
    }

    /// Accesses `addr` on behalf of `thread`; allocates on miss.
    pub fn access(&mut self, thread: ThreadId, addr: u64) -> bool {
        self.cache_mut(thread).access(addr)
    }

    /// Looks up `addr` on behalf of `thread` without allocating on a miss.
    pub fn lookup(&mut self, thread: ThreadId, addr: u64) -> bool {
        self.cache_mut(thread).lookup(addr)
    }

    /// Installs a block on behalf of `thread` without counting an access.
    pub fn fill_block(&mut self, thread: ThreadId, block: u64) {
        self.cache_mut(thread).fill_block(block);
    }

    /// Probes without side effects.
    pub fn probe_block(&self, thread: ThreadId, block: u64) -> bool {
        self.cache(thread).probe_block(block)
    }

    /// Applies `n` missing lookups on behalf of `thread` in closed form (see
    /// [`SetAssocCache::repeat_misses`]).
    pub(crate) fn repeat_misses(&mut self, thread: ThreadId, n: u64) {
        self.cache_mut(thread).repeat_misses(n);
    }

    /// Combined statistics across the structure.
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for c in &self.caches {
            out.hits += c.stats().hits;
            out.misses += c.stats().misses;
        }
        out
    }

    /// Sharing mode.
    pub fn sharing(&self) -> Sharing {
        self.sharing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_model::CacheConfig;

    fn small_cfg() -> CacheConfig {
        // 4 sets x 2 ways x 64B = 512 B.
        CacheConfig { capacity_bytes: 512, line_bytes: 64, ways: 2, banks: 1, hit_latency: 1 }
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = SetAssocCache::new(&small_cfg());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004)); // same block
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = SetAssocCache::with_geometry(1, 2);
        // Blocks 1, 2 fill both ways; touching 1 makes 2 the LRU victim for 3.
        c.access_block(1);
        c.access_block(2);
        c.access_block(1);
        c.access_block(3);
        assert!(c.probe_block(1), "block 1 was recently used and must survive");
        assert!(!c.probe_block(2), "block 2 was LRU and must be evicted");
        assert!(c.probe_block(3));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let cfg = small_cfg();
        let mut c = SetAssocCache::new(&cfg);
        // Stream over 4x the capacity twice; second pass should still miss
        // (LRU with a cyclic pattern larger than capacity never hits).
        let blocks: Vec<u64> = (0..32).collect();
        for &b in &blocks {
            c.access_block(b);
        }
        let misses_before = c.stats().misses;
        for &b in &blocks {
            c.access_block(b);
        }
        assert_eq!(c.stats().misses, misses_before + blocks.len() as u64);
    }

    #[test]
    fn working_set_smaller_than_cache_hits() {
        let cfg = small_cfg();
        let mut c = SetAssocCache::new(&cfg);
        let blocks: Vec<u64> = (0..8).collect(); // exactly capacity
        for &b in &blocks {
            c.access_block(b);
        }
        for &b in &blocks {
            assert!(c.access_block(b), "block {b} should hit on the second pass");
        }
    }

    #[test]
    fn fill_does_not_count_stats() {
        let mut c = SetAssocCache::new(&small_cfg());
        c.fill_block(42);
        assert_eq!(c.stats().hits + c.stats().misses, 0);
        assert!(c.probe_block(42));
    }

    #[test]
    fn shared_mode_causes_cross_thread_interference() {
        let cfg =
            CacheConfig { capacity_bytes: 128, line_bytes: 64, ways: 1, banks: 1, hit_latency: 1 };
        let mut shared = ThreadedCache::new(&cfg, Sharing::Shared, 2);
        // T0 loads block 0 (set 0); T1 loads block 2 (also set 0, 2 sets x 1 way),
        // evicting T0's line.
        shared.access(ThreadId::T0, 0);
        shared.access(ThreadId::T1, 2 * 64);
        assert!(!shared.access(ThreadId::T0, 0), "shared cache: T1 evicted T0's block");

        let mut private = ThreadedCache::new(&cfg, Sharing::PrivatePerThread, 2);
        private.access(ThreadId::T0, 0);
        private.access(ThreadId::T1, 2 * 64);
        assert!(private.access(ThreadId::T0, 0), "private cache: no interference");
    }

    #[test]
    fn threaded_cache_stats_aggregate() {
        let cfg = small_cfg();
        let mut c = ThreadedCache::new(&cfg, Sharing::PrivatePerThread, 2);
        c.access(ThreadId::T0, 0x0);
        c.access(ThreadId::T1, 0x0);
        assert_eq!(c.stats().misses, 2);
    }
}
