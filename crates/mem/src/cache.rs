//! Set-associative caches with LRU replacement and optional per-thread
//! privatisation.
//!
//! Every load, store, fetch and fill the core simulates reaches a
//! [`SetAssocCache`], so its layout is flat: one `u64` tag and one `u64` LRU
//! stamp per way, with an invalid sentinel no block number reaches, and a
//! set index taken by mask whenever the set count is a power of two.

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

/// Tag of an invalid way. A block number is a byte address shifted right by
/// the line size (`addr >> 6` for every cache of the hierarchy), so it stays
/// below 2⁵⁸ and never equals this.
const INVALID: u64 = u64::MAX;

/// One bank-agnostic set-associative cache with true-LRU replacement.
///
/// Tags are full block addresses, one `u64` per way with `u64::MAX` marking
/// an empty way; capacity and associativity come from a [`CacheConfig`].
/// When the set count is a power of two (every Table II L1, and every LLC
/// partition at T = 1, 2 and 4) the set index is the block's low bits;
/// other geometries (an SMT-3 core's LLC partition has 8,738 sets) take the
/// remainder. Banking is modelled only as a port constraint in the core
/// front-end, not here.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    /// `sets - 1` when `sets` is a power of two.
    set_mask: Option<u64>,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + way]`, [`INVALID`] when empty.
    tags: Vec<u64>,
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
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        SetAssocCache::build(cfg.sets(), cfg.ways, cfg.line_bytes.trailing_zeros())
    }

    /// Builds a cache with an explicit number of sets and ways and a 64-byte
    /// line, used for LLC partitions.
    pub fn with_geometry(sets: usize, ways: usize) -> SetAssocCache {
        assert!(sets > 0 && ways > 0, "cache must have at least one set and one way");
        SetAssocCache::build(sets, ways, 6)
    }

    fn build(sets: usize, ways: usize, line_shift: u32) -> SetAssocCache {
        SetAssocCache {
            sets,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            ways,
            line_shift,
            tags: vec![INVALID; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Index of the first way of `block`'s set.
    #[inline]
    fn set_base(&self, block: u64) -> usize {
        let set = match self.set_mask {
            Some(mask) => block & mask,
            None => block % self.sets as u64,
        };
        set as usize * self.ways
    }

    /// The way of the set at `base` that holds `block`, if any.
    #[inline]
    fn way_of(&self, base: usize, block: u64) -> Option<usize> {
        debug_assert_ne!(block, INVALID, "block {block:#x} is the invalid tag");
        self.tags[base..base + self.ways].iter().position(|&tag| tag == block)
    }

    /// Accesses byte address `addr`; on a miss the block is allocated
    /// (write-allocate for both reads and writes). Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        self.access_block(block)
    }

    /// Accesses a pre-computed block address.
    pub fn access_block(&mut self, block: u64) -> bool {
        if self.lookup_block(block) {
            return true;
        }
        self.fill_block(block);
        false
    }

    /// Looks up byte address `addr`, updating LRU state and hit/miss counters,
    /// but **without** allocating on a miss. Used for demand loads, whose fill
    /// only lands when the corresponding miss completes (see the MSHR file).
    pub fn lookup(&mut self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        self.lookup_block(block)
    }

    fn lookup_block(&mut self, block: u64) -> bool {
        self.clock += 1;
        let base = self.set_base(block);
        match self.way_of(base, block) {
            Some(way) => {
                self.stamps[base + way] = self.clock;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Probes for a block without updating LRU state or statistics.
    pub fn probe_block(&self, block: u64) -> bool {
        self.way_of(self.set_base(block), block).is_some()
    }

    /// Installs a block (e.g. a prefetch fill) without counting an access.
    ///
    /// # Panics
    ///
    /// Panics if `block` is `u64::MAX`, the tag of an empty way; no
    /// `addr >> line_shift` reaches it.
    pub fn fill_block(&mut self, block: u64) {
        assert_ne!(block, INVALID, "block {block:#x} is the invalid tag");
        self.clock += 1;
        let base = self.set_base(block);
        // Already present: refresh.
        if let Some(way) = self.way_of(base, block) {
            self.stamps[base + way] = self.clock;
            return;
        }
        // The first empty way, else the first least recently used one.
        let tags = &self.tags[base..base + self.ways];
        let stamps = &self.stamps[base..base + self.ways];
        let mut victim = 0usize;
        let mut oldest = u64::MAX;
        for (way, (&tag, &stamp)) in tags.iter().zip(stamps).enumerate() {
            if tag == INVALID {
                victim = way;
                break;
            }
            if stamp < oldest {
                oldest = stamp;
                victim = way;
            }
        }
        self.tags[base + victim] = block;
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
        let base = self.set_base(block);
        let way = self.way_of(base, block).expect("repeated hits need a resident block");
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
    use sim_model::{CacheConfig, SimRng};

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

    /// The previous design of [`SetAssocCache`], kept as the oracle of the
    /// flat one: a 16-byte `Option` tag per way and a `%` set index.
    struct ReferenceCache {
        sets: usize,
        ways: usize,
        tags: Vec<Option<u64>>,
        stamps: Vec<u64>,
        clock: u64,
        stats: CacheStats,
    }

    impl ReferenceCache {
        fn new(sets: usize, ways: usize) -> ReferenceCache {
            ReferenceCache {
                sets,
                ways,
                tags: vec![None; sets * ways],
                stamps: vec![0; sets * ways],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn set_index(&self, block: u64) -> usize {
            (block % self.sets as u64) as usize
        }

        fn access(&mut self, addr: u64) -> bool {
            let block = addr >> 6;
            self.clock += 1;
            let base = self.set_index(block) * self.ways;
            for way in 0..self.ways {
                if self.tags[base + way] == Some(block) {
                    self.stamps[base + way] = self.clock;
                    self.stats.hits += 1;
                    return true;
                }
            }
            self.stats.misses += 1;
            self.fill_block(block);
            false
        }

        fn lookup(&mut self, addr: u64) -> bool {
            let block = addr >> 6;
            self.clock += 1;
            let base = self.set_index(block) * self.ways;
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

        fn probe_block(&self, block: u64) -> bool {
            let base = self.set_index(block) * self.ways;
            (0..self.ways).any(|way| self.tags[base + way] == Some(block))
        }

        fn fill_block(&mut self, block: u64) {
            self.clock += 1;
            let base = self.set_index(block) * self.ways;
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

        fn repeat_misses(&mut self, n: u64) {
            self.clock += n;
            self.stats.misses += n;
        }

        fn repeat_hits(&mut self, block: u64, n: u64) {
            self.clock += n;
            self.stats.hits += n;
            let base = self.set_index(block) * self.ways;
            let way = (0..self.ways)
                .find(|&way| self.tags[base + way] == Some(block))
                .expect("repeated hits need a resident block");
            self.stamps[base + way] = self.clock;
        }
    }

    /// Asserts that ways `range` hold the same blocks with the same stamps.
    fn assert_ways_match(
        flat: &SetAssocCache,
        reference: &ReferenceCache,
        range: std::ops::Range<usize>,
        what: &str,
    ) {
        for i in range {
            let tag = (flat.tags[i] != INVALID).then_some(flat.tags[i]);
            assert_eq!(tag, reference.tags[i], "{what}: tag of way {i}");
            assert_eq!(flat.stamps[i], reference.stamps[i], "{what}: stamp of way {i}");
        }
    }

    #[test]
    fn flat_tags_match_the_option_tag_reference() {
        let mut rng = SimRng::new(0xca_c4e);
        // The SMT-3 LLC partition, a T = 2 LLC partition, a Table II L1,
        // then random geometries with 1-16 ways and power-of-two and other
        // set counts.
        let mut geometries = vec![(8738, 5), (8192, 8), (128, 8), (1, 1)];
        for _ in 0..96 {
            let ways = 1 + rng.below(16) as usize;
            let sets =
                if rng.chance(0.5) { 1 << rng.below(9) } else { 1 + rng.below(400) as usize };
            geometries.push((sets, ways));
        }
        let mut hits = 0;
        for (case, &(sets, ways)) in geometries.iter().enumerate() {
            let mut flat = SetAssocCache::with_geometry(sets, ways);
            let mut reference = ReferenceCache::new(sets, ways);
            assert_eq!(flat.set_mask.is_some(), sets.is_power_of_two());
            // Blocks mostly map to a few hot sets, with up to twice the
            // ways' worth of distinct tags each, so sets fill and evict;
            // some lie near the top of the 2^58 block range.
            let hot: Vec<u64> = (0..4).map(|_| rng.below(sets as u64)).collect();
            let draw = |rng: &mut SimRng| {
                let set = match rng.below(4) {
                    0 => rng.below(sets as u64),
                    _ => hot[rng.below(4) as usize],
                };
                if rng.chance(0.05) {
                    let top = ((1u64 << 58) - 1 - set) / sets as u64;
                    set + sets as u64 * (top - rng.below(2 * ways as u64 + 1))
                } else {
                    set + sets as u64 * rng.below(2 * ways as u64 + 1)
                }
            };
            for step in 0..1500 {
                let block = draw(&mut rng);
                let what = format!("case {case} ({sets} sets x {ways} ways), step {step}");
                match rng.below(6) {
                    0 => {
                        assert_eq!(flat.access(block << 6), reference.access(block << 6), "{what}")
                    }
                    1 => {
                        let hit = flat.lookup(block << 6);
                        hits += usize::from(hit);
                        assert_eq!(hit, reference.lookup(block << 6), "{what}");
                    }
                    2 => {
                        flat.fill_block(block);
                        reference.fill_block(block);
                    }
                    3 => {
                        let n = rng.below(40);
                        flat.repeat_misses(n);
                        reference.repeat_misses(n);
                    }
                    4 if reference.probe_block(block) => {
                        let n = rng.below(40);
                        flat.repeat_hits(block, n);
                        reference.repeat_hits(block, n);
                    }
                    _ => assert_eq!(flat.access_block(block), reference.access(block << 6)),
                }
                assert_eq!(flat.stats(), reference.stats, "{what}");
                assert_eq!(flat.clock, reference.clock, "{what}");
                let base = reference.set_index(block) * ways;
                assert_ways_match(&flat, &reference, base..base + ways, &what);
                for _ in 0..4 {
                    let probe = draw(&mut rng);
                    assert_eq!(flat.probe_block(probe), reference.probe_block(probe), "{what}");
                }
            }
            assert_ways_match(
                &flat,
                &reference,
                0..sets * ways,
                &format!("case {case} at the end"),
            );
        }
        assert!(hits > 5_000, "too few lookups hit: {hits}");
    }
}
