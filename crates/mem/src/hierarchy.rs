//! The complete memory hierarchy seen by the SMT core.
//!
//! Combines the L1 instruction and data caches, the per-thread MSHRs, the
//! stride prefetcher, the per-thread LLC partitions and the DRAM latency into
//! the interface the core model uses:
//!
//! * [`MemoryHierarchy::fetch`] — instruction fetch of a cache block.
//! * [`MemoryHierarchy::load`] / [`MemoryHierarchy::store`] — data accesses.
//! * [`MemoryHierarchy::tick`] — advance time: complete outstanding misses
//!   and prefetches, filling the caches.
//!
//! The LLC is always partitioned per thread (the paper partitions it with
//! Intel CAT-style way partitioning to take LLC contention out of the
//! picture); the L1s can be shared or private per thread (see
//! [`crate::cache::Sharing`]).

use crate::cache::{SetAssocCache, Sharing, ThreadedCache};
use crate::mshr::{MshrFile, MshrOutcome};
use crate::prefetch::StridePrefetcher;
use serde::{Deserialize, Serialize};
use sim_model::{CacheConfig, CoreConfig, Cycle, ThreadId};

/// Configuration of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Number of SMT hardware threads sharing the hierarchy (T >= 1).
    pub threads: usize,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Sharing mode of the L1-I between SMT threads.
    pub l1i_sharing: Sharing,
    /// Sharing mode of the L1-D between SMT threads.
    pub l1d_sharing: Sharing,
    /// Demand-miss MSHRs per thread.
    pub mshrs_per_thread: usize,
    /// Stride prefetcher PC slots per thread (0 disables prefetching).
    pub prefetcher_pc_slots: usize,
    /// Total LLC capacity in bytes (split equally per thread).
    pub llc_capacity_bytes: usize,
    /// Total LLC associativity (split equally per thread).
    pub llc_ways: usize,
    /// Average LLC access latency in cycles.
    pub llc_latency: u64,
    /// Main-memory access latency in cycles.
    pub mem_latency: u64,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u64,
    /// Maximum in-flight prefetch fills per thread.
    pub prefetch_queue_depth: usize,
}

impl HierarchyConfig {
    /// Derives the hierarchy configuration from a [`CoreConfig`] (Table II
    /// defaults) with both L1s dynamically shared, as in the baseline core.
    pub fn from_core(core: &CoreConfig) -> HierarchyConfig {
        HierarchyConfig {
            threads: 2,
            l1i: core.l1i,
            l1d: core.l1d,
            l1i_sharing: Sharing::Shared,
            l1d_sharing: Sharing::Shared,
            mshrs_per_thread: core.mshrs_per_thread,
            prefetcher_pc_slots: core.prefetcher_pc_slots,
            llc_capacity_bytes: core.uncore.llc_capacity_bytes,
            llc_ways: core.uncore.llc_ways,
            llc_latency: core.uncore.llc_latency,
            mem_latency: core.uncore.mem_latency_cycles(),
            l1_hit_latency: core.l1d.hit_latency,
            prefetch_queue_depth: 8,
        }
    }

    /// Same as [`HierarchyConfig::from_core`] but with private (contention
    /// free) L1 caches, used by the ideal-software-scheduling baseline and the
    /// per-resource study.
    pub fn from_core_private_l1(core: &CoreConfig) -> HierarchyConfig {
        let mut cfg = HierarchyConfig::from_core(core);
        cfg.l1i_sharing = Sharing::PrivatePerThread;
        cfg.l1d_sharing = Sharing::PrivatePerThread;
        cfg
    }
}

/// Outcome of a data-load access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadResult {
    /// L1-D hit; data available after `latency` cycles.
    Hit {
        /// Cycles until the data is available.
        latency: u64,
    },
    /// L1-D miss tracked by an MSHR; data available at the `completion` cycle.
    Miss {
        /// Absolute cycle at which the fill completes.
        completion: Cycle,
    },
    /// No MSHR was available; the load must retry on a later cycle.
    NoMshr,
}

/// Aggregate hierarchy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Demand loads observed.
    pub loads: u64,
    /// Stores observed.
    pub stores: u64,
    /// Loads that hit in the L1-D.
    pub l1d_load_hits: u64,
    /// Loads that missed in the L1-D.
    pub l1d_load_misses: u64,
    /// L1-D misses that also missed the LLC (went to memory).
    pub llc_misses: u64,
    /// Instruction-fetch blocks that missed the L1-I.
    pub l1i_misses: u64,
    /// Prefetch fills installed.
    pub prefetch_fills: u64,
    /// Loads rejected because no MSHR was free.
    pub mshr_rejections: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct PendingPrefetch {
    block: u64,
    completion: Cycle,
}

/// The complete memory hierarchy for one SMT core (`cfg.threads` contexts).
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1i: ThreadedCache,
    l1d: ThreadedCache,
    /// Per-thread LLC partitions (way-partitioned equal shares).
    llc: Vec<SetAssocCache>,
    mshrs: MshrFile,
    prefetcher: StridePrefetcher,
    pending_prefetch: Vec<Vec<PendingPrefetch>>,
    /// Earliest cycle at which any outstanding miss or pending prefetch can
    /// fill ([`Cycle::MAX`] when nothing is in flight). The per-cycle
    /// [`MemoryHierarchy::tick`] returns immediately before this watermark,
    /// so a quiescent hierarchy costs ~zero per cycle. The watermark is
    /// conservative — never later than the true next fill, though it may be
    /// earlier after a flush (one wasted scan, never a missed event).
    next_event: Cycle,
    stats: HierarchyStats,
    /// Reusable buffer for completed demand-miss blocks: `tick` runs every
    /// simulated cycle, so it must not allocate on the fill path.
    scratch_fills: Vec<u64>,
    /// Reusable buffer for landed prefetch blocks, same reasoning.
    scratch_landed: Vec<u64>,
}

impl MemoryHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the LLC geometry is inconsistent (zero ways or capacity).
    pub fn new(cfg: HierarchyConfig) -> MemoryHierarchy {
        assert!(cfg.threads >= 1, "a hierarchy needs at least one thread");
        let share_ways = (cfg.llc_ways / cfg.threads).max(1);
        let share_capacity = cfg.llc_capacity_bytes / cfg.threads;
        assert!(share_capacity > 0, "LLC capacity must be non-zero");
        let sets = share_capacity / (share_ways * 64);
        assert!(sets > 0, "LLC partition has no sets: {cfg:?}");
        MemoryHierarchy {
            l1i: ThreadedCache::with_threads(&cfg.l1i, cfg.l1i_sharing, cfg.threads),
            l1d: ThreadedCache::with_threads(&cfg.l1d, cfg.l1d_sharing, cfg.threads),
            llc: (0..cfg.threads).map(|_| SetAssocCache::with_geometry(sets, share_ways)).collect(),
            mshrs: MshrFile::with_threads(cfg.mshrs_per_thread, cfg.threads),
            prefetcher: StridePrefetcher::with_threads(cfg.prefetcher_pc_slots, cfg.threads),
            pending_prefetch: vec![Vec::new(); cfg.threads],
            next_event: Cycle::MAX,
            stats: HierarchyStats::default(),
            scratch_fills: Vec::new(),
            scratch_landed: Vec::new(),
            cfg,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Latency beyond the L1 for a block, consulting (and filling) the
    /// thread's LLC partition.
    fn beyond_l1_latency(&mut self, thread: ThreadId, block: u64) -> u64 {
        let llc_hit = self.llc[thread.index()].access_block(block);
        if llc_hit {
            self.cfg.llc_latency
        } else {
            self.stats.llc_misses += 1;
            self.cfg.mem_latency
        }
    }

    /// Instruction fetch of the block containing `pc`. Returns the latency in
    /// cycles before the block is available (the front-end stalls the thread
    /// for that long on a miss).
    pub fn fetch(&mut self, thread: ThreadId, pc: u64, _now: Cycle) -> u64 {
        let hit = self.l1i.access(thread, pc);
        if hit {
            self.cfg.l1_hit_latency
        } else {
            self.stats.l1i_misses += 1;
            self.cfg.l1_hit_latency + self.beyond_l1_latency(thread, pc >> 6)
        }
    }

    /// Data load by `thread` at byte address `addr` issued from instruction
    /// `pc` at cycle `now`.
    pub fn load(&mut self, thread: ThreadId, addr: u64, pc: u64, now: Cycle) -> LoadResult {
        self.stats.loads += 1;
        self.train_prefetcher(thread, pc, addr, now);
        let block = addr >> 6;
        if self.l1d.lookup(thread, addr) {
            self.stats.l1d_load_hits += 1;
            return LoadResult::Hit { latency: self.cfg.l1_hit_latency };
        }
        self.stats.l1d_load_misses += 1;
        // Check for an already-outstanding miss to the same block first so a
        // full MSHR file still allows coalescing.
        if let Some(completion) = self.mshrs.lookup(thread, block) {
            return LoadResult::Miss { completion };
        }
        let latency = self.cfg.l1_hit_latency + self.beyond_l1_latency(thread, block);
        match self.mshrs.request(thread, block, now + latency) {
            MshrOutcome::Allocated(c) | MshrOutcome::Coalesced(c) => {
                self.next_event = self.next_event.min(c);
                LoadResult::Miss { completion: c }
            }
            MshrOutcome::Full => {
                self.stats.mshr_rejections += 1;
                LoadResult::NoMshr
            }
        }
    }

    /// Store by `thread` to `addr`. Stores are modelled as draining through a
    /// store buffer at commit: they allocate in the L1-D (write-allocate,
    /// write-back) but never block the pipeline or consume demand MSHRs.
    pub fn store(&mut self, thread: ThreadId, addr: u64, pc: u64, now: Cycle) {
        self.stats.stores += 1;
        self.train_prefetcher(thread, pc, addr, now);
        let hit = self.l1d.access(thread, addr);
        if !hit {
            // Fill path updates the thread's LLC partition contents.
            let _ = self.beyond_l1_latency(thread, addr >> 6);
        }
    }

    fn train_prefetcher(&mut self, thread: ThreadId, pc: u64, addr: u64, now: Cycle) {
        if self.cfg.prefetcher_pc_slots == 0 {
            return;
        }
        if let Some(pf_addr) = self.prefetcher.observe(thread, pc, addr) {
            let block = pf_addr >> 6;
            let queue = &mut self.pending_prefetch[thread.index()];
            if queue.len() >= self.cfg.prefetch_queue_depth {
                return;
            }
            if self.l1d.probe_block(thread, block) || queue.iter().any(|p| p.block == block) {
                return;
            }
            let latency = if self.llc[thread.index()].probe_block(block) {
                self.cfg.llc_latency
            } else {
                self.cfg.mem_latency
            };
            queue.push(PendingPrefetch { block, completion: now + latency });
            self.next_event = self.next_event.min(now + latency);
        }
    }

    /// Advances time to `now`: completes outstanding demand misses (filling
    /// the L1-D) and lands prefetch fills.
    pub fn tick(&mut self, now: Cycle) {
        // Quiescence skip: nothing in flight can fill before the watermark,
        // so the tick is a no-op (bit-exact — a full scan would find nothing).
        if now < self.next_event {
            return;
        }
        let mut fills = std::mem::take(&mut self.scratch_fills);
        let mut landed = std::mem::take(&mut self.scratch_landed);
        let mut next_event = Cycle::MAX;
        for thread in ThreadId::first_n(self.cfg.threads) {
            fills.clear();
            self.mshrs.drain_completed_into(thread, now, &mut fills);
            for &block in &fills {
                self.l1d.fill_block(thread, block);
            }
            let idx = thread.index();
            landed.clear();
            self.pending_prefetch[idx].retain(|p| {
                if p.completion <= now {
                    landed.push(p.block);
                    false
                } else {
                    true
                }
            });
            for &block in &landed {
                self.stats.prefetch_fills += 1;
                self.l1d.fill_block(thread, block);
                self.llc[idx].fill_block(block);
            }
            if let Some(c) = self.mshrs.next_completion(thread) {
                next_event = next_event.min(c);
            }
            for p in &self.pending_prefetch[idx] {
                next_event = next_event.min(p.completion);
            }
        }
        self.next_event = next_event;
        self.scratch_fills = fills;
        self.scratch_landed = landed;
    }

    /// Earliest cycle at which [`MemoryHierarchy::tick`] can change anything
    /// ([`Cycle::MAX`] when nothing is in flight). Never later than the next
    /// fill; a core uses it to bound how far it may skip ahead without
    /// ticking.
    pub fn next_event(&self) -> Cycle {
        self.next_event
    }

    /// Number of outstanding demand misses for `thread` (instantaneous MLP).
    pub fn outstanding_misses(&self, thread: ThreadId) -> usize {
        self.mshrs.outstanding(thread)
    }

    /// Clears per-thread outstanding state on a pipeline flush.
    pub fn flush_thread(&mut self, thread: ThreadId) {
        self.mshrs.clear_thread(thread);
        self.pending_prefetch[thread.index()].clear();
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Resets statistics (e.g. after warm-up) while keeping cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        for c in &mut self.llc {
            c.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hierarchy(l1d_sharing: Sharing) -> MemoryHierarchy {
        let core = CoreConfig::default();
        let mut cfg = HierarchyConfig::from_core(&core);
        cfg.l1d_sharing = l1d_sharing;
        // Shrink the caches so tests exercise misses quickly.
        cfg.l1d =
            CacheConfig { capacity_bytes: 1024, line_bytes: 64, ways: 2, banks: 1, hit_latency: 2 };
        cfg.l1i = cfg.l1d;
        cfg.llc_capacity_bytes = 16 * 1024;
        MemoryHierarchy::new(cfg)
    }

    #[test]
    fn load_hit_after_fill() {
        let mut mem = small_hierarchy(Sharing::Shared);
        let r = mem.load(ThreadId::T0, 0x1_0000, 0x400, 0);
        let completion = match r {
            LoadResult::Miss { completion } => completion,
            other => panic!("expected a miss on a cold cache, got {other:?}"),
        };
        assert!(completion > 0);
        mem.tick(completion);
        match mem.load(ThreadId::T0, 0x1_0000, 0x400, completion + 1) {
            LoadResult::Hit { latency } => assert_eq!(latency, 2),
            other => panic!("expected a hit after the fill, got {other:?}"),
        }
    }

    #[test]
    fn mshr_limit_rejects_excess_misses() {
        let mut mem = small_hierarchy(Sharing::Shared);
        let per_thread = mem.config().mshrs_per_thread;
        let mut rejections = 0;
        for i in 0..(per_thread + 3) as u64 {
            match mem.load(ThreadId::T0, 0x10_0000 + i * 4096, 0x400 + i * 4, 0) {
                LoadResult::NoMshr => rejections += 1,
                LoadResult::Miss { .. } => {}
                LoadResult::Hit { .. } => panic!("cold cache cannot hit"),
            }
        }
        assert_eq!(rejections, 3);
        assert_eq!(mem.outstanding_misses(ThreadId::T0), per_thread);
        // The other thread still has its own MSHRs.
        assert!(matches!(mem.load(ThreadId::T1, 0x20_0000, 0x500, 0), LoadResult::Miss { .. }));
    }

    #[test]
    fn coalesced_loads_share_a_completion() {
        let mut mem = small_hierarchy(Sharing::Shared);
        let a = mem.load(ThreadId::T0, 0x4_0000, 0x100, 0);
        let b = mem.load(ThreadId::T0, 0x4_0008, 0x104, 1);
        let (LoadResult::Miss { completion: ca }, LoadResult::Miss { completion: cb }) = (a, b)
        else {
            panic!("both accesses should miss");
        };
        assert_eq!(ca, cb, "same-block misses must coalesce");
        assert_eq!(mem.outstanding_misses(ThreadId::T0), 1);
    }

    #[test]
    fn llc_hit_is_faster_than_memory() {
        let mut mem = small_hierarchy(Sharing::Shared);
        // First access goes to memory and fills LLC + L1D.
        let LoadResult::Miss { completion: c1 } = mem.load(ThreadId::T0, 0x8_0000, 0x200, 0) else {
            panic!("cold miss expected");
        };
        mem.tick(c1);
        // Evict it from the tiny L1-D by touching conflicting blocks, then
        // re-access: it should now hit in the LLC partition (shorter latency).
        for i in 1..5u64 {
            mem.store(ThreadId::T0, 0x8_0000 + i * 512, 0x300, c1 + i);
        }
        let now = c1 + 100;
        let LoadResult::Miss { completion: c2 } = mem.load(ThreadId::T0, 0x8_0000, 0x200, now)
        else {
            panic!("expected an L1 miss after eviction");
        };
        let llc_lat = mem.config().llc_latency + mem.config().l1_hit_latency;
        assert_eq!(c2 - now, llc_lat, "second access should be an LLC hit");
        assert!(c1 > llc_lat, "first access should have paid the memory latency");
    }

    #[test]
    fn shared_l1d_lets_threads_interfere_private_does_not() {
        // Thread 1 streams over a large working set; thread 0 repeatedly
        // touches one block. Under a shared L1-D the streaming evicts thread
        // 0's block; under private L1-Ds it cannot.
        let run = |sharing: Sharing| -> u64 {
            let mut mem = small_hierarchy(sharing);
            let mut t0_misses = 0;
            let mut now = 0;
            // Prime thread 0's block.
            let _ = mem.load(ThreadId::T0, 0x1000, 0x40, now);
            mem.tick(now + 500);
            now += 500;
            for round in 0..50u64 {
                for i in 0..32u64 {
                    mem.store(ThreadId::T1, 0x100_0000 + (round * 32 + i) * 64, 0x80, now);
                    now += 1;
                }
                match mem.load(ThreadId::T0, 0x1000, 0x40, now) {
                    LoadResult::Hit { .. } => {}
                    _ => t0_misses += 1,
                }
                mem.tick(now + 500);
                now += 500;
            }
            t0_misses
        };
        let shared_misses = run(Sharing::Shared);
        let private_misses = run(Sharing::PrivatePerThread);
        assert!(
            shared_misses > private_misses,
            "shared L1-D should cause more misses for the victim thread \
             (shared={shared_misses}, private={private_misses})"
        );
        assert_eq!(private_misses, 0);
    }

    #[test]
    fn prefetcher_fills_ahead_of_stride_stream() {
        let mut mem = small_hierarchy(Sharing::Shared);
        let mut now = 0;
        // Walk a stride-1-block stream; after the stride locks on, later
        // accesses should increasingly hit thanks to prefetch fills.
        let mut late_hits = 0;
        for i in 0..40u64 {
            let addr = 0x50_0000 + i * 64;
            match mem.load(ThreadId::T0, addr, 0x900, now) {
                LoadResult::Hit { .. } => {
                    if i > 10 {
                        late_hits += 1;
                    }
                }
                LoadResult::Miss { completion } => now = completion,
                LoadResult::NoMshr => {}
            }
            now += 1;
            mem.tick(now);
        }
        assert!(
            late_hits > 5,
            "stride prefetcher should convert later accesses to hits (got {late_hits})"
        );
        assert!(mem.stats().prefetch_fills > 0);
    }

    #[test]
    fn fetch_miss_pays_llc_or_memory_latency() {
        let mut mem = small_hierarchy(Sharing::Shared);
        let cold = mem.fetch(ThreadId::T0, 0x7777_0000, 0);
        let warm = mem.fetch(ThreadId::T0, 0x7777_0000, 1);
        assert!(cold > warm);
        assert_eq!(warm, mem.config().l1_hit_latency);
        assert_eq!(mem.stats().l1i_misses, 1);
    }

    #[test]
    fn flush_clears_outstanding_state() {
        let mut mem = small_hierarchy(Sharing::Shared);
        let _ = mem.load(ThreadId::T0, 0x9_0000, 0x100, 0);
        assert_eq!(mem.outstanding_misses(ThreadId::T0), 1);
        mem.flush_thread(ThreadId::T0);
        assert_eq!(mem.outstanding_misses(ThreadId::T0), 0);
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let mut mem = small_hierarchy(Sharing::Shared);
        let LoadResult::Miss { completion } = mem.load(ThreadId::T0, 0x3_0000, 0x10, 0) else {
            panic!("cold miss expected");
        };
        mem.tick(completion);
        mem.reset_stats();
        assert_eq!(mem.stats().loads, 0);
        // Content retained: the block still hits.
        assert!(matches!(
            mem.load(ThreadId::T0, 0x3_0000, 0x10, completion + 1),
            LoadResult::Hit { .. }
        ));
    }
}
