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
//! * [`MemoryHierarchy::rejected_load_is_steady`] /
//!   [`MemoryHierarchy::repeat_rejected_loads`] — when a load that finds
//!   every MSHR busy can be retried in bulk, and `k` such retries applied in
//!   closed form. The core's time warp uses them to skip the cycles in which
//!   a thread only retries such a load.
//!
//! A load rejected for want of an MSHR is not free: [`MemoryHierarchy::load`]
//! trains the prefetcher and accesses the thread's LLC partition before it
//! asks for an MSHR, and every attempt counts in the load statistics. After
//! two attempts with nothing in between, the retry reaches a fixed point: the
//! block sits in the LLC partition, the prefetcher entry holds a zero stride,
//! and each further attempt moves only counters, clocks and LRU stamps until
//! the next fill.
//! Such a *steady* retry is what the bulk path applies, so both paths are
//! defined next to `load` in this file.
//!
//! The LLC is always partitioned per thread (the paper partitions it with
//! Intel CAT-style way partitioning to take LLC contention out of the
//! picture); the L1s can be shared or private per thread (see
//! [`crate::cache::Sharing`]).

use crate::cache::{SetAssocCache, Sharing, ThreadedCache};
use crate::mshr::{MshrFile, MshrOutcome};
use crate::prefetch::StridePrefetcher;
use sim_model::{CacheConfig, CoreConfig, Cycle, ThreadId};

/// Configuration of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// Number of SMT hardware threads sharing the hierarchy (T >= 1).
    pub threads: usize,
    /// L1 instruction cache geometry and hit latency.
    pub l1i: CacheConfig,
    /// L1 data cache geometry and hit latency.
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
    /// Maximum in-flight prefetch fills per thread.
    pub prefetch_queue_depth: usize,
}

impl HierarchyConfig {
    /// Derives the hierarchy configuration of an SMT-`threads` core from a
    /// [`CoreConfig`] (Table II defaults), with both L1s dynamically shared
    /// as in the baseline core.
    pub fn from_core(core: &CoreConfig, threads: usize) -> HierarchyConfig {
        HierarchyConfig {
            threads,
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
            prefetch_queue_depth: 8,
        }
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
///
/// The load counters count *attempts*: a load the core retries because no
/// MSHR was free counts again on every retry (see [`MemoryHierarchy::load`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Demand load attempts observed, retries after an MSHR rejection
    /// included.
    pub loads: u64,
    /// Stores observed.
    pub stores: u64,
    /// Load attempts that hit in the L1-D.
    pub l1d_load_hits: u64,
    /// Load attempts that missed in the L1-D, retries after an MSHR
    /// rejection included: a load rejected `k` times counts `k + 1` misses.
    pub l1d_load_misses: u64,
    /// L1-D misses that also missed the LLC (went to memory). A rejected
    /// attempt already fills the LLC partition, so a load that waits for an
    /// MSHR counts here at its first attempt and its retries hit the LLC.
    pub llc_misses: u64,
    /// Instruction-fetch blocks that missed the L1-I.
    pub l1i_misses: u64,
    /// Prefetch fills installed.
    pub prefetch_fills: u64,
    /// Load attempts rejected because no MSHR was free; each retry that is
    /// rejected again counts again.
    pub mshr_rejections: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
            l1i: ThreadedCache::new(&cfg.l1i, cfg.l1i_sharing, cfg.threads),
            l1d: ThreadedCache::new(&cfg.l1d, cfg.l1d_sharing, cfg.threads),
            llc: (0..cfg.threads).map(|_| SetAssocCache::with_geometry(sets, share_ways)).collect(),
            mshrs: MshrFile::new(cfg.mshrs_per_thread, cfg.threads),
            prefetcher: StridePrefetcher::new(cfg.prefetcher_pc_slots, cfg.threads),
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
    /// cycles before the block is available: the L1-I's own hit latency on a
    /// hit, plus the LLC or memory latency on a miss (the front-end stalls
    /// the thread for that long).
    pub fn fetch(&mut self, thread: ThreadId, pc: u64, _now: Cycle) -> u64 {
        let hit = self.l1i.access(thread, pc);
        if hit {
            self.cfg.l1i.hit_latency
        } else {
            self.stats.l1i_misses += 1;
            self.cfg.l1i.hit_latency + self.beyond_l1_latency(thread, pc >> 6)
        }
    }

    /// Data load by `thread` at byte address `addr` issued from instruction
    /// `pc` at cycle `now`.
    ///
    /// The load trains the prefetcher and looks up the L1-D. On a miss that
    /// does not coalesce onto an outstanding one, it accesses the thread's
    /// LLC partition (filling it on an LLC miss) and only then asks for an
    /// MSHR. Two consequences for a load rejected with
    /// [`LoadResult::NoMshr`]:
    ///
    /// * its block is already in the LLC partition, and an LLC miss was
    ///   counted, so once an MSHR frees the retry is charged the LLC latency
    ///   rather than memory's;
    /// * every attempt counts in [`HierarchyStats::loads`] and
    ///   [`HierarchyStats::l1d_load_misses`], retries included.
    ///
    /// Both are simplifications of the model, kept because changing them
    /// moves cycle counts. Once a rejected retry is steady
    /// ([`MemoryHierarchy::rejected_load_is_steady`]), `k` more attempts
    /// equal one [`MemoryHierarchy::repeat_rejected_loads`] call.
    pub fn load(&mut self, thread: ThreadId, addr: u64, pc: u64, now: Cycle) -> LoadResult {
        self.stats.loads += 1;
        self.train_prefetcher(thread, pc, addr, now);
        let block = addr >> 6;
        if self.l1d.lookup(thread, addr) {
            self.stats.l1d_load_hits += 1;
            return LoadResult::Hit { latency: self.cfg.l1d.hit_latency };
        }
        self.stats.l1d_load_misses += 1;
        // Check for an already-outstanding miss to the same block first so a
        // full MSHR file still allows coalescing.
        if let Some(completion) = self.mshrs.lookup(thread, block) {
            return LoadResult::Miss { completion };
        }
        let latency = self.cfg.l1d.hit_latency + self.beyond_l1_latency(thread, block);
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

    /// Whether a load by `thread` at `addr` from `pc`, issued now, is a
    /// *steady* rejection: [`MemoryHierarchy::load`] would return
    /// [`LoadResult::NoMshr`] and change nothing but counters, clocks and
    /// LRU stamps. That holds exactly when
    ///
    /// * every one of the thread's MSHRs is busy and none holds the block
    ///   (so the load can neither allocate nor coalesce);
    /// * the block is not in the thread's L1-D (shared or private copy);
    /// * the block is resident in the thread's LLC partition (so the access
    ///   hits and fills nothing);
    /// * prefetching is off, or the pc's prefetcher entry last saw `addr`
    ///   and holds a zero stride in its transient state (so training
    ///   predicts nothing and leaves the entry as it is).
    ///
    /// A first rejected attempt may fill the LLC and leave a nonzero stride
    /// (or allocate the pc's entry); the second sets the stride to zero. So
    /// when nothing else intervenes, the third attempt is steady, and so is
    /// every one after it until something else touches the thread's MSHRs,
    /// its L1-D, its LLC partition or the pc's prefetcher entry: a fill, a
    /// store, an instruction fetch or another load.
    pub fn rejected_load_is_steady(&self, thread: ThreadId, addr: u64, pc: u64) -> bool {
        let block = addr >> 6;
        self.mshrs.outstanding(thread) >= self.mshrs.capacity()
            && self.mshrs.lookup(thread, block).is_none()
            && !self.l1d.probe_block(thread, block)
            && self.llc[thread.index()].probe_block(block)
            && (self.cfg.prefetcher_pc_slots == 0
                || self.prefetcher.repeat_is_inert(thread, pc, addr))
    }

    /// Applies `cycles` rounds of steady rejected loads in closed form. Each
    /// round retries every `(thread, addr, pc)` of `order` once, in order,
    /// and the result is bit for bit what `cycles × order.len()` calls to
    /// [`MemoryHierarchy::load`] leave behind. Every load must be steady
    /// ([`MemoryHierarchy::rejected_load_is_steady`]) and no thread may
    /// appear twice.
    ///
    /// Per retry, the load, L1-D miss and MSHR rejection counters, the
    /// thread's L1-D clock and miss count (a shared L1-D advances once per
    /// retrying thread), its LLC partition's clock and hit count, and the
    /// prefetcher clock each advance by one; the block's LLC stamp and the
    /// pc's prefetcher stamp take the clock of the access. The prefetcher
    /// clock is shared by all threads, so `order` — the issue order of the
    /// *last* round — decides which stamp each prefetcher entry ends on.
    pub fn repeat_rejected_loads(&mut self, order: &[(ThreadId, u64, u64)], cycles: u64) {
        if cycles == 0 {
            return;
        }
        let retries = order.len() as u64 * cycles;
        self.stats.loads += retries;
        self.stats.l1d_load_misses += retries;
        self.stats.mshr_rejections += retries;
        let prefetcher_end = (self.cfg.prefetcher_pc_slots > 0)
            .then(|| self.prefetcher.skip_inert_observations(retries));
        for (i, &(thread, addr, pc)) in order.iter().enumerate() {
            debug_assert!(self.rejected_load_is_steady(thread, addr, pc), "unsteady retry");
            debug_assert!(order[..i].iter().all(|&(t, _, _)| t != thread), "{thread} twice");
            self.l1d.repeat_misses(thread, cycles);
            self.llc[thread.index()].repeat_hits(addr >> 6, cycles);
            if let Some(end) = prefetcher_end {
                self.prefetcher.restamp(thread, pc, end - (order.len() - 1 - i) as u64);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hierarchy(l1d_sharing: Sharing) -> MemoryHierarchy {
        let core = CoreConfig::default();
        let mut cfg = HierarchyConfig::from_core(&core, 2);
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
        let llc_lat = mem.config().llc_latency + mem.config().l1d.hit_latency;
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
        assert_eq!(warm, mem.config().l1i.hit_latency);
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

    /// Occupies every MSHR of `thread` with misses to distinct far blocks,
    /// issued one cycle apart from `now` so that they complete one by one.
    fn occupy_mshrs(mem: &mut MemoryHierarchy, thread: ThreadId, now: Cycle) {
        let base = 0x4000_0000 * (thread.index() as u64 + 1);
        let free = mem.config().mshrs_per_thread - mem.outstanding_misses(thread);
        for i in 0..free as u64 {
            let r = mem.load(thread, base + i * 4096, 0x9000 + i * 4, now + i);
            assert!(matches!(r, LoadResult::Miss { .. }), "{r:?}");
        }
    }

    /// Retries `(thread, addr, pc)` until the retry is steady; it must be
    /// rejected every time and settle within two attempts.
    fn settle(mem: &mut MemoryHierarchy, thread: ThreadId, addr: u64, pc: u64) {
        for _ in 0..2 {
            assert_eq!(mem.load(thread, addr, pc, 10), LoadResult::NoMshr);
        }
        assert!(mem.rejected_load_is_steady(thread, addr, pc));
    }

    #[test]
    fn a_first_rejection_that_leaves_a_stride_is_not_steady() {
        let mut mem = small_hierarchy(Sharing::Shared);
        // The pc last saw another address, so the first rejected attempt
        // trains a nonzero stride (and fills the LLC partition).
        assert!(matches!(mem.load(ThreadId::T0, 0x5_0000, 0x100, 0), LoadResult::Miss { .. }));
        occupy_mshrs(&mut mem, ThreadId::T0, 1);
        assert_eq!(mem.load(ThreadId::T0, 0x5_1000, 0x100, 10), LoadResult::NoMshr);
        assert!(!mem.rejected_load_is_steady(ThreadId::T0, 0x5_1000, 0x100));
        // The second attempt zeroes the stride: from now on it is steady.
        assert_eq!(mem.load(ThreadId::T0, 0x5_1000, 0x100, 11), LoadResult::NoMshr);
        assert!(mem.rejected_load_is_steady(ThreadId::T0, 0x5_1000, 0x100));
    }

    #[test]
    fn an_l1d_resident_block_is_not_steady() {
        let mut mem = small_hierarchy(Sharing::Shared);
        occupy_mshrs(&mut mem, ThreadId::T0, 0);
        // Two stores from one pc put the block in the L1-D and the LLC and
        // leave the pc's entry on a zero stride: only the L1-D copy differs
        // from a steady retry.
        mem.store(ThreadId::T0, 0x6_0000, 0x200, 1);
        mem.store(ThreadId::T0, 0x6_0000, 0x200, 2);
        assert!(!mem.rejected_load_is_steady(ThreadId::T0, 0x6_0000, 0x200));
        assert!(matches!(mem.load(ThreadId::T0, 0x6_0000, 0x200, 3), LoadResult::Hit { .. }));
    }

    #[test]
    fn a_free_mshr_is_not_steady() {
        let mut mem = small_hierarchy(Sharing::Shared);
        occupy_mshrs(&mut mem, ThreadId::T0, 0);
        settle(&mut mem, ThreadId::T0, 0x6_0000, 0x200);
        // The first miss completes alone (the others were issued later).
        mem.tick(mem.next_event());
        assert_eq!(mem.outstanding_misses(ThreadId::T0), mem.config().mshrs_per_thread - 1);
        assert!(!mem.rejected_load_is_steady(ThreadId::T0, 0x6_0000, 0x200));
        assert!(matches!(mem.load(ThreadId::T0, 0x6_0000, 0x200, 400), LoadResult::Miss { .. }));
    }

    #[test]
    fn an_outstanding_block_coalesces_and_is_not_steady() {
        let mut mem = small_hierarchy(Sharing::Shared);
        // Two loads from one pc: the first allocates an MSHR (and fills the
        // LLC partition), the second coalesces and zeroes the stride.
        assert!(matches!(mem.load(ThreadId::T0, 0x6_0000, 0x200, 0), LoadResult::Miss { .. }));
        assert!(matches!(mem.load(ThreadId::T0, 0x6_0000, 0x200, 1), LoadResult::Miss { .. }));
        occupy_mshrs(&mut mem, ThreadId::T0, 2);
        assert!(!mem.rejected_load_is_steady(ThreadId::T0, 0x6_0000, 0x200));
        assert!(matches!(mem.load(ThreadId::T0, 0x6_0000, 0x200, 9), LoadResult::Miss { .. }));
    }
}
