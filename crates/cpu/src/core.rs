//! The SMT out-of-order core model (T hardware threads; the paper's core is
//! the T = 2 instance).
//!
//! The pipeline implements the Table II core: a 6-wide front end with ICOUNT
//! thread selection, a hybrid branch predictor, shared or private L1 caches,
//! a 192-entry ROB and 64-entry LSQ with per-thread limit/usage registers
//! (the structures Stretch reprograms), a Table II functional-unit mix, and
//! 6-wide round-robin commit. The SMT width is set at build time via
//! [`SmtCoreBuilder::smt_width`]; every arbiter (fetch selection, dispatch
//! preference, issue and commit round-robin) rotates over all T threads and
//! reduces exactly to the classic pair behaviour at T = 2.
//!
//! The model is trace-driven and cycle-level. Each [`SmtCore::step`] runs one
//! cycle: it completes finished instructions, commits from the ROB heads,
//! issues ready instructions subject to functional-unit and MSHR
//! constraints, dispatches from the per-thread fetch buffers subject to the
//! ROB/LSQ partition limits, and fetches from the workload trace generators
//! subject to I-cache misses, branch redirects and fetch-bandwidth limits.
//!
//! Most cycles of a memory-bound run do none of that: every thread waits on
//! a miss, a fetch stall or a branch redirect. Two mechanisms keep those
//! cycles cheap without changing a single result bit:
//!
//! * The issue and complete stages walk per-thread work lists (the sequence
//!   numbers of `Dispatched` and of `Issued` entries) instead of the whole
//!   ROB, and wake-up checks read the producer's ROB status by its
//!   per-thread sequence number.
//! * [`SmtCore::skip_quiescent`] warps over a run of cycles in which no
//!   stage can act, applying their only effects (clocks, round-robin
//!   rotations, the MLP census) in bulk; [`crate::run_core`] calls it after
//!   every step.

use crate::branch::{BranchPredictor, BranchStats, Prediction};
use crate::fetch::{FetchPolicy, FetchScheduler};
use crate::partition::PartitionPolicy;
use mem_sim::{HierarchyConfig, HierarchyStats, LoadResult, MemoryHierarchy, Sharing};
use sim_model::{
    BoxedTrace, CoreConfig, Cycle, MicroOp, OpKind, ThreadId, TraceGenerator, NUM_LOGICAL_REGS,
};
use sim_stats::Histogram;
use std::collections::VecDeque;

pub use sim_model::trace::BoxedTrace as ThreadTrace;

/// Status of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryStatus {
    /// In the ROB, waiting for operands or a functional unit.
    Dispatched,
    /// Executing; result available at `completion`.
    Issued,
    /// Finished execution; eligible for commit when it reaches the ROB head.
    Completed,
}

/// Sentinel for an absent producer. It lies far past any live sequence
/// number, so [`Rob::pending`] reports it as already complete.
const NO_DEP: u64 = u64::MAX;

/// A reorder buffer in structure-of-arrays layout.
///
/// Every dispatched instruction gets a per-thread sequence number: the
/// entry at index `i` has sequence number `head_seq + i`. Sequence numbers
/// below `head_seq` belong to committed (or flushed) instructions, so a
/// producer is still pending exactly when its number indexes an entry that
/// is not yet `Completed` ([`Rob::pending`]) — one indexed load.
///
/// The field queues move in lock-step: entries enter at the back in
/// dispatch order and leave from the front at commit, so index `i`
/// addresses one instruction across every field. The issue stage walks only
/// `dispatched` and the complete stage only `issued`, touching the `MicroOp`
/// payload only when an instruction actually issues or commits.
#[derive(Debug, Default)]
struct Rob {
    /// Sequence number of the head entry.
    head_seq: u64,
    ids: VecDeque<u64>,
    uops: VecDeque<MicroOp>,
    status: VecDeque<EntryStatus>,
    completion: VecDeque<Cycle>,
    /// Producer sequence numbers per source operand, [`NO_DEP`] when absent.
    deps: VecDeque<[u64; 2]>,
    mispredicted: VecDeque<bool>,
    in_lsq: VecDeque<bool>,
    /// Sequence numbers of the `Dispatched` entries, in age order.
    dispatched: Vec<u64>,
    /// Sequence numbers of the `Issued` entries, in issue order.
    issued: Vec<u64>,
}

impl Rob {
    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Sequence number the next dispatched entry receives.
    fn next_seq(&self) -> u64 {
        self.head_seq + self.len() as u64
    }

    /// ROB index of the entry with sequence number `seq`.
    fn index(&self, seq: u64) -> usize {
        (seq - self.head_seq) as usize
    }

    /// Whether the producer with sequence number `seq` has yet to complete.
    /// Committed and flushed producers (below `head_seq`) wrap to an index
    /// past the end, as does [`NO_DEP`].
    fn pending(&self, seq: u64) -> bool {
        self.status
            .get(seq.wrapping_sub(self.head_seq) as usize)
            .is_some_and(|&s| s != EntryStatus::Completed)
    }

    fn push_back(
        &mut self,
        id: u64,
        uop: MicroOp,
        deps: [u64; 2],
        mispredicted: bool,
        in_lsq: bool,
    ) {
        self.dispatched.push(self.next_seq());
        self.ids.push_back(id);
        self.uops.push_back(uop);
        self.status.push_back(EntryStatus::Dispatched);
        self.completion.push_back(0);
        self.deps.push_back(deps);
        self.mispredicted.push_back(mispredicted);
        self.in_lsq.push_back(in_lsq);
    }

    /// Pops the head entry (which must be `Completed`), returning the fields
    /// commit needs.
    fn pop_front(&mut self) -> Option<(MicroOp, bool)> {
        let uop = self.uops.pop_front()?;
        self.head_seq += 1;
        self.ids.pop_front();
        self.status.pop_front();
        self.completion.pop_front();
        self.deps.pop_front();
        self.mispredicted.pop_front();
        let in_lsq = self.in_lsq.pop_front().expect("rob queues move in lock-step");
        Some((uop, in_lsq))
    }

    /// Squashes every entry, appending the micro-ops to `squashed` in age
    /// order. The sequence numbers of the squashed entries are retired with
    /// them, so no later entry reuses one.
    fn flush_into(&mut self, squashed: &mut Vec<MicroOp>) {
        self.head_seq = self.next_seq();
        squashed.extend(self.uops.drain(..));
        self.ids.clear();
        self.status.clear();
        self.completion.clear();
        self.deps.clear();
        self.mispredicted.clear();
        self.in_lsq.clear();
        self.dispatched.clear();
        self.issued.clear();
    }
}

#[derive(Debug, Clone)]
struct FetchedOp {
    id: u64,
    uop: MicroOp,
    mispredicted: bool,
}

/// Per-thread execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadStats {
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Branches committed.
    pub branches: u64,
    /// Pipeline flushes caused by mispredicted branches of this thread.
    pub branch_flushes: u64,
    /// Pipeline flushes caused by Stretch mode changes.
    pub mode_change_flushes: u64,
}

/// Per-thread state: its trace, ROB partition occupancy, fetch buffer and
/// register scoreboard.
struct ThreadState {
    trace: Option<BoxedTrace>,
    rob: Rob,
    lsq_occupancy: usize,
    fetch_buffer: VecDeque<FetchedOp>,
    /// Micro-ops squashed by a mode-change flush, awaiting re-fetch.
    replay: VecDeque<MicroOp>,
    /// One micro-op pulled from the trace but not yet accepted by fetch
    /// (bandwidth or stall limits); retried first on the next fetch cycle.
    pending_fetch: Option<MicroOp>,
    /// ROB sequence number of the youngest dispatched writer of each
    /// register ([`NO_DEP`] when none since the last flush).
    last_writer: [u64; NUM_LOGICAL_REGS],
    fetch_stall_until: Cycle,
    /// Id of an unresolved mispredicted branch blocking fetch, if any.
    waiting_branch: Option<u64>,
    /// Earliest completion cycle among this thread's `Issued` entries
    /// ([`Cycle::MAX`] when none are executing). The complete stage skips the
    /// thread's scan entirely before this watermark — a scan that early
    /// would find nothing, so the skip is bit-exact. Maintained exactly: the
    /// issue stage min-updates it and every real complete scan recomputes it.
    next_completion: Cycle,
    /// True when the last issue scan found zero ready-to-issue entries and no
    /// wake event has occurred since, so the scan can be skipped. Wake events
    /// (which clear the flag) are a dispatch into this thread, a completion
    /// of this thread's instruction (dependences are intra-thread), and a
    /// pipeline flush. The flag is conservative: it is only set when a scan
    /// actually came up empty, never when entries were merely budget- or
    /// FU-starved.
    issue_idle: bool,
    stats: ThreadStats,
    mlp: Histogram,
}

impl ThreadState {
    fn new() -> ThreadState {
        ThreadState {
            trace: None,
            rob: Rob::default(),
            lsq_occupancy: 0,
            fetch_buffer: VecDeque::new(),
            replay: VecDeque::new(),
            pending_fetch: None,
            last_writer: [NO_DEP; NUM_LOGICAL_REGS],
            fetch_stall_until: 0,
            waiting_branch: None,
            next_completion: Cycle::MAX,
            issue_idle: false,
            stats: ThreadStats::default(),
            mlp: Histogram::new(10),
        }
    }

    fn in_flight(&self) -> usize {
        self.rob.len() + self.fetch_buffer.len()
    }

    fn active(&self) -> bool {
        self.trace.is_some()
    }
}

/// The simulated SMT core.
pub struct SmtCore {
    cfg: CoreConfig,
    mem: MemoryHierarchy,
    bp: BranchPredictor,
    fetch_policy: FetchPolicy,
    scheduler: FetchScheduler,
    partition: PartitionPolicy,
    now: Cycle,
    next_id: u64,
    threads: Vec<ThreadState>,
    /// Round-robin commit preference (rotates each cycle).
    commit_preference: usize,
    total_cycles_run: u64,
    /// Cycles skipped by [`SmtCore::skip_quiescent`], counted like
    /// `total_cycles_run` (both reset together).
    warped_cycles: u64,
    /// Reusable scratch for `fetch_thread`'s touched I-cache blocks.
    scratch_blocks: Vec<u64>,
    /// Reusable scratch for `flush_thread`'s squashed micro-ops.
    scratch_squashed: Vec<MicroOp>,
    /// Reusable scratch for `fetch`'s per-thread in-flight counts.
    scratch_in_flight: Vec<usize>,
    /// Reusable scratch for `fetch`'s per-thread activity flags.
    scratch_active: Vec<bool>,
}

/// Builder for [`SmtCore`].
pub struct SmtCoreBuilder {
    cfg: CoreConfig,
    fetch_policy: FetchPolicy,
    partition: Option<PartitionPolicy>,
    l1i_sharing: Sharing,
    l1d_sharing: Sharing,
    bp_sharing: Sharing,
    smt_width: usize,
    traces: Vec<Option<BoxedTrace>>,
}

impl SmtCoreBuilder {
    /// Starts a builder with the given core configuration, the baseline
    /// ICOUNT fetch policy, equal ROB/LSQ partitioning, shared L1s and branch
    /// predictor, and the classic SMT-2 width — the §V-A baseline core.
    pub fn new(cfg: CoreConfig) -> SmtCoreBuilder {
        SmtCoreBuilder {
            cfg,
            fetch_policy: FetchPolicy::ICount,
            partition: None,
            l1i_sharing: Sharing::Shared,
            l1d_sharing: Sharing::Shared,
            bp_sharing: Sharing::Shared,
            smt_width: 2,
            traces: vec![None, None],
        }
    }

    /// Sets the number of hardware threads (SMT width, T ≥ 1).
    ///
    /// Traces already attached to threads at or above the new width are
    /// dropped. Unless an explicit [`SmtCoreBuilder::partition`] is given,
    /// the default partition becomes the equal T-way split.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn smt_width(mut self, width: usize) -> SmtCoreBuilder {
        assert!(width >= 1, "a core needs at least one hardware thread");
        self.smt_width = width;
        self.traces.resize_with(width, || None);
        self
    }

    /// Sets the fetch (thread selection) policy.
    pub fn fetch_policy(mut self, policy: FetchPolicy) -> SmtCoreBuilder {
        self.fetch_policy = policy;
        self
    }

    /// Sets the ROB/LSQ partitioning policy. When not called, the core uses
    /// the equal split across its SMT width.
    pub fn partition(mut self, partition: PartitionPolicy) -> SmtCoreBuilder {
        self.partition = Some(partition);
        self
    }

    /// Sets the L1-I sharing mode.
    pub fn l1i_sharing(mut self, sharing: Sharing) -> SmtCoreBuilder {
        self.l1i_sharing = sharing;
        self
    }

    /// Sets the L1-D sharing mode.
    pub fn l1d_sharing(mut self, sharing: Sharing) -> SmtCoreBuilder {
        self.l1d_sharing = sharing;
        self
    }

    /// Sets the branch-predictor table sharing mode.
    pub fn bp_sharing(mut self, sharing: Sharing) -> SmtCoreBuilder {
        self.bp_sharing = sharing;
        self
    }

    /// Attaches a workload trace to a hardware thread.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is outside the configured SMT width.
    pub fn thread(mut self, thread: ThreadId, trace: BoxedTrace) -> SmtCoreBuilder {
        assert!(
            thread.index() < self.smt_width,
            "thread {thread} out of range for an SMT-{} core (set smt_width first)",
            self.smt_width
        );
        self.traces[thread.index()] = Some(trace);
        self
    }

    /// Builds the core.
    ///
    /// # Panics
    ///
    /// Panics if the core configuration fails validation, or if an explicit
    /// static partition does not cover exactly the configured SMT width.
    pub fn build(self) -> SmtCore {
        self.cfg.validate().expect("invalid core configuration");
        let partition =
            self.partition.unwrap_or_else(|| PartitionPolicy::equal_n(&self.cfg, self.smt_width));
        if let Some(covered) = partition.threads() {
            assert!(
                covered == self.smt_width,
                "partition covers {covered} threads but the core has {}",
                self.smt_width
            );
        }
        let mut hier_cfg = HierarchyConfig::from_core(&self.cfg);
        hier_cfg.threads = self.smt_width;
        hier_cfg.l1i_sharing = self.l1i_sharing;
        hier_cfg.l1d_sharing = self.l1d_sharing;
        let mem = MemoryHierarchy::new(hier_cfg);
        let bp = BranchPredictor::with_threads(self.cfg.branch, self.bp_sharing, self.smt_width);
        let mut threads: Vec<ThreadState> =
            (0..self.smt_width).map(|_| ThreadState::new()).collect();
        for (state, trace) in threads.iter_mut().zip(self.traces) {
            state.trace = trace;
        }
        SmtCore {
            cfg: self.cfg,
            mem,
            bp,
            fetch_policy: self.fetch_policy,
            scheduler: FetchScheduler::new(),
            partition,
            now: 0,
            next_id: 0,
            threads,
            commit_preference: 0,
            total_cycles_run: 0,
            warped_cycles: 0,
            scratch_blocks: Vec::new(),
            scratch_squashed: Vec::new(),
            scratch_in_flight: Vec::new(),
            scratch_active: Vec::new(),
        }
    }
}

impl SmtCore {
    /// Convenience constructor: baseline core with the given traces.
    pub fn baseline(cfg: CoreConfig, t0: BoxedTrace, t1: BoxedTrace) -> SmtCore {
        SmtCoreBuilder::new(cfg).thread(ThreadId::T0, t0).thread(ThreadId::T1, t1).build()
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Current partitioning policy.
    pub fn partition(&self) -> &PartitionPolicy {
        &self.partition
    }

    /// Number of hardware threads (SMT width) of this core.
    pub fn smt_width(&self) -> usize {
        self.threads.len()
    }

    /// Per-thread statistics.
    pub fn thread_stats(&self, thread: ThreadId) -> ThreadStats {
        self.threads[thread.index()].stats
    }

    /// Branch prediction statistics for a thread.
    pub fn branch_stats(&self, thread: ThreadId) -> BranchStats {
        self.bp.stats(thread)
    }

    /// Memory hierarchy statistics.
    pub fn memory_stats(&self) -> HierarchyStats {
        self.mem.stats()
    }

    /// MLP census for a thread: a histogram of outstanding-demand-miss counts
    /// sampled every cycle (Figure 7).
    pub fn mlp_census(&self, thread: ThreadId) -> &Histogram {
        &self.threads[thread.index()].mlp
    }

    /// Number of instructions committed by a thread so far.
    pub fn committed(&self, thread: ThreadId) -> u64 {
        self.threads[thread.index()].stats.committed
    }

    /// Total cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.total_cycles_run
    }

    /// How many of [`SmtCore::cycles`] were skipped by
    /// [`SmtCore::skip_quiescent`] rather than stepped. A deterministic
    /// counter: it depends only on the simulated run, never on the host.
    pub fn warped_cycles(&self) -> u64 {
        self.warped_cycles
    }

    /// Whether a thread has a workload attached.
    pub fn thread_active(&self, thread: ThreadId) -> bool {
        self.threads[thread.index()].active()
    }

    /// Resets all statistics (commit counts, MLP census, cache/branch stats)
    /// without disturbing microarchitectural state. Used at the end of the
    /// warm-up window.
    pub fn reset_stats(&mut self) {
        for t in &mut self.threads {
            t.stats = ThreadStats::default();
            t.mlp = Histogram::new(10);
        }
        self.bp.reset_stats();
        self.mem.reset_stats();
        self.total_cycles_run = 0;
        self.warped_cycles = 0;
    }

    /// Reprograms the ROB/LSQ limit registers (a Stretch mode change or a
    /// return to the baseline). Per §IV-C, the change is accompanied by a
    /// pipeline flush of both threads; set `flush` to `false` only for
    /// experiments that want to isolate the steady-state effect.
    pub fn set_partition(&mut self, partition: PartitionPolicy, flush: bool) {
        if let Some(covered) = partition.threads() {
            assert!(
                covered == self.threads.len(),
                "partition covers {covered} threads but the core has {}",
                self.threads.len()
            );
        }
        self.partition = partition;
        if flush {
            for thread in ThreadId::first_n(self.threads.len()) {
                self.flush_thread(thread, true);
            }
        }
    }

    /// Squashes all in-flight instructions of `thread`, queueing them for
    /// re-fetch, and stalls its fetch for the redirect penalty.
    fn flush_thread(&mut self, thread: ThreadId, mode_change: bool) {
        let penalty = self.cfg.pipeline_flush_cycles;
        let now = self.now;
        let mut squashed = std::mem::take(&mut self.scratch_squashed);
        squashed.clear();
        let t = &mut self.threads[thread.index()];
        t.rob.flush_into(&mut squashed);
        squashed.extend(t.fetch_buffer.drain(..).map(|f| f.uop));
        // Re-fetch the squashed instructions before pulling new ones from the
        // trace, so the committed instruction stream is unchanged.
        for uop in squashed.drain(..).rev() {
            t.replay.push_front(uop);
        }
        self.scratch_squashed = squashed;
        let t = &mut self.threads[thread.index()];
        t.lsq_occupancy = 0;
        t.last_writer = [NO_DEP; NUM_LOGICAL_REGS];
        t.waiting_branch = None;
        t.next_completion = Cycle::MAX;
        t.issue_idle = false;
        t.fetch_stall_until = t.fetch_stall_until.max(now + penalty);
        if mode_change {
            t.stats.mode_change_flushes += 1;
        }
        self.mem.flush_thread(thread);
    }

    fn rob_limit(&self, thread: ThreadId) -> usize {
        self.partition.rob_limit(&self.cfg, thread)
    }

    fn lsq_limit(&self, thread: ThreadId) -> usize {
        self.partition.lsq_limit(&self.cfg, thread)
    }

    fn total_rob_occupancy(&self) -> usize {
        self.threads.iter().map(|t| t.rob.len()).sum()
    }

    fn total_lsq_occupancy(&self) -> usize {
        self.threads.iter().map(|t| t.lsq_occupancy).sum()
    }

    /// Advances the core by one cycle.
    pub fn step(&mut self) {
        self.now += 1;
        self.total_cycles_run += 1;
        self.mem.tick(self.now);
        self.complete();
        self.commit();
        self.issue();
        self.dispatch();
        self.fetch();
        self.census();
    }

    /// Skips the run of provably quiescent cycles that follows the current
    /// one, at most `limit` of them, and returns how many it skipped.
    ///
    /// A cycle is quiescent when no stage can act in it. Every thread must
    /// have a ROB head that is not `Completed` (nothing to commit), an idle
    /// issue scan, a fetch-buffer head that cannot dispatch (buffer empty, or
    /// its ROB or, for a memory op, LSQ share or total full), and no way to
    /// fetch (inactive, waiting on a mispredicted branch, buffer full, or
    /// stalled). That state can only change at an event: a miss or prefetch
    /// fill ([`MemoryHierarchy::next_event`]), a thread's next completion, or
    /// the end of the fetch stall of a thread that only its stall keeps from
    /// fetching. The skip stops one cycle short of the earliest event, so that
    /// cycle runs through a normal [`SmtCore::step`].
    ///
    /// A quiescent cycle changes only the clocks, the commit and fetch
    /// round-robin state and the MLP census, whose outstanding-miss counts
    /// cannot move before the next fill. The skip applies exactly those
    /// effects `k` times over, so the core ends bit for bit where `k` calls
    /// to [`SmtCore::step`] would have left it — the same
    /// conservative-watermark argument as the per-stage skips.
    pub fn skip_quiescent(&mut self, limit: u64) -> u64 {
        let total_rob = self.total_rob_occupancy();
        let total_lsq = self.total_lsq_occupancy();
        let mut horizon = self.mem.next_event();
        for (idx, t) in self.threads.iter().enumerate() {
            let head_completed = t.rob.status.front() == Some(&EntryStatus::Completed);
            if head_completed || !t.issue_idle || self.can_dispatch(idx, total_rob, total_lsq) {
                return 0;
            }
            let stall_only = t.active()
                && t.waiting_branch.is_none()
                && t.fetch_buffer.len() < self.cfg.fetch_buffer_entries;
            if stall_only {
                horizon = horizon.min(t.fetch_stall_until);
            }
            horizon = horizon.min(t.next_completion);
        }
        let skip = horizon.saturating_sub(self.now + 1).min(limit);
        if skip == 0 {
            return 0;
        }
        let threads = self.threads.len() as u64;
        self.now += skip;
        self.total_cycles_run += skip;
        self.warped_cycles += skip;
        self.commit_preference = ((self.commit_preference as u64 + skip) % threads) as usize;
        let mut active = std::mem::take(&mut self.scratch_active);
        active.clear();
        active.extend(self.threads.iter().map(ThreadState::active));
        self.scheduler.advance(self.fetch_policy, skip, &active);
        self.scratch_active = active;
        for (idx, t) in self.threads.iter_mut().enumerate() {
            if t.active() {
                let outstanding = self.mem.outstanding_misses(ThreadId::from_index(idx));
                t.mlp.record_weighted(outstanding, skip);
            }
        }
        skip
    }

    /// Runs until `thread` has committed at least `instructions` more
    /// instructions, or `max_cycles` elapse. Returns the cycles spent.
    pub fn run_instructions(
        &mut self,
        thread: ThreadId,
        instructions: u64,
        max_cycles: u64,
    ) -> u64 {
        let target = self.committed(thread) + instructions;
        let start = self.now;
        while self.committed(thread) < target && self.now - start < max_cycles {
            self.step();
        }
        self.now - start
    }

    // ------------------------------------------------------------------
    // Pipeline stages
    // ------------------------------------------------------------------

    fn complete(&mut self) {
        let now = self.now;
        let penalty = self.cfg.pipeline_flush_cycles;
        for t in &mut self.threads {
            // Quiescence skip: no executing instruction of this thread can
            // finish before the watermark, so a scan would find nothing.
            if now < t.next_completion {
                continue;
            }
            // Completions within a cycle are independent of their order: fetch
            // stops at a mispredicted branch, so at most one is unresolved.
            let mut next = Cycle::MAX;
            let mut completed_any = false;
            let mut kept = 0;
            for i in 0..t.rob.issued.len() {
                let seq = t.rob.issued[i];
                let pos = t.rob.index(seq);
                let c = t.rob.completion[pos];
                if c > now {
                    next = next.min(c);
                    t.rob.issued[kept] = seq;
                    kept += 1;
                    continue;
                }
                t.rob.status[pos] = EntryStatus::Completed;
                completed_any = true;
                if t.rob.mispredicted[pos] {
                    t.stats.branch_flushes += 1;
                    t.fetch_stall_until = t.fetch_stall_until.max(now + penalty);
                    if t.waiting_branch == Some(t.rob.ids[pos]) {
                        t.waiting_branch = None;
                    }
                }
            }
            t.rob.issued.truncate(kept);
            t.next_completion = next;
            if completed_any {
                // A completion can wake same-thread dependents.
                t.issue_idle = false;
            }
        }
    }

    fn commit(&mut self) {
        let threads = self.threads.len();
        let width = self.cfg.commit_width;
        let mut committed = 0usize;
        let first = self.commit_preference;
        self.commit_preference = (self.commit_preference + 1) % threads;
        for offset in 0..threads {
            let idx = (first + offset) % threads;
            while committed < width {
                let Some(&head) = self.threads[idx].rob.status.front() else { break };
                if head != EntryStatus::Completed {
                    break;
                }
                let (uop, in_lsq) = self.threads[idx].rob.pop_front().expect("front checked");
                let thread = ThreadId::from_index(idx);
                if in_lsq {
                    self.threads[idx].lsq_occupancy =
                        self.threads[idx].lsq_occupancy.saturating_sub(1);
                }
                match uop.kind {
                    OpKind::Store => {
                        let mem = uop.mem.expect("store carries an address");
                        self.mem.store(thread, mem.addr, uop.pc, self.now);
                        self.threads[idx].stats.stores += 1;
                    }
                    OpKind::Load => self.threads[idx].stats.loads += 1,
                    OpKind::Branch => self.threads[idx].stats.branches += 1,
                    _ => {}
                }
                self.threads[idx].stats.committed += 1;
                committed += 1;
            }
        }
    }

    fn issue(&mut self) {
        let mut issue_budget = self.cfg.issue_width;
        let mut fu_int = self.cfg.fus.int_alu;
        let mut fu_mul = self.cfg.fus.int_mul;
        let mut fu_fp = self.cfg.fus.fpu;
        let mut fu_lsu = self.cfg.fus.lsu;
        let threads = self.threads.len();
        let first = (self.now % threads as u64) as usize;
        let now = self.now;

        for offset in 0..threads {
            let idx = (first + offset) % threads;
            if issue_budget == 0 {
                break;
            }
            let thread = ThreadId::from_index(idx);
            let t = &mut self.threads[idx];
            // Quiescence skip: the last scan found nothing ready and no wake
            // event (dispatch, same-thread completion, flush) has happened
            // since, so this scan would find nothing too.
            if t.issue_idle {
                continue;
            }
            // Walk the `Dispatched` entries in age order, compacting the ones
            // that stay behind; issuing never makes another entry ready, so
            // readiness can be checked on the way.
            let mut mshr_blocked = false;
            let mut found_ready = false;
            let mut kept = 0;
            let mut next = 0;
            while next < t.rob.dispatched.len() && issue_budget > 0 {
                let seq = t.rob.dispatched[next];
                next += 1;
                let pos = t.rob.index(seq);
                let [a, b] = t.rob.deps[pos];
                if t.rob.pending(a) || t.rob.pending(b) {
                    t.rob.dispatched[kept] = seq;
                    kept += 1;
                    continue;
                }
                found_ready = true;
                let kind = t.rob.uops[pos].kind;
                let fu = match kind {
                    OpKind::IntAlu | OpKind::Branch => &mut fu_int,
                    OpKind::IntMul => &mut fu_mul,
                    OpKind::Fp => &mut fu_fp,
                    OpKind::Load | OpKind::Store => &mut fu_lsu,
                };
                let completion = match kind {
                    _ if *fu == 0 => None,
                    OpKind::Load if mshr_blocked => None,
                    OpKind::Load => {
                        let uop = &t.rob.uops[pos];
                        let addr = uop.mem.expect("load carries an address").addr;
                        match self.mem.load(thread, addr, uop.pc, now) {
                            LoadResult::Hit { latency } => Some(now + latency),
                            LoadResult::Miss { completion } => Some(completion),
                            LoadResult::NoMshr => {
                                // Retry next cycle; stop trying further loads
                                // for this thread to preserve ordering.
                                mshr_blocked = true;
                                None
                            }
                        }
                    }
                    OpKind::Store => Some(now + 1),
                    other => Some(now + other.exec_latency()),
                };
                let Some(completion) = completion else {
                    t.rob.dispatched[kept] = seq;
                    kept += 1;
                    continue;
                };
                t.rob.status[pos] = EntryStatus::Issued;
                t.rob.completion[pos] = completion;
                t.rob.issued.push(seq);
                t.next_completion = t.next_completion.min(completion);
                *fu -= 1;
                issue_budget -= 1;
            }
            t.rob.dispatched.drain(kept..next);
            if !found_ready {
                // Only an empty scan arms the skip; budget- or FU-starved
                // leftovers must be retried next cycle.
                t.issue_idle = true;
            }
        }
    }

    /// Whether thread `idx`'s fetch-buffer head may enter the ROB now: within
    /// the thread's ROB share and, for a memory op, its LSQ share, and under
    /// a partition that bounds total occupancy, within the core-wide
    /// capacities given the current totals.
    fn can_dispatch(&self, idx: usize, total_rob: usize, total_lsq: usize) -> bool {
        let t = &self.threads[idx];
        let Some(front) = t.fetch_buffer.front() else { return false };
        let thread = ThreadId::from_index(idx);
        let enforce_total = self.partition.enforce_total_capacity();
        let rob_room = t.rob.len() < self.rob_limit(thread)
            && (!enforce_total || total_rob < self.cfg.rob_capacity);
        let lsq_room = || {
            t.lsq_occupancy < self.lsq_limit(thread)
                && (!enforce_total || total_lsq < self.cfg.lsq_capacity)
        };
        rob_room && (!front.uop.is_mem() || lsq_room())
    }

    fn dispatch(&mut self) {
        let threads = self.threads.len();
        let mut budget = self.cfg.dispatch_width;
        // Prefer the thread with fewest in-flight instructions (ICOUNT
        // spirit); ties go to the lowest thread index.
        let mut first = 0;
        for idx in 1..threads {
            if self.threads[idx].in_flight() < self.threads[first].in_flight() {
                first = idx;
            }
        }
        // Hoisted once per dispatch: each push below updates the totals
        // incrementally instead of re-summing every thread per instruction.
        let mut total_rob = self.total_rob_occupancy();
        let mut total_lsq = self.total_lsq_occupancy();
        for offset in 0..threads {
            let idx = (first + offset) % threads;
            while budget > 0 && self.can_dispatch(idx, total_rob, total_lsq) {
                let t = &mut self.threads[idx];
                let f = t.fetch_buffer.pop_front().expect("head checked");
                let mut deps = [NO_DEP, NO_DEP];
                for (slot, src) in f.uop.srcs.iter().enumerate() {
                    if let Some(reg) = src {
                        let producer = t.last_writer[*reg as usize];
                        if t.rob.pending(producer) {
                            deps[slot] = producer;
                        }
                    }
                }
                if let Some(dst) = f.uop.dst {
                    t.last_writer[dst as usize] = t.rob.next_seq();
                }
                let is_mem = f.uop.is_mem();
                if is_mem {
                    t.lsq_occupancy += 1;
                    total_lsq += 1;
                }
                t.rob.push_back(f.id, f.uop, deps, f.mispredicted, is_mem);
                total_rob += 1;
                // A fresh entry may be immediately ready: wake the issue scan.
                t.issue_idle = false;
                budget -= 1;
            }
        }
    }

    fn fetch(&mut self) {
        let threads = self.threads.len();
        let mut in_flight = std::mem::take(&mut self.scratch_in_flight);
        let mut active = std::mem::take(&mut self.scratch_active);
        in_flight.clear();
        in_flight.extend(self.threads.iter().map(ThreadState::in_flight));
        active.clear();
        active.extend(self.threads.iter().map(ThreadState::active));
        let preferred = self.scheduler.select(self.fetch_policy, &in_flight, &active);
        self.scratch_in_flight = in_flight;
        self.scratch_active = active;
        let Some(preferred) = preferred else {
            return;
        };
        // Try the preferred thread; if it cannot fetch a single instruction
        // this cycle, switch to the next active thread in cyclic index order
        // (the ICOUNT switching rule; "the other thread" on the pair).
        if self.fetch_thread(preferred) > 0 {
            return;
        }
        for offset in 1..threads {
            let idx = (preferred.index() + offset) % threads;
            if self.threads[idx].active() && self.fetch_thread(ThreadId::from_index(idx)) > 0 {
                return;
            }
        }
    }

    /// Fetches up to the front-end limits for one thread. Returns the number
    /// of micro-ops accepted into the fetch buffer.
    fn fetch_thread(&mut self, thread: ThreadId) -> usize {
        let idx = thread.index();
        let now = self.now;
        if !self.threads[idx].active() {
            return 0;
        }
        if self.threads[idx].waiting_branch.is_some() || self.threads[idx].fetch_stall_until > now {
            return 0;
        }
        let width = self.cfg.fetch_width;
        let max_blocks = self.cfg.fetch_blocks_per_cycle;
        let max_branches = self.cfg.fetch_branches_per_cycle;
        let buffer_cap = self.cfg.fetch_buffer_entries;
        let hit_latency = self.cfg.l1i.hit_latency;

        let mut fetched = 0usize;
        let mut branches = 0usize;
        let mut blocks = std::mem::take(&mut self.scratch_blocks);
        blocks.clear();

        while fetched < width {
            if self.threads[idx].fetch_buffer.len() >= buffer_cap {
                break;
            }
            // Pull the next micro-op: pending slot, then replay queue, then trace.
            let uop = {
                let t = &mut self.threads[idx];
                if let Some(p) = t.pending_fetch.take() {
                    p
                } else if let Some(r) = t.replay.pop_front() {
                    r
                } else {
                    t.trace.as_mut().expect("active thread has a trace").next_op()
                }
            };

            // Instruction-cache block constraint.
            let block = uop.pc >> 6;
            if !blocks.contains(&block) {
                if blocks.len() >= max_blocks {
                    self.threads[idx].pending_fetch = Some(uop);
                    break;
                }
                let latency = self.mem.fetch(thread, uop.pc, now);
                blocks.push(block);
                if latency > hit_latency {
                    // I-cache miss: this instruction (and the rest of the
                    // block) arrives when the fill completes.
                    self.threads[idx].pending_fetch = Some(uop);
                    self.threads[idx].fetch_stall_until = now + latency;
                    break;
                }
            }

            // Branch constraints and prediction.
            let mut mispredicted = false;
            if uop.is_branch() {
                if branches >= max_branches {
                    self.threads[idx].pending_fetch = Some(uop);
                    break;
                }
                branches += 1;
                let info = uop.branch.expect("branch carries branch info");
                let pred: Prediction =
                    self.bp.predict(thread, uop.pc, info.is_call, info.is_return);
                mispredicted = self.bp.update(
                    thread,
                    uop.pc,
                    info.taken,
                    info.target,
                    info.is_call,
                    info.is_return,
                    pred,
                );
            }

            let id = self.next_id;
            self.next_id += 1;
            self.threads[idx].fetch_buffer.push_back(FetchedOp { id, uop, mispredicted });
            fetched += 1;

            if mispredicted {
                // Fetch stalls until the branch resolves (plus the redirect
                // penalty, applied at resolution time in `complete`).
                self.threads[idx].waiting_branch = Some(id);
                break;
            }
        }
        self.scratch_blocks = blocks;
        fetched
    }

    fn census(&mut self) {
        for thread in ThreadId::first_n(self.threads.len()) {
            if self.threads[thread.index()].active() {
                let outstanding = self.mem.outstanding_misses(thread);
                self.threads[thread.index()].mlp.record(outstanding);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_model::uop::BranchInfo;
    use sim_model::WorkloadClass;

    /// A trivial workload: a tight loop of independent ALU ops.
    struct AluLoop {
        pc: u64,
        reg: u8,
    }

    impl AluLoop {
        fn boxed() -> BoxedTrace {
            Box::new(AluLoop { pc: 0x1000, reg: 0 })
        }
    }

    impl TraceGenerator for AluLoop {
        fn next_op(&mut self) -> MicroOp {
            self.pc = 0x1000 + (self.pc + 4 - 0x1000) % 256;
            self.reg = (self.reg + 1) % 32;
            MicroOp::alu(self.pc, OpKind::IntAlu, [None, None], Some(self.reg))
        }
        fn name(&self) -> &str {
            "alu-loop"
        }
        fn class(&self) -> WorkloadClass {
            WorkloadClass::Batch
        }
        fn reset(&mut self) {
            self.pc = 0x1000;
        }
    }

    /// A pointer-chasing workload: every load depends on the previous one and
    /// misses the caches (large random working set).
    struct PointerChase {
        pc: u64,
        addr: u64,
        rng: sim_model::SimRng,
    }

    impl PointerChase {
        fn boxed(seed: u64) -> BoxedTrace {
            Box::new(PointerChase {
                pc: 0x2000,
                addr: 0x10_0000,
                rng: sim_model::SimRng::new(seed),
            })
        }
    }

    impl TraceGenerator for PointerChase {
        fn next_op(&mut self) -> MicroOp {
            self.pc = 0x2000 + (self.pc + 4 - 0x2000) % 128;
            self.addr = 0x10_0000 + self.rng.below(1 << 26) * 64;
            // dst reg 1, src reg 1: each load depends on the previous load.
            MicroOp::load(self.pc, self.addr, [Some(1), None], Some(1))
        }
        fn name(&self) -> &str {
            "pointer-chase"
        }
        fn class(&self) -> WorkloadClass {
            WorkloadClass::LatencySensitive
        }
        fn reset(&mut self) {}
    }

    /// Independent random loads over a large working set: high MLP potential.
    struct StreamingLoads {
        pc: u64,
        rng: sim_model::SimRng,
        reg: u8,
    }

    impl StreamingLoads {
        fn boxed(seed: u64) -> BoxedTrace {
            Box::new(StreamingLoads { pc: 0x3000, rng: sim_model::SimRng::new(seed), reg: 0 })
        }
    }

    impl TraceGenerator for StreamingLoads {
        fn next_op(&mut self) -> MicroOp {
            self.pc = 0x3000 + (self.pc + 4 - 0x3000) % 128;
            self.reg = (self.reg + 1) % 32;
            let addr = 0x200_0000 + self.rng.below(1 << 26) * 64;
            MicroOp::load(self.pc, addr, [None, None], Some(self.reg))
        }
        fn name(&self) -> &str {
            "streaming-loads"
        }
        fn class(&self) -> WorkloadClass {
            WorkloadClass::Batch
        }
        fn reset(&mut self) {}
    }

    fn single_thread_core(trace: BoxedTrace) -> SmtCore {
        SmtCoreBuilder::new(CoreConfig::default()).thread(ThreadId::T0, trace).build()
    }

    #[test]
    fn alu_loop_reaches_high_ipc() {
        let mut core = single_thread_core(AluLoop::boxed());
        core.run_instructions(ThreadId::T0, 20_000, 200_000);
        let ipc = core.committed(ThreadId::T0) as f64 / core.cycles() as f64;
        assert!(ipc > 2.0, "independent ALU loop should exceed 2 IPC, got {ipc:.2}");
    }

    #[test]
    fn pointer_chase_is_memory_latency_bound() {
        let mut core = single_thread_core(PointerChase::boxed(1));
        core.run_instructions(ThreadId::T0, 2_000, 2_000_000);
        let ipc = core.committed(ThreadId::T0) as f64 / core.cycles() as f64;
        assert!(ipc < 0.05, "dependent misses should serialize at memory latency, got {ipc:.3}");
        // MLP census: almost never more than one outstanding miss.
        let mlp = core.mlp_census(ThreadId::T0);
        assert!(mlp.fraction_at_least(2) < 0.05);
    }

    #[test]
    fn independent_loads_expose_mlp() {
        let mut core = single_thread_core(StreamingLoads::boxed(2));
        core.run_instructions(ThreadId::T0, 5_000, 2_000_000);
        let mlp = core.mlp_census(ThreadId::T0);
        assert!(
            mlp.fraction_at_least(2) > 0.3,
            "independent misses should overlap (fraction with >=2 in flight: {:.2})",
            mlp.fraction_at_least(2)
        );
        let chasing_core = {
            let mut c = single_thread_core(PointerChase::boxed(3));
            c.run_instructions(ThreadId::T0, 2_000, 2_000_000);
            c
        };
        let stream_ipc = core.committed(ThreadId::T0) as f64 / core.cycles() as f64;
        let chase_ipc = chasing_core.committed(ThreadId::T0) as f64 / chasing_core.cycles() as f64;
        assert!(stream_ipc > 2.0 * chase_ipc, "MLP should buy substantial IPC");
    }

    #[test]
    fn rob_capacity_bounds_mlp_workload_performance() {
        // The same streaming workload with a 16-entry ROB partition must be
        // substantially slower than with a 96-entry partition: this is the
        // Figure 6 mechanism.
        let cfg = CoreConfig::default();
        let run = |rob: usize| -> f64 {
            let mut core = SmtCoreBuilder::new(cfg)
                .partition(PartitionPolicy::Static { rob: vec![rob, rob], lsq: vec![32, 32] })
                .thread(ThreadId::T0, StreamingLoads::boxed(7))
                .build();
            core.run_instructions(ThreadId::T0, 5_000, 2_000_000);
            core.committed(ThreadId::T0) as f64 / core.cycles() as f64
        };
        let small = run(12);
        let large = run(96);
        assert!(
            large > small * 1.5,
            "a larger ROB should substantially help an MLP-rich workload (small={small:.3}, large={large:.3})"
        );
    }

    #[test]
    fn colocation_slows_both_threads() {
        let cfg = CoreConfig::default();
        let solo_ipc = {
            let mut core = single_thread_core(StreamingLoads::boxed(11));
            core.run_instructions(ThreadId::T0, 5_000, 2_000_000);
            core.committed(ThreadId::T0) as f64 / core.cycles() as f64
        };
        let mut core = SmtCore::baseline(cfg, StreamingLoads::boxed(11), AluLoop::boxed());
        // Run until both threads commit a workload's worth.
        for _ in 0..200_000 {
            core.step();
            if core.committed(ThreadId::T0) >= 5_000 && core.committed(ThreadId::T1) >= 5_000 {
                break;
            }
        }
        let t0_cycles = core.cycles() as f64;
        let colocated_ipc = core.committed(ThreadId::T0) as f64 / t0_cycles;
        assert!(core.committed(ThreadId::T1) > 0, "both threads must make progress");
        assert!(
            colocated_ipc <= solo_ipc * 1.02,
            "colocation should not speed up a thread (solo={solo_ipc:.3}, colocated={colocated_ipc:.3})"
        );
    }

    #[test]
    fn partition_change_flushes_and_continues() {
        let cfg = CoreConfig::default();
        let mut core = SmtCore::baseline(cfg, AluLoop::boxed(), StreamingLoads::boxed(5));
        for _ in 0..1_000 {
            core.step();
        }
        let before = core.committed(ThreadId::T0);
        core.set_partition(PartitionPolicy::rob_split(&cfg, 56, 136), true);
        assert_eq!(core.thread_stats(ThreadId::T0).mode_change_flushes, 1);
        for _ in 0..5_000 {
            core.step();
        }
        assert!(core.committed(ThreadId::T0) > before, "thread must continue after a mode change");
        assert_eq!(core.partition().rob_limit(&cfg, ThreadId::T1), 136);
    }

    #[test]
    fn total_committed_instructions_are_exact_after_flush() {
        // A mode-change flush must not lose or duplicate instructions: the
        // committed count keeps increasing monotonically and the stream stays
        // consistent (every committed op is counted exactly once).
        let cfg = CoreConfig::default();
        let mut core = SmtCore::baseline(cfg, AluLoop::boxed(), AluLoop::boxed());
        let mut last = 0;
        for i in 0..3_000 {
            core.step();
            if i % 500 == 0 {
                let skew = if (i / 500) % 2 == 0 { (56, 136) } else { (96, 96) };
                core.set_partition(PartitionPolicy::rob_split(&cfg, skew.0, skew.1), true);
            }
            let c = core.committed(ThreadId::T0);
            assert!(c >= last);
            last = c;
        }
        assert!(last > 0);
    }

    #[test]
    fn branch_heavy_workload_pays_flush_penalties() {
        /// Branches with random outcomes force mispredictions.
        struct RandomBranches {
            pc: u64,
            rng: sim_model::SimRng,
        }
        impl TraceGenerator for RandomBranches {
            fn next_op(&mut self) -> MicroOp {
                self.pc += 4;
                if self.pc.is_multiple_of(16) {
                    let taken = self.rng.chance(0.5);
                    MicroOp::branch(
                        self.pc,
                        BranchInfo {
                            taken,
                            target: self.pc + 64,
                            is_call: false,
                            is_return: false,
                        },
                        [None, None],
                    )
                } else {
                    MicroOp::alu(self.pc, OpKind::IntAlu, [None, None], Some(1))
                }
            }
            fn name(&self) -> &str {
                "random-branches"
            }
            fn class(&self) -> WorkloadClass {
                WorkloadClass::Batch
            }
            fn reset(&mut self) {}
        }
        let mut core = single_thread_core(Box::new(RandomBranches {
            pc: 0x4000,
            rng: sim_model::SimRng::new(9),
        }));
        core.run_instructions(ThreadId::T0, 10_000, 500_000);
        assert!(core.thread_stats(ThreadId::T0).branch_flushes > 100);
        let ipc = core.committed(ThreadId::T0) as f64 / core.cycles() as f64;
        let mut alu_core = single_thread_core(AluLoop::boxed());
        alu_core.run_instructions(ThreadId::T0, 10_000, 500_000);
        let alu_ipc = alu_core.committed(ThreadId::T0) as f64 / alu_core.cycles() as f64;
        assert!(ipc < alu_ipc, "mispredictions must cost performance");
    }

    #[test]
    fn smt4_core_runs_all_four_threads() {
        let cfg = CoreConfig::default();
        let mut builder = SmtCoreBuilder::new(cfg).smt_width(4);
        for t in ThreadId::first_n(4) {
            builder = builder.thread(t, AluLoop::boxed());
        }
        let mut core = builder.build();
        assert_eq!(core.smt_width(), 4);
        assert_eq!(core.partition().rob_limit(&cfg, ThreadId::from_index(3)), 48);
        for _ in 0..20_000 {
            core.step();
        }
        for t in ThreadId::first_n(4) {
            assert!(core.committed(t) > 1_000, "thread {t} starved: {}", core.committed(t));
        }
    }

    #[test]
    fn smt4_runs_are_deterministic() {
        let run = || {
            let cfg = CoreConfig::default();
            let mut core = SmtCoreBuilder::new(cfg)
                .smt_width(4)
                .thread(ThreadId::T0, PointerChase::boxed(3))
                .thread(ThreadId::T1, StreamingLoads::boxed(5))
                .thread(ThreadId::from_index(2), AluLoop::boxed())
                .thread(ThreadId::from_index(3), StreamingLoads::boxed(7))
                .build();
            for _ in 0..30_000 {
                core.step();
            }
            ThreadId::first_n(4).map(|t| core.committed(t)).collect::<Vec<u64>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical SMT4 runs must commit identical counts");
        assert!(a.iter().all(|&c| c > 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_thread_beyond_width() {
        let _ = SmtCoreBuilder::new(CoreConfig::default())
            .thread(ThreadId::from_index(2), AluLoop::boxed());
    }

    #[test]
    #[should_panic(expected = "partition covers")]
    fn builder_rejects_mismatched_partition_width() {
        let cfg = CoreConfig::default();
        let _ = SmtCoreBuilder::new(cfg)
            .smt_width(4)
            .partition(PartitionPolicy::equal(&cfg)) // 2-thread split on a 4-thread core
            .build();
    }

    #[test]
    fn inactive_thread_is_never_scheduled() {
        let mut core = single_thread_core(AluLoop::boxed());
        core.run_instructions(ThreadId::T0, 1_000, 100_000);
        assert_eq!(core.committed(ThreadId::T1), 0);
        assert!(!core.thread_active(ThreadId::T1));
    }

    #[test]
    fn skips_stop_short_of_every_fill_and_completion() {
        /// A dependent load chain walking memory one block at a time: the
        /// stride prefetcher locks on, so prefetch fills land while the core
        /// waits on the chain.
        struct StridedChase(u64);
        impl TraceGenerator for StridedChase {
            fn next_op(&mut self) -> MicroOp {
                self.0 += 64;
                MicroOp::load(0x2000, self.0, [Some(1), None], Some(1))
            }
            fn name(&self) -> &str {
                "strided-chase"
            }
            fn class(&self) -> WorkloadClass {
                WorkloadClass::Batch
            }
            fn reset(&mut self) {}
        }
        let mut core = SmtCore::baseline(
            CoreConfig::default(),
            Box::new(StridedChase(0x100_0000)),
            PointerChase::boxed(4),
        );
        let mut skipped = 0;
        while core.cycles() < 40_000 {
            core.step();
            let earliest = core
                .threads
                .iter()
                .map(|t| t.next_completion)
                .fold(core.mem.next_event(), u64::min);
            skipped += core.skip_quiescent(u64::MAX);
            // The cycle the next step runs may be the event itself, never later.
            assert!(core.now() < earliest, "skipped to {} past an event at {earliest}", core.now());
        }
        assert!(skipped > 0, "the run never skipped");
        assert!(core.memory_stats().prefetch_fills > 0, "the run must land prefetches");
        assert_eq!(core.warped_cycles(), skipped);
        core.reset_stats();
        assert_eq!(core.warped_cycles(), 0);
    }

    #[test]
    fn reset_stats_preserves_progress() {
        let mut core = single_thread_core(AluLoop::boxed());
        core.run_instructions(ThreadId::T0, 1_000, 100_000);
        core.reset_stats();
        assert_eq!(core.committed(ThreadId::T0), 0);
        assert_eq!(core.cycles(), 0);
        core.run_instructions(ThreadId::T0, 1_000, 100_000);
        assert!(core.committed(ThreadId::T0) >= 1_000);
    }
}
