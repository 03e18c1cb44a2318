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
//! In a memory-bound run most in-flight instructions wait on a miss, and in
//! most cycles every thread waits on a miss, a fetch stall or a branch
//! redirect. Two mechanisms keep those cycles cheap without changing a
//! single result bit:
//!
//! * Each thread's ROB is a power-of-two ring indexed by per-thread sequence
//!   number. The issue stage walks only its ready list (the `Dispatched`
//!   entries with no pending producer, in age order) and the complete stage
//!   only its `Issued` entries. A completing producer follows its consumer
//!   links by sequence number and moves each consumer it was the last
//!   pending producer of onto the ready list, so no stage re-checks an
//!   entry that cannot issue yet.
//! * [`SmtCore::skip_quiescent`] warps over a run of cycles in which no
//!   stage can act, applying their only effects (clocks, round-robin
//!   rotations, the MLP census) in bulk; [`crate::run_core`] calls it after
//!   every step. A thread whose only action is retrying a load that finds
//!   every MSHR busy counts as idle too, once the memory hierarchy says the
//!   retry is steady: the warp then applies the skipped retries in closed
//!   form ([`MemoryHierarchy::repeat_rejected_loads`]).

use crate::branch::{BranchPredictor, BranchStats, Prediction};
use crate::fetch::{FetchPolicy, FetchScheduler};
use crate::partition::PartitionPolicy;
use mem_sim::{HierarchyConfig, HierarchyStats, LoadResult, MemoryHierarchy, Sharing};
use sim_model::{BoxedTrace, CoreConfig, Cycle, MicroOp, OpKind, ThreadId, NUM_LOGICAL_REGS};
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

/// What a thread's last issue scan found, and so what its next scan does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueScan {
    /// Scan again: a wake event (a dispatch into the thread, a completion of
    /// one of its instructions, a flush) came after the last scan, or that
    /// scan issued something or left a ready op without a functional unit.
    Due,
    /// The last scan found nothing ready and no wake event has come since,
    /// so the next scan would find nothing too and is skipped.
    Idle,
    /// The last scan issued nothing: its one memory access, the oldest ready
    /// load (`addr` from `pc`), found every MSHR busy, and every other ready
    /// op was a younger load it did not try. Until a wake event, the next
    /// scan retries the same load.
    Retry { addr: u64, pc: u64 },
}

/// Sentinel for an absent producer. It lies far past any live sequence
/// number, so [`Rob::pending`] reports it as already complete.
const NO_DEP: u64 = u64::MAX;

/// Sentinel ending a consumer list (see [`Slot::consumers`]).
const NO_LINK: u64 = u64::MAX;

/// One ROB entry.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u64,
    uop: MicroOp,
    status: EntryStatus,
    completion: Cycle,
    mispredicted: bool,
    in_lsq: bool,
    /// Producers this entry still waits on: one per source operand whose
    /// producer was pending at dispatch and has not completed since.
    waiting: u8,
    /// Head of the list of this entry's waiting consumers. A link is
    /// `consumer_seq << 1 | operand`, and the list continues at the
    /// consumer's `next[operand]`; [`NO_LINK`] ends it.
    consumers: u64,
    /// Per source operand, the next link of the list of the producer that
    /// operand waits on.
    next: [u64; 2],
}

impl Slot {
    /// The contents of a slot no live entry occupies.
    const VACANT: Slot = Slot {
        id: 0,
        uop: MicroOp {
            pc: 0,
            kind: OpKind::IntAlu,
            srcs: [None, None],
            dst: None,
            mem: None,
            branch: None,
        },
        status: EntryStatus::Completed,
        completion: 0,
        mispredicted: false,
        in_lsq: false,
        waiting: 0,
        consumers: NO_LINK,
        next: [NO_LINK; 2],
    };
}

/// A reorder buffer: a power-of-two ring of entries indexed by sequence
/// number.
///
/// Every dispatched instruction gets a per-thread sequence number and lives
/// in slot `seq & mask`. The live entries are the `len` numbers from
/// `head_seq` on; numbers below `head_seq` belong to committed (or flushed)
/// instructions, so a producer is still pending exactly when its number is
/// in that range and its entry is not yet `Completed` ([`Rob::pending`]):
/// one range check and one indexed load. The ring doubles when a push finds
/// it full, since a static share may exceed the core's ROB capacity and a
/// mode change may enlarge a share mid-run.
///
/// Two work lists keep the issue and complete stages off the rest of the
/// ROB. `ready` holds the `Dispatched` entries with no pending producer, in
/// age order: exactly the entries the issue stage may issue. An entry joins
/// it at dispatch when all its producers have completed, and otherwise when
/// the completion of its last pending producer walks that producer's
/// consumer list ([`Rob::finish`]). Nothing else makes a `Dispatched` entry
/// ready: a producer commits only after completing, and a flush empties the
/// whole thread. `issued` holds the `Issued` entries in issue order.
#[derive(Debug, Default)]
struct Rob {
    /// Sequence number of the head entry.
    head_seq: u64,
    len: usize,
    /// `slots.len() - 1`; the ring is empty until the first push.
    mask: u64,
    slots: Vec<Slot>,
    /// Sequence numbers of the `Dispatched` entries with no pending
    /// producer, in age order.
    ready: Vec<u64>,
    /// Sequence numbers of the `Issued` entries, in issue order.
    issued: Vec<u64>,
}

impl Rob {
    fn len(&self) -> usize {
        self.len
    }

    /// Sequence number the next dispatched entry receives.
    fn next_seq(&self) -> u64 {
        self.head_seq + self.len as u64
    }

    fn slot(&self, seq: u64) -> &Slot {
        &self.slots[(seq & self.mask) as usize]
    }

    fn slot_mut(&mut self, seq: u64) -> &mut Slot {
        &mut self.slots[(seq & self.mask) as usize]
    }

    /// Whether the producer with sequence number `seq` has yet to complete.
    /// Committed and flushed producers (below `head_seq`) wrap to an offset
    /// past the live range, as does [`NO_DEP`].
    fn pending(&self, seq: u64) -> bool {
        seq.wrapping_sub(self.head_seq) < self.len as u64
            && self.slot(seq).status != EntryStatus::Completed
    }

    /// Whether the head entry exists and has completed.
    fn head_completed(&self) -> bool {
        self.len > 0 && self.slot(self.head_seq).status == EntryStatus::Completed
    }

    /// Appends a `Dispatched` entry whose source operands wait on the given
    /// producers ([`NO_DEP`] for none; every other one must be pending).
    fn push_back(
        &mut self,
        id: u64,
        uop: MicroOp,
        producers: [u64; 2],
        mispredicted: bool,
        in_lsq: bool,
    ) {
        if self.len == self.slots.len() {
            self.grow();
        }
        let seq = self.next_seq();
        self.len += 1;
        let mut entry =
            Slot { id, uop, mispredicted, in_lsq, status: EntryStatus::Dispatched, ..Slot::VACANT };
        for (operand, &producer) in producers.iter().enumerate() {
            if producer == NO_DEP {
                continue;
            }
            debug_assert!(self.pending(producer), "producer {producer} is not pending");
            let head = &mut self.slot_mut(producer).consumers;
            entry.next[operand] = *head;
            *head = seq << 1 | operand as u64;
            entry.waiting += 1;
        }
        if entry.waiting == 0 {
            self.ready.push(seq);
        }
        *self.slot_mut(seq) = entry;
    }

    /// Doubles the ring (to 16 slots the first time), moving every live
    /// entry to its slot under the new mask.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(16);
        let mut slots = vec![Slot::VACANT; size];
        let mask = size as u64 - 1;
        for seq in self.head_seq..self.next_seq() {
            slots[(seq & mask) as usize] = *self.slot(seq);
        }
        self.slots = slots;
        self.mask = mask;
    }

    /// Marks an entry `Issued`, executing until `completion`. The caller
    /// removes it from the ready list.
    fn issue(&mut self, seq: u64, completion: Cycle) {
        let slot = self.slot_mut(seq);
        slot.status = EntryStatus::Issued;
        slot.completion = completion;
        self.issued.push(seq);
    }

    /// Marks an `Issued` entry `Completed` and moves every consumer it was
    /// the last pending producer of onto the ready list. The caller removes
    /// it from the issued list. Returns the entry's fetch id and whether it
    /// is a mispredicted branch.
    fn finish(&mut self, seq: u64) -> (u64, bool) {
        let slot = self.slot_mut(seq);
        slot.status = EntryStatus::Completed;
        let (id, mispredicted, mut link) = (slot.id, slot.mispredicted, slot.consumers);
        while link != NO_LINK {
            let consumer = link >> 1;
            let waiter = self.slot_mut(consumer);
            waiter.waiting -= 1;
            link = waiter.next[(link & 1) as usize];
            if waiter.waiting == 0 {
                let at = self.ready.partition_point(|&s| s < consumer);
                self.ready.insert(at, consumer);
            }
        }
        (id, mispredicted)
    }

    /// Pops the head entry (which must be `Completed`), returning the fields
    /// commit needs.
    fn pop_front(&mut self) -> Option<(MicroOp, bool)> {
        if self.len == 0 {
            return None;
        }
        let slot = self.slot(self.head_seq);
        let head = (slot.uop, slot.in_lsq);
        self.head_seq += 1;
        self.len -= 1;
        Some(head)
    }

    /// Squashes every entry, appending the micro-ops to `squashed` in age
    /// order. The sequence numbers of the squashed entries are retired with
    /// them, so no later entry reuses one.
    fn flush_into(&mut self, squashed: &mut Vec<MicroOp>) {
        squashed.extend((self.head_seq..self.next_seq()).map(|seq| self.slot(seq).uop));
        self.head_seq = self.next_seq();
        self.len = 0;
        self.ready.clear();
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
    /// What the last issue scan found. Wake events reset it to
    /// [`IssueScan::Due`]: a dispatch into this thread, a completion of this
    /// thread's instruction (dependences are intra-thread), and a pipeline
    /// flush. It is conservative: `Idle` only when a scan actually came up
    /// empty, never when entries were merely budget- or FU-starved, and
    /// `Retry` only when an MSHR rejection was all the scan did.
    scan: IssueScan,
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
            scan: IssueScan::Due,
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
    /// Per thread, whether it has a workload: fixed at build, since a
    /// thread's trace never changes.
    active: Vec<bool>,
    /// Round-robin commit preference (rotates each cycle).
    commit_preference: usize,
    total_cycles_run: u64,
    /// Cycles skipped by [`SmtCore::skip_quiescent`], counted like
    /// `total_cycles_run`, since the core was built.
    warped_cycles: u64,
    /// The subset of `warped_cycles` skipped while a thread was parked on a
    /// steady load retry.
    retry_warped_cycles: u64,
    /// Reusable scratch for `fetch_thread`'s touched I-cache blocks.
    scratch_blocks: Vec<u64>,
    /// Reusable scratch for `flush_thread`'s squashed micro-ops.
    scratch_squashed: Vec<MicroOp>,
    /// Reusable scratch for `fetch`'s per-thread in-flight counts.
    scratch_in_flight: Vec<usize>,
    /// Reusable scratch for the warp's `(thread, addr, pc)` retry order.
    scratch_retries: Vec<(ThreadId, u64, u64)>,
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
    /// static partition does not cover exactly the configured SMT width or
    /// leaves a thread with a workload no ROB entries.
    pub fn build(self) -> SmtCore {
        self.cfg.validate().expect("invalid core configuration");
        let partition =
            self.partition.unwrap_or_else(|| PartitionPolicy::equal(&self.cfg, self.smt_width));
        check_partition(&partition, self.traces.iter().map(Option::is_some));
        let mut hier_cfg = HierarchyConfig::from_core(&self.cfg, self.smt_width);
        hier_cfg.l1i_sharing = self.l1i_sharing;
        hier_cfg.l1d_sharing = self.l1d_sharing;
        let mem = MemoryHierarchy::new(hier_cfg);
        let bp = BranchPredictor::new(self.cfg.branch, self.bp_sharing, self.smt_width);
        let mut threads: Vec<ThreadState> =
            (0..self.smt_width).map(|_| ThreadState::new()).collect();
        for (state, trace) in threads.iter_mut().zip(self.traces) {
            state.trace = trace;
        }
        let active = threads.iter().map(ThreadState::active).collect();
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
            active,
            commit_preference: 0,
            total_cycles_run: 0,
            warped_cycles: 0,
            retry_warped_cycles: 0,
            scratch_blocks: Vec::new(),
            scratch_squashed: Vec::new(),
            scratch_in_flight: Vec::new(),
            scratch_retries: Vec::new(),
        }
    }
}

/// Checks a partition against the threads of the core it programs, given as
/// one flag per hardware thread that is set when the thread has a workload.
/// A static partition must cover exactly those threads and give each one
/// with a workload at least one ROB entry: a zero share never dispatches, so
/// the thread would commit nothing and measure a uIPC of 0.
///
/// # Panics
///
/// Panics if either condition fails.
fn check_partition(partition: &PartitionPolicy, active: impl ExactSizeIterator<Item = bool>) {
    let PartitionPolicy::Static { rob, .. } = partition else { return };
    assert!(
        rob.len() == active.len(),
        "partition covers {} threads but the core has {}",
        rob.len(),
        active.len()
    );
    for (idx, (&entries, has_workload)) in rob.iter().zip(active).enumerate() {
        assert!(
            entries > 0 || !has_workload,
            "partition gives thread {} no ROB entries but it has a workload",
            ThreadId::from_index(idx)
        );
    }
}

impl SmtCore {
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

    /// How many of [`SmtCore::warped_cycles`] were skipped while at least
    /// one thread was parked on a steady load retry (its only action was
    /// retrying a load that found every MSHR busy). Deterministic, like
    /// `warped_cycles`, and counted since the core was built.
    pub fn retry_warped_cycles(&self) -> u64 {
        self.retry_warped_cycles
    }

    /// Whether a thread has a workload attached.
    pub fn thread_active(&self, thread: ThreadId) -> bool {
        self.threads[thread.index()].active()
    }

    /// Reprograms the ROB/LSQ limit registers (a Stretch mode change or a
    /// return to the baseline). Per §IV-C, the change is accompanied by a
    /// pipeline flush of both threads; set `flush` to `false` only for
    /// experiments that want to isolate the steady-state effect.
    ///
    /// # Panics
    ///
    /// Panics, as [`SmtCoreBuilder::build`] does, if a static partition does
    /// not cover exactly the core's SMT width or leaves a thread with a
    /// workload no ROB entries.
    pub fn set_partition(&mut self, partition: PartitionPolicy, flush: bool) {
        check_partition(&partition, self.threads.iter().map(ThreadState::active));
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
        t.scan = IssueScan::Due;
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
    /// have a ROB head that is not `Completed` (nothing to commit), an issue
    /// scan that is idle or *parked* (see below), a fetch-buffer head that
    /// cannot dispatch (buffer empty, or its ROB or, for a memory op, LSQ
    /// share or total full), and no way to fetch (inactive, waiting on a
    /// mispredicted branch, buffer full, or stalled). That state can only
    /// change at an event: a miss or prefetch fill
    /// ([`MemoryHierarchy::next_event`]), a thread's next completion, or the
    /// end of the fetch stall of a thread that only its stall keeps from
    /// fetching. The skip stops one cycle short of the earliest event, so that
    /// cycle runs through a normal [`SmtCore::step`].
    ///
    /// A thread is parked when its last issue scan did nothing but retry a
    /// load that found every MSHR busy, and the hierarchy says the retry is
    /// steady ([`MemoryHierarchy::rejected_load_is_steady`]): until the next
    /// fill it can change only counters, clocks and LRU stamps. Nothing else
    /// touches the thread's caches, MSHRs or prefetcher entry in a quiescent
    /// cycle, and its readiness only changes at a completion (on the
    /// horizon), a dispatch or a flush, so every skipped cycle would retry
    /// the same load with the same outcome.
    ///
    /// A quiescent cycle changes only the clocks, the commit and fetch
    /// round-robin state, the MLP census, whose outstanding-miss counts
    /// cannot move before the next fill, and the parked retries. The skip
    /// applies exactly those effects `k` times over — the retries through
    /// [`MemoryHierarchy::repeat_rejected_loads`], in the issue rotation of
    /// the last skipped cycle — so the core ends bit for bit where `k` calls
    /// to [`SmtCore::step`] would have left it: the same
    /// conservative-watermark argument as the per-stage skips.
    pub fn skip_quiescent(&mut self, limit: u64) -> u64 {
        let total_rob = self.total_rob_occupancy();
        let total_lsq = self.total_lsq_occupancy();
        let mut horizon = self.mem.next_event();
        let mut retrying = false;
        for (idx, t) in self.threads.iter().enumerate() {
            if t.rob.head_completed()
                || t.scan == IssueScan::Due
                || self.can_dispatch(idx, total_rob, total_lsq)
            {
                return 0;
            }
            retrying |= t.scan != IssueScan::Idle;
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
        // Last, because it probes caches and the prefetcher: a retry parks
        // its thread only while it is steady.
        let steady = |(idx, t): (usize, &ThreadState)| match t.scan {
            IssueScan::Retry { addr, pc } => {
                self.mem.rejected_load_is_steady(ThreadId::from_index(idx), addr, pc)
            }
            _ => true,
        };
        if retrying && !self.threads.iter().enumerate().all(steady) {
            return 0;
        }
        let threads = self.threads.len() as u64;
        self.now += skip;
        self.total_cycles_run += skip;
        self.warped_cycles += skip;
        if retrying {
            // The issue stage of cycle `c` starts its rotation at thread
            // `c % T`; only the last skipped cycle's order leaves a trace.
            let mut order = std::mem::take(&mut self.scratch_retries);
            order.clear();
            let first = (self.now % threads) as usize;
            for offset in 0..self.threads.len() {
                let idx = (first + offset) % self.threads.len();
                if let IssueScan::Retry { addr, pc } = self.threads[idx].scan {
                    order.push((ThreadId::from_index(idx), addr, pc));
                }
            }
            self.mem.repeat_rejected_loads(&order, skip);
            self.scratch_retries = order;
            self.retry_warped_cycles += skip;
        }
        self.commit_preference = ((self.commit_preference as u64 + skip) % threads) as usize;
        self.scheduler.advance(self.fetch_policy, skip, &self.active);
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
                let c = t.rob.slot(seq).completion;
                if c > now {
                    next = next.min(c);
                    t.rob.issued[kept] = seq;
                    kept += 1;
                    continue;
                }
                let (id, mispredicted) = t.rob.finish(seq);
                completed_any = true;
                if mispredicted {
                    t.stats.branch_flushes += 1;
                    t.fetch_stall_until = t.fetch_stall_until.max(now + penalty);
                    if t.waiting_branch == Some(id) {
                        t.waiting_branch = None;
                    }
                }
            }
            t.rob.issued.truncate(kept);
            t.next_completion = next;
            if completed_any {
                // A completion can wake same-thread dependents.
                t.scan = IssueScan::Due;
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
            while committed < width && self.threads[idx].rob.head_completed() {
                let (uop, in_lsq) = self.threads[idx].rob.pop_front().expect("head checked");
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
            if t.scan == IssueScan::Idle {
                continue;
            }
            // Walk the ready entries in age order, compacting the ones that
            // stay behind; issuing never makes another entry ready. The
            // budget is positive here, so the walk reaches the first ready
            // entry if there is one.
            let budget_before = issue_budget;
            let mut rejected = None;
            let mut fu_starved = false;
            let found_ready = !t.rob.ready.is_empty();
            let mut kept = 0;
            let mut next = 0;
            while next < t.rob.ready.len() && issue_budget > 0 {
                let seq = t.rob.ready[next];
                next += 1;
                let uop = &t.rob.slot(seq).uop;
                let kind = uop.kind;
                let fu = match kind {
                    OpKind::IntAlu | OpKind::Branch => &mut fu_int,
                    OpKind::IntMul => &mut fu_mul,
                    OpKind::Fp => &mut fu_fp,
                    OpKind::Load | OpKind::Store => &mut fu_lsu,
                };
                fu_starved |= *fu == 0;
                let completion = match kind {
                    _ if *fu == 0 => None,
                    OpKind::Load if rejected.is_some() => None,
                    OpKind::Load => {
                        let addr = uop.mem.expect("load carries an address").addr;
                        match self.mem.load(thread, addr, uop.pc, now) {
                            LoadResult::Hit { latency } => Some(now + latency),
                            LoadResult::Miss { completion } => Some(completion),
                            LoadResult::NoMshr => {
                                // Retry next cycle; stop trying further loads
                                // for this thread to preserve ordering.
                                rejected = Some((addr, uop.pc));
                                None
                            }
                        }
                    }
                    OpKind::Store => Some(now + 1),
                    other => Some(now + other.exec_latency()),
                };
                let Some(completion) = completion else {
                    t.rob.ready[kept] = seq;
                    kept += 1;
                    continue;
                };
                t.rob.issue(seq, completion);
                t.next_completion = t.next_completion.min(completion);
                *fu -= 1;
                issue_budget -= 1;
            }
            t.rob.ready.drain(kept..next);
            // Only an empty scan arms the skip; budget- or FU-starved
            // leftovers must be retried next cycle. A scan whose one action
            // was an MSHR rejection records the load for the warp.
            t.scan = match rejected {
                _ if !found_ready => IssueScan::Idle,
                Some((addr, pc)) if issue_budget == budget_before && !fu_starved => {
                    IssueScan::Retry { addr, pc }
                }
                _ => IssueScan::Due,
            };
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
                t.scan = IssueScan::Due;
                budget -= 1;
            }
        }
    }

    fn fetch(&mut self) {
        let threads = self.threads.len();
        let mut in_flight = std::mem::take(&mut self.scratch_in_flight);
        in_flight.clear();
        in_flight.extend(self.threads.iter().map(ThreadState::in_flight));
        let preferred = self.scheduler.select(self.fetch_policy, &in_flight, &self.active);
        self.scratch_in_flight = in_flight;
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
    use sim_model::TraceGenerator;

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
    }

    fn single_thread_core(trace: BoxedTrace) -> SmtCore {
        single_thread_core_with(CoreConfig::default(), trace)
    }

    fn single_thread_core_with(cfg: CoreConfig, trace: BoxedTrace) -> SmtCore {
        SmtCoreBuilder::new(cfg).thread(ThreadId::T0, trace).build()
    }

    /// The §V-A baseline pair: the builder's defaults with two traces.
    fn pair_core(cfg: CoreConfig, t0: BoxedTrace, t1: BoxedTrace) -> SmtCore {
        SmtCoreBuilder::new(cfg).thread(ThreadId::T0, t0).thread(ThreadId::T1, t1).build()
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
        let mut core = pair_core(cfg, StreamingLoads::boxed(11), AluLoop::boxed());
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
        let mut core = pair_core(cfg, AluLoop::boxed(), StreamingLoads::boxed(5));
        for _ in 0..1_000 {
            core.step();
        }
        let before = core.committed(ThreadId::T0);
        core.set_partition(PartitionPolicy::rob_shares(&cfg, &[56, 136]), true);
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
        let mut core = pair_core(cfg, AluLoop::boxed(), AluLoop::boxed());
        let mut last = 0;
        for i in 0..3_000 {
            core.step();
            if i % 500 == 0 {
                let skew = if (i / 500) % 2 == 0 { (56, 136) } else { (96, 96) };
                core.set_partition(PartitionPolicy::rob_shares(&cfg, &[skew.0, skew.1]), true);
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
            .partition(PartitionPolicy::equal(&cfg, 2)) // 2-thread split on a 4-thread core
            .build();
    }

    #[test]
    #[should_panic(expected = "gives thread T1 no ROB entries but it has a workload")]
    fn builder_rejects_a_zero_rob_share_for_a_thread_with_a_workload() {
        let cfg = CoreConfig::default();
        let _ = SmtCoreBuilder::new(cfg)
            .partition(PartitionPolicy::rob_shares(&cfg, &[96, 0]))
            .thread(ThreadId::T0, AluLoop::boxed())
            .thread(ThreadId::T1, AluLoop::boxed())
            .build();
    }

    #[test]
    fn an_idle_thread_may_hold_a_zero_rob_share() {
        let cfg = CoreConfig::default();
        let mut core = SmtCoreBuilder::new(cfg)
            .partition(PartitionPolicy::rob_shares(&cfg, &[96, 0]))
            .thread(ThreadId::T0, AluLoop::boxed())
            .build();
        core.run_instructions(ThreadId::T0, 1_000, 100_000);
        assert!(core.committed(ThreadId::T0) >= 1_000);
        core.set_partition(PartitionPolicy::rob_shares(&cfg, &[192, 0]), true);
        assert_eq!(core.partition().rob_limit(&cfg, ThreadId::T0), 192);
    }

    #[test]
    #[should_panic(expected = "gives thread T0 no ROB entries but it has a workload")]
    fn set_partition_rejects_a_zero_rob_share_for_a_thread_with_a_workload() {
        let cfg = CoreConfig::default();
        let mut core = pair_core(cfg, AluLoop::boxed(), AluLoop::boxed());
        core.set_partition(PartitionPolicy::rob_shares(&cfg, &[0, 192]), true);
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
        }
        let mut core = pair_core(
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
    }

    #[test]
    fn warped_retries_leave_the_hierarchy_where_plain_steps_do() {
        // Two threads streaming independent loads through one MSHR each park
        // on steady retries at the same time. The warp's retry rotation then
        // decides which prefetcher stamp each entry ends on, which no
        // statistic shows, so compare the hierarchy's whole state.
        let mut cfg = CoreConfig { mshrs_per_thread: 1, ..CoreConfig::default() };
        cfg.uncore.llc_capacity_bytes = 256 * 1024;
        let build = || pair_core(cfg, StreamingLoads::boxed(21), StreamingLoads::boxed(22));
        let (mut plain, mut warped) = (build(), build());
        while plain.cycles() < 20_000 {
            plain.step();
        }
        while warped.cycles() < 20_000 {
            warped.step();
            warped.skip_quiescent(20_000 - warped.cycles());
        }
        assert!(warped.retry_warped_cycles() > 0, "no cycle was skipped over a retry");
        assert_eq!(format!("{:?}", warped.mem), format!("{:?}", plain.mem));
    }

    #[test]
    fn an_l1i_hit_stalls_no_fetch_at_any_hit_latency() {
        // The loop's 256-byte body hits the L1-I after its first pass, so
        // the L1-I's own hit latency, whatever the L1-D's, must never read as
        // a miss. Only the four cold misses differ between the runs.
        let ipc = |latency| {
            let mut cfg = CoreConfig::default();
            cfg.l1i.hit_latency = latency;
            let mut core = single_thread_core_with(cfg, AluLoop::boxed());
            core.run_instructions(ThreadId::T0, 20_000, 200_000);
            core.committed(ThreadId::T0) as f64 / core.cycles() as f64
        };
        let table_ii = ipc(2);
        assert!(table_ii > 2.0, "the loop must run at full speed: {table_ii:.3}");
        for latency in [1, 4] {
            let other = ipc(latency);
            assert!(
                (other - table_ii).abs() < 0.01 * table_ii,
                "L1-I hit latency {latency}: IPC {other:.3}, at 2 cycles {table_ii:.3}"
            );
        }
    }

    /// The queues the ring replaced, as a model: per entry, its status and
    /// the producer each operand waits on ([`NO_DEP`] for none), with
    /// readiness recomputed by scanning every entry.
    #[derive(Default)]
    struct RobModel {
        head_seq: u64,
        entries: VecDeque<(EntryStatus, [u64; 2])>,
    }

    impl RobModel {
        fn next_seq(&self) -> u64 {
            self.head_seq + self.entries.len() as u64
        }

        fn pending(&self, seq: u64) -> bool {
            self.entries
                .get(seq.wrapping_sub(self.head_seq) as usize)
                .is_some_and(|e| e.0 != EntryStatus::Completed)
        }

        fn ready(&self) -> Vec<u64> {
            (self.head_seq..self.next_seq())
                .zip(&self.entries)
                .filter(|(_, (status, deps))| {
                    *status == EntryStatus::Dispatched && !deps.iter().any(|&d| self.pending(d))
                })
                .map(|(seq, _)| seq)
                .collect()
        }

        fn status_mut(&mut self, seq: u64) -> &mut EntryStatus {
            &mut self.entries[(seq - self.head_seq) as usize].0
        }
    }

    #[test]
    fn ready_list_equals_a_rescan_of_the_dispatched_entries() {
        let mut rng = sim_model::SimRng::new(0x20b_7ead);
        let mut squashed = Vec::new();
        let (mut woken, mut grown) = (0, 0);
        for case in 0..160 {
            // Shares from 1 entry to well past the ring's first 16 slots.
            let share = 1 + rng.below(300) as usize;
            let mut rob = Rob::default();
            let mut model = RobModel::default();
            for step in 0..1500 {
                let what = format!("case {case} (share {share}), step {step}");
                match rng.below(100) {
                    // Dispatch with producers drawn around the live range:
                    // pending ones link, as dispatch links only those.
                    0..=39 if rob.len() < share => {
                        let seq = rob.next_seq();
                        let draw = |rng: &mut sim_model::SimRng| match rng.below(3) {
                            0 => NO_DEP,
                            _ => seq.saturating_sub(1 + rng.below(24)),
                        };
                        let producers =
                            [draw(&mut rng), draw(&mut rng)].map(|p| match model.pending(p) {
                                true => p,
                                false => NO_DEP,
                            });
                        let uop = MicroOp::alu(seq * 4, OpKind::IntAlu, [None, None], None);
                        let before = rob.slots.len();
                        rob.push_back(seq, uop, producers, false, seq % 3 == 0);
                        grown += usize::from(rob.slots.len() > before.max(16));
                        model.entries.push_back((EntryStatus::Dispatched, producers));
                    }
                    // Issue a random subset of the ready list, compacting
                    // the rest in place as the issue stage does.
                    40..=59 => {
                        let mut kept = 0;
                        for i in 0..rob.ready.len() {
                            let seq = rob.ready[i];
                            if rng.chance(0.5) {
                                rob.issue(seq, rng.below(100));
                                *model.status_mut(seq) = EntryStatus::Issued;
                            } else {
                                rob.ready[kept] = seq;
                                kept += 1;
                            }
                        }
                        rob.ready.truncate(kept);
                    }
                    // Complete a random subset of the issued entries.
                    60..=79 => {
                        let mut kept = 0;
                        for i in 0..rob.issued.len() {
                            let seq = rob.issued[i];
                            if rng.chance(0.5) {
                                let before = rob.ready.len();
                                assert_eq!(rob.finish(seq), (seq, false), "{what}");
                                woken += rob.ready.len() - before;
                                *model.status_mut(seq) = EntryStatus::Completed;
                            } else {
                                rob.issued[kept] = seq;
                                kept += 1;
                            }
                        }
                        rob.issued.truncate(kept);
                    }
                    // Commit completed heads.
                    80..=97 => {
                        while rob.head_completed() && rng.chance(0.8) {
                            let seq = rob.head_seq;
                            let (uop, in_lsq) = rob.pop_front().expect("head checked");
                            assert_eq!((uop.pc, in_lsq), (seq * 4, seq % 3 == 0), "{what}");
                            model.entries.pop_front();
                            model.head_seq += 1;
                        }
                    }
                    // Flush.
                    98 => {
                        squashed.clear();
                        rob.flush_into(&mut squashed);
                        let pcs: Vec<u64> = squashed.iter().map(|u| u.pc).collect();
                        let expected: Vec<u64> =
                            (model.head_seq..model.next_seq()).map(|seq| seq * 4).collect();
                        assert_eq!(pcs, expected, "{what}: squashed in age order");
                        model.head_seq = model.next_seq();
                        model.entries.clear();
                    }
                    _ => {}
                }
                assert_eq!(rob.ready, model.ready(), "{what}: the ready list");
                assert_eq!((rob.head_seq, rob.len()), (model.head_seq, model.entries.len()));
                assert_eq!(
                    rob.head_completed(),
                    model.entries.front().is_some_and(|e| e.0 == EntryStatus::Completed)
                );
                let low = model.head_seq.saturating_sub(3);
                for seq in (low..model.next_seq() + 3).chain([NO_DEP]) {
                    assert_eq!(rob.pending(seq), model.pending(seq), "{what}: pending({seq})");
                }
            }
        }
        assert!(woken > 10_000, "too few wake-ups: {woken}");
        assert!(grown > 100, "too few ring growths: {grown}");
    }
}
