//! Server-level thread-to-core allocation: the policy layer *above*
//! [`ColocationPolicy`].
//!
//! A Stretch deployment answers two questions. Per core, how are the shared
//! structures divided between the resident threads? — that is the
//! [`ColocationPolicy`]. Across the server, *which* threads become residents
//! of *which* core? — that is the [`AllocationPolicy`] defined here. The two
//! compose through [`ServerScenario`]: an allocation policy produces a
//! [`Placement`] of the offered threads onto `M` cores × `T` SMT threads,
//! and every occupied core then runs under one shared colocation policy,
//! with the core's latency-sensitive thread (if any) in slot T0.
//!
//! Three reference allocators ship with the crate:
//!
//! * [`Greedy`] — isolate latency-sensitive threads on their own cores and
//!   pack batch threads densely onto the remaining ones;
//! * [`RoundRobin`] — deal threads across cores in arrival order, the
//!   class-blind default of a naive scheduler;
//! * [`SymbiosisAware`] — spread latency-sensitive threads, then co-locate
//!   batch threads by complementarity of their measured stand-alone UIPC
//!   (pairing window-hungry with compute-bound jobs, in the spirit of
//!   symbiotic job scheduling).
//!
//! Unlike a colocation policy, which is nothing but the core setup it
//! programs, an allocation policy carries a [`CanonicalKey`] identity: the
//! experiment engine keys a whole-server cell by the allocator as well as by
//! the placement it chose. A [`Placement`] is itself an allocation policy,
//! the one that returns exactly it.

use crate::policy::{ColocationPolicy, ColocationTopology};
use crate::runner::{ColocationResult, SimLength, ThreadRunResult};
use crate::scenario::Scenario;
use sim_model::{CanonicalKey, CoreConfig, KeyEncoder, ThreadId, TraceSource, WorkloadClass};

/// What the allocator knows about one schedulable thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadSpec {
    /// Workload name (used for labels and seed derivation).
    pub name: String,
    /// Latency-sensitive service or batch job.
    pub class: WorkloadClass,
    /// Measured stand-alone UIPC on a private core, when available; the
    /// signal [`SymbiosisAware`] pairs by.
    pub standalone_uipc: Option<f64>,
}

impl ThreadSpec {
    /// A latency-sensitive thread.
    pub fn latency_sensitive(name: impl Into<String>) -> ThreadSpec {
        ThreadSpec {
            name: name.into(),
            class: WorkloadClass::LatencySensitive,
            standalone_uipc: None,
        }
    }

    /// A batch thread.
    pub fn batch(name: impl Into<String>) -> ThreadSpec {
        ThreadSpec { name: name.into(), class: WorkloadClass::Batch, standalone_uipc: None }
    }

    /// Attaches a measured stand-alone UIPC reference.
    pub fn with_standalone_uipc(mut self, uipc: f64) -> ThreadSpec {
        self.standalone_uipc = Some(uipc);
        self
    }
}

/// The hardware shape of one server: `cores` SMT cores of `threads_per_core`
/// hardware threads each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerSpec {
    /// Number of cores.
    pub cores: usize,
    /// SMT width of each core (T ≥ 1).
    pub threads_per_core: usize,
}

impl ServerSpec {
    /// A server of `cores` cores × `threads_per_core` SMT threads.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cores: usize, threads_per_core: usize) -> ServerSpec {
        assert!(cores >= 1, "a server needs at least one core");
        assert!(threads_per_core >= 1, "a core needs at least one hardware thread");
        ServerSpec { cores, threads_per_core }
    }

    /// Total hardware-thread capacity.
    pub fn capacity(&self) -> usize {
        self.cores * self.threads_per_core
    }
}

impl CanonicalKey for ServerSpec {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.usize(self.cores).usize(self.threads_per_core);
    }
}

/// An assignment of threads to cores: `cores()[c]` lists the thread indices
/// resident on core `c`.
///
/// Construction validates the placement, so a `Placement` in hand is always
/// well-formed: every thread placed exactly once, no core over its SMT width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    cores: Vec<Vec<usize>>,
}

impl Placement {
    /// Validates and wraps a per-core thread-index assignment for
    /// `thread_count` threads on `server`.
    ///
    /// # Panics
    ///
    /// Panics if the core count disagrees with the server, a core exceeds the
    /// SMT width, or any thread index is missing, duplicated or out of range.
    pub fn new(cores: Vec<Vec<usize>>, thread_count: usize, server: &ServerSpec) -> Placement {
        assert!(
            cores.len() == server.cores,
            "placement describes {} cores but the server has {}",
            cores.len(),
            server.cores
        );
        let mut seen = vec![false; thread_count];
        for (c, members) in cores.iter().enumerate() {
            assert!(
                members.len() <= server.threads_per_core,
                "core {c} holds {} threads but its SMT width is {}",
                members.len(),
                server.threads_per_core
            );
            for &t in members {
                assert!(t < thread_count, "thread index {t} out of range ({thread_count} threads)");
                assert!(!seen[t], "thread {t} placed more than once");
                seen[t] = true;
            }
        }
        let unplaced = seen.iter().filter(|&&s| !s).count();
        assert!(unplaced == 0, "{unplaced} threads were left unplaced");
        Placement { cores }
    }

    /// Per-core thread-index lists.
    pub fn cores(&self) -> &[Vec<usize>] {
        &self.cores
    }
}

impl CanonicalKey for Placement {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        // Nested length-prefixed lists: placements with different per-core
        // groupings of the same thread set can never alias.
        enc.list(&self.cores);
    }
}

/// A server-level thread-to-core allocation policy.
///
/// Mirrors the shape of [`ColocationPolicy`] one level up: a pure placement
/// function, plus a [`CanonicalKey`] identity.
pub trait AllocationPolicy: CanonicalKey + Send + Sync {
    /// Places `threads` onto the cores of `server`.
    ///
    /// # Panics
    ///
    /// Implementations panic when the threads do not fit the server.
    fn assign(&self, threads: &[ThreadSpec], server: &ServerSpec) -> Placement;
}

/// A placement is the allocation policy that returns exactly it.
impl AllocationPolicy for Placement {
    /// # Panics
    ///
    /// Panics, as [`Placement::new`] does, if the placement does not place
    /// exactly `threads` on `server`.
    fn assign(&self, threads: &[ThreadSpec], server: &ServerSpec) -> Placement {
        Placement::new(self.cores.clone(), threads.len(), server)
    }
}

/// Splits thread indices into (latency-sensitive, batch) in index order.
fn split_by_class(threads: &[ThreadSpec]) -> (Vec<usize>, Vec<usize>) {
    let mut ls = Vec::new();
    let mut batch = Vec::new();
    for (i, t) in threads.iter().enumerate() {
        if t.class.is_latency_sensitive() {
            ls.push(i);
        } else {
            batch.push(i);
        }
    }
    (ls, batch)
}

/// Index of the emptiest core with a free slot (ties to the lowest index).
fn emptiest_core(cores: &[Vec<usize>], width: usize) -> usize {
    let mut best = usize::MAX;
    for (c, members) in cores.iter().enumerate() {
        if members.len() < width && (best == usize::MAX || members.len() < cores[best].len()) {
            best = c;
        }
    }
    assert!(best != usize::MAX, "no core has a free hardware thread");
    best
}

/// Isolate latency-sensitive threads, pack batch threads.
///
/// LS threads are spread one per core (emptiest first); batch threads then
/// fill the LS-free cores to capacity before spilling onto LS cores. With
/// enough cores, every LS service runs alone — the most protective static
/// allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Greedy;

impl CanonicalKey for Greedy {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.str("alloc/greedy");
    }
}

impl AllocationPolicy for Greedy {
    fn assign(&self, threads: &[ThreadSpec], server: &ServerSpec) -> Placement {
        assert!(threads.len() <= server.capacity(), "threads exceed server capacity");
        let width = server.threads_per_core;
        let mut cores: Vec<Vec<usize>> = vec![Vec::new(); server.cores];
        let (ls, batch) = split_by_class(threads);
        for t in ls {
            let c = emptiest_core(&cores, width);
            cores[c].push(t);
        }
        let ls_core: Vec<bool> = cores.iter().map(|m| !m.is_empty()).collect();
        let mut batch = batch.into_iter();
        'pack: for c in 0..server.cores {
            if ls_core[c] {
                continue;
            }
            while cores[c].len() < width {
                let Some(t) = batch.next() else { break 'pack };
                cores[c].push(t);
            }
        }
        for t in batch {
            let c = emptiest_core(&cores, width);
            cores[c].push(t);
        }
        Placement::new(cores, threads.len(), server)
    }
}

/// Deal threads across cores in arrival order, blind to class — the naive
/// scheduler baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin;

impl CanonicalKey for RoundRobin {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.str("alloc/round-robin");
    }
}

impl AllocationPolicy for RoundRobin {
    fn assign(&self, threads: &[ThreadSpec], server: &ServerSpec) -> Placement {
        assert!(threads.len() <= server.capacity(), "threads exceed server capacity");
        let width = server.threads_per_core;
        let mut cores: Vec<Vec<usize>> = vec![Vec::new(); server.cores];
        for t in 0..threads.len() {
            let mut c = t % server.cores;
            while cores[c].len() >= width {
                c = (c + 1) % server.cores;
            }
            cores[c].push(t);
        }
        Placement::new(cores, threads.len(), server)
    }
}

/// Spread latency-sensitive threads, then co-locate batch threads by UIPC
/// complementarity.
///
/// Batch threads are ordered by their measured stand-alone UIPC (missing
/// references sort lowest) and dealt onto cores alternating between the
/// low-UIPC end (memory-bound, window-hungry) and the high-UIPC end
/// (compute-bound) — so each core mixes jobs that stress different
/// resources rather than contending for the same one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymbiosisAware;

impl CanonicalKey for SymbiosisAware {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.str("alloc/symbiosis-aware");
    }
}

impl AllocationPolicy for SymbiosisAware {
    fn assign(&self, threads: &[ThreadSpec], server: &ServerSpec) -> Placement {
        assert!(threads.len() <= server.capacity(), "threads exceed server capacity");
        let width = server.threads_per_core;
        let mut cores: Vec<Vec<usize>> = vec![Vec::new(); server.cores];
        let (ls, batch) = split_by_class(threads);
        for t in ls {
            let c = emptiest_core(&cores, width);
            cores[c].push(t);
        }
        // Sort batch threads by stand-alone UIPC (bit-ordered for
        // determinism; None sorts lowest), then alternate between the two
        // extremes of the ordering.
        let mut sorted = batch;
        sorted.sort_by_key(|&t| (threads[t].standalone_uipc.map(f64::to_bits).unwrap_or(0), t));
        let mut sorted = std::collections::VecDeque::from(sorted);
        let mut take_low = true;
        for c in 0..server.cores {
            while cores[c].len() < width && !sorted.is_empty() {
                let t = if take_low {
                    sorted.pop_front().expect("checked non-empty")
                } else {
                    sorted.pop_back().expect("checked non-empty")
                };
                take_low = !take_low;
                cores[c].push(t);
            }
        }
        Placement::new(cores, threads.len(), server)
    }
}

/// One schedulable thread offered to a [`ServerScenario`]: its spec plus the
/// trace source that realises it.
pub struct ServerThread {
    spec: ThreadSpec,
    source: Box<dyn TraceSource + Send + Sync>,
}

impl ServerThread {
    /// Pairs an allocator-visible spec with its workload source.
    pub fn new(spec: ThreadSpec, source: Box<dyn TraceSource + Send + Sync>) -> ServerThread {
        ServerThread { spec, source }
    }
}

/// A declarative server-level run: `M` cores × `T` threads under one
/// [`AllocationPolicy`] (which core does a thread land on?) and one
/// [`ColocationPolicy`] (how does each core share its structures?).
pub struct ServerScenario {
    cfg: CoreConfig,
    server: ServerSpec,
    allocation: Box<dyn AllocationPolicy>,
    colocation: Box<dyn ColocationPolicy>,
    threads: Vec<ServerThread>,
    length: SimLength,
    seed: u64,
}

impl ServerScenario {
    /// Starts a server scenario with [`Greedy`] allocation and the
    /// [`crate::EqualPartition`] colocation baseline.
    pub fn new(server: ServerSpec) -> ServerScenario {
        ServerScenario {
            cfg: CoreConfig::default(),
            server,
            allocation: Box::new(Greedy),
            colocation: Box::new(crate::policy::EqualPartition),
            threads: Vec::new(),
            length: SimLength::standard(),
            seed: 42,
        }
    }

    /// Sets the core configuration (default: Table II).
    pub fn config(mut self, cfg: CoreConfig) -> ServerScenario {
        self.cfg = cfg;
        self
    }

    /// Sets the allocation policy.
    pub fn allocation(mut self, policy: impl AllocationPolicy + 'static) -> ServerScenario {
        self.allocation = Box::new(policy);
        self
    }

    /// Sets the per-core colocation policy.
    pub fn colocation(mut self, policy: impl ColocationPolicy + 'static) -> ServerScenario {
        self.colocation = Box::new(policy);
        self
    }

    /// Offers one thread to the server.
    pub fn thread(mut self, thread: ServerThread) -> ServerScenario {
        self.threads.push(thread);
        self
    }

    /// Sets the simulation length.
    pub fn length(mut self, length: SimLength) -> ServerScenario {
        self.length = length;
        self
    }

    /// Sets the base seed (per-core streams derive from it as in
    /// [`Scenario::seed`]).
    pub fn seed(mut self, seed: u64) -> ServerScenario {
        self.seed = seed;
        self
    }

    /// Places the threads and simulates every occupied core.
    ///
    /// Within a core, latency-sensitive threads occupy the lowest slots (so a
    /// core's LS service sits at T0, the topology's LS thread); batch threads
    /// follow in placement order; unused hardware threads stay idle. Every
    /// occupied core runs the one setup the colocation policy programs for a
    /// `threads_per_core`-wide core with its LS thread at T0.
    ///
    /// # Panics
    ///
    /// Panics if no thread was offered, or if the allocation does not fit.
    pub fn run(self) -> ServerRunResult {
        let ServerScenario { cfg, server, allocation, colocation, threads, length, seed } = self;
        assert!(!threads.is_empty(), "a server scenario needs at least one thread");
        let specs: Vec<ThreadSpec> = threads.iter().map(|t| t.spec.clone()).collect();
        let placement = allocation.assign(&specs, &server);
        let topology = ColocationTopology::new(server.threads_per_core, ThreadId::T0);
        let setup = colocation.setup_for(&cfg, &topology);
        let mut sources: Vec<Option<Box<dyn TraceSource + Send + Sync>>> =
            threads.into_iter().map(|t| Some(t.source)).collect();

        let mut cores = Vec::with_capacity(server.cores);
        let mut core_slots = Vec::with_capacity(server.cores);
        for members in placement.cores() {
            if members.is_empty() {
                cores.push(None);
                core_slots.push(vec![None; server.threads_per_core]);
                continue;
            }
            let mut ordered: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&t| specs[t].class.is_latency_sensitive())
                .collect();
            ordered.extend(
                members.iter().copied().filter(|&t| !specs[t].class.is_latency_sensitive()),
            );
            let mut slots: Vec<Option<usize>> = ordered.into_iter().map(Some).collect();
            slots.resize(server.threads_per_core, None);
            let slot_sources = slots
                .iter()
                .map(|s| s.map(|t| sources[t].take().expect("thread placed exactly once")))
                .collect();
            let result = Scenario::from_slots(slot_sources)
                .config(cfg)
                .policy(setup.clone())
                .length(length)
                .seed(seed)
                .run();
            cores.push(Some(result));
            core_slots.push(slots);
        }
        ServerRunResult { threads: specs, placement, core_slots, cores }
    }
}

/// Result of a [`ServerScenario`] run.
#[derive(Debug, Clone)]
pub struct ServerRunResult {
    /// The offered threads, in offer order (indices match the placement).
    pub threads: Vec<ThreadSpec>,
    /// Where each thread was placed.
    pub placement: Placement,
    /// Per core: which thread occupies each hardware-thread slot.
    pub core_slots: Vec<Vec<Option<usize>>>,
    /// Per core: the simulated result (`None` for an idle core).
    pub cores: Vec<Option<ColocationResult>>,
}

impl ServerRunResult {
    /// The per-thread run result for an offered thread index.
    pub fn thread_result(&self, thread: usize) -> Option<&ThreadRunResult> {
        for (core, slots) in self.core_slots.iter().enumerate() {
            if let Some(slot) = slots.iter().position(|&s| s == Some(thread)) {
                return self.cores[core].as_ref().and_then(|r| r.threads[slot].as_ref());
            }
        }
        None
    }

    /// UIPC of an offered thread.
    pub fn thread_uipc(&self, thread: usize) -> Option<f64> {
        self.thread_result(thread).map(|r| r.uipc)
    }

    /// Aggregate batch throughput: the sum of every batch thread's UIPC.
    pub fn batch_throughput(&self) -> f64 {
        (0..self.threads.len())
            .filter(|&t| self.threads[t].class.is_batch())
            .filter_map(|t| self.thread_uipc(t))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_model::{BoxedTrace, MicroOp, OpKind, TraceGenerator};

    fn specs(ls: usize, batch: usize) -> Vec<ThreadSpec> {
        let mut out = Vec::new();
        for i in 0..ls {
            out.push(ThreadSpec::latency_sensitive(format!("ls-{i}")));
        }
        for i in 0..batch {
            out.push(ThreadSpec::batch(format!("batch-{i}")));
        }
        out
    }

    #[test]
    fn greedy_isolates_ls_threads_when_cores_allow() {
        let server = ServerSpec::new(4, 2);
        let threads = specs(2, 4);
        let p = Greedy.assign(&threads, &server);
        // LS threads 0 and 1 land alone on cores 0 and 1; batch fills 2, 3.
        assert_eq!(p.cores()[0], vec![0]);
        assert_eq!(p.cores()[1], vec![1]);
        assert_eq!(p.cores()[2], vec![2, 3]);
        assert_eq!(p.cores()[3], vec![4, 5]);
    }

    #[test]
    fn greedy_spills_batch_onto_ls_cores_only_when_full() {
        let server = ServerSpec::new(2, 2);
        let threads = specs(1, 3);
        let p = Greedy.assign(&threads, &server);
        // Core 0: LS + one spilled batch; core 1: two batch threads.
        assert_eq!(p.cores()[1], vec![1, 2]);
        assert_eq!(p.cores()[0], vec![0, 3]);
    }

    #[test]
    fn round_robin_deals_in_order() {
        let server = ServerSpec::new(3, 2);
        let threads = specs(1, 4);
        let p = RoundRobin.assign(&threads, &server);
        assert_eq!(p.cores()[0], vec![0, 3]);
        assert_eq!(p.cores()[1], vec![1, 4]);
        assert_eq!(p.cores()[2], vec![2]);
    }

    #[test]
    fn symbiosis_pairs_extremes() {
        let server = ServerSpec::new(2, 2);
        let mut threads = specs(0, 4);
        for (i, uipc) in [0.1, 2.0, 0.5, 3.0].iter().enumerate() {
            threads[i] = threads[i].clone().with_standalone_uipc(*uipc);
        }
        let p = SymbiosisAware.assign(&threads, &server);
        // Sorted by UIPC: 0 (0.1), 2 (0.5), 1 (2.0), 3 (3.0). Core 0 takes
        // the lowest and the highest; core 1 takes the middle pair.
        assert_eq!(p.cores()[0], vec![0, 3]);
        assert_eq!(p.cores()[1], vec![2, 1]);
    }

    #[test]
    fn allocation_policies_have_distinct_keys() {
        let digest = |p: &dyn AllocationPolicy| {
            let mut enc = KeyEncoder::new();
            p.encode_key(&mut enc);
            enc.digest()
        };
        let a = digest(&Greedy);
        let b = digest(&RoundRobin);
        let c = digest(&SymbiosisAware);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn a_placement_used_as_an_allocation_returns_itself() {
        let server = ServerSpec::new(2, 2);
        let threads = specs(1, 2);
        let spread = Placement::new(vec![vec![0, 2], vec![1]], 3, &server);
        assert_eq!(spread.assign(&threads, &server), spread);
        // Greedy would isolate the service; the placement does not re-place.
        assert_ne!(Greedy.assign(&threads, &server), spread);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_placement_used_as_an_allocation_rejects_another_thread_count() {
        let server = ServerSpec::new(2, 2);
        let placement = Placement::new(vec![vec![0, 2], vec![1]], 3, &server);
        let _ = placement.assign(&specs(1, 1), &server);
    }

    #[test]
    fn distinct_placements_have_distinct_keys() {
        let digest = |p: &Placement| {
            let mut enc = KeyEncoder::new();
            p.encode_key(&mut enc);
            enc.digest()
        };
        let server = ServerSpec::new(2, 2);
        let grouped = Placement::new(vec![vec![0, 1], vec![2]], 3, &server);
        let spread = Placement::new(vec![vec![0], vec![1, 2]], 3, &server);
        assert_ne!(digest(&grouped), digest(&spread));
    }

    #[test]
    #[should_panic(expected = "placed more than once")]
    fn placement_rejects_duplicates() {
        let server = ServerSpec::new(2, 2);
        let _ = Placement::new(vec![vec![0, 1], vec![1]], 2, &server);
    }

    #[test]
    #[should_panic(expected = "left unplaced")]
    fn placement_rejects_missing_threads() {
        let server = ServerSpec::new(2, 2);
        let _ = Placement::new(vec![vec![0], vec![]], 2, &server);
    }

    #[test]
    #[should_panic(expected = "SMT width")]
    fn placement_rejects_overfull_cores() {
        let server = ServerSpec::new(1, 2);
        let _ = Placement::new(vec![vec![0, 1, 2]], 3, &server);
    }

    struct AluLoop {
        pc: u64,
    }

    impl TraceGenerator for AluLoop {
        fn next_op(&mut self) -> MicroOp {
            self.pc = 0x1000 + (self.pc + 4 - 0x1000) % 512;
            MicroOp::alu(self.pc, OpKind::IntAlu, [None, None], Some(1))
        }
    }

    struct AluSource(&'static str);

    impl TraceSource for AluSource {
        fn source_name(&self) -> &str {
            self.0
        }
        fn spawn_trace(&self, _seed: u64) -> BoxedTrace {
            Box::new(AluLoop { pc: 0x1000 })
        }
    }

    fn server_thread(spec: ThreadSpec) -> ServerThread {
        let name: &'static str = Box::leak(spec.name.clone().into_boxed_str());
        ServerThread::new(spec, Box::new(AluSource(name)))
    }

    #[test]
    fn server_scenario_runs_every_thread() {
        let server = ServerSpec::new(2, 2);
        let mut scenario = ServerScenario::new(server).length(SimLength::quick());
        for spec in specs(1, 2) {
            scenario = scenario.thread(server_thread(spec));
        }
        let result = scenario.run();
        for t in 0..3 {
            assert!(
                result.thread_uipc(t).expect("thread ran") > 0.1,
                "thread {t} made no progress"
            );
        }
        assert!(result.batch_throughput() > 0.0);
        // Greedy isolation: the LS thread runs alone on core 0.
        assert_eq!(result.placement.cores()[0], vec![0]);
    }

    #[test]
    fn server_scenario_is_deterministic() {
        let run = || {
            let server = ServerSpec::new(2, 2);
            let mut scenario = ServerScenario::new(server)
                .allocation(RoundRobin)
                .length(SimLength::quick())
                .seed(7);
            for spec in specs(1, 2) {
                scenario = scenario.thread(server_thread(spec));
            }
            let result = scenario.run();
            (0..3).map(|t| result.thread_uipc(t).unwrap().to_bits()).collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }
}
