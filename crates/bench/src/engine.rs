//! The shared experiment engine.
//!
//! Every paper figure is a view over the same experiment space: the 4 latency
//! sensitive × 29 batch colocation matrix under a handful of core setups,
//! stand-alone full-core reference runs, ROB-capacity sweeps and request
//! level queueing curves. The [`Engine`] runs each *distinct* experiment cell
//! exactly once:
//!
//! * **in-process memoisation** — completed cells are kept in memory and
//!   shared across figures rendered in the same process (the `figures`
//!   driver renders all of them from one engine);
//! * **in-flight deduplication** — when two workers request the same cell
//!   concurrently, the second blocks on a condvar until the first finishes,
//!   instead of running the simulation twice;
//! * **persistent caching** — with a [`ResultStore`] attached, results
//!   survive the process, keyed by a collision-free canonical digest of the
//!   core configuration, the [`cpu_sim::CoreSetup`] the colocation policy
//!   programs (plus the allocation policy's identity for a whole server),
//!   thread grouping or whole-server placement, seed and simulation length
//!   (see [`crate::store`]); a warm-cache invocation performs zero
//!   simulation runs, which [`CacheStats`] makes verifiable;
//! * **store audits** — with [`Engine::with_audit`], cells served from the
//!   store are recomputed and compared with their stored entries byte for
//!   byte ([`AuditStats`]), which catches a cell whose meaning changed
//!   without a cell-family version bump.
//!
//! Each cycle-level cell builds its run directly on the `cpu_sim` entry
//! points: [`Scenario`] for SMT colocations and stand-alone runs,
//! [`ServerScenario`] for whole servers, so Stretch and every baseline go
//! through one interface. All matrix-shaped work is funnelled through the
//! single [`parallel_map`] pool with the configuration's worker count, so
//! callers never spawn their own ad-hoc thread pools.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};

use cluster_sim::{CaseStudy, Fleet, FleetReport, FleetScale, LoadBalancer};
use cpu_sim::{
    AllocationPolicy, ColocationPolicy, ColocationTopology, PrivateCore, Scenario, ServerScenario,
    ServerSpec, ServerThread, SimLength, ThreadRunResult, ThreadSpec,
};
use serde_json::Value;
use sim_model::{parallel_map, CoreConfig, KeyEncoder, ThreadId, TraceSource};
use sim_qos::{latency_vs_load, slack_curve, LoadPoint, ServiceSpec, SlackPoint};
use workloads::{batch, latency_sensitive};

use crate::store::{JsonCodec, ResultStore};

/// Common experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Core configuration (Table II defaults).
    pub core: CoreConfig,
    /// Simulation length per run.
    pub length: SimLength,
    /// Base RNG seed; every workload pairing derives its own stream from it.
    pub seed: u64,
    /// Number of worker threads for the experiment matrix (0 = all cores).
    pub parallelism: usize,
}

impl ExperimentConfig {
    /// The standard configuration used by the figure binaries.
    pub fn standard() -> ExperimentConfig {
        ExperimentConfig {
            core: CoreConfig::default(),
            length: SimLength::standard(),
            seed: 42,
            parallelism: 0,
        }
    }

    /// A reduced configuration for tests and quick figure runs (`--quick`).
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            core: CoreConfig::default(),
            length: SimLength::quick(),
            seed: 42,
            parallelism: 0,
        }
    }

    /// The effective worker-thread count for this configuration.
    pub fn workers(&self) -> usize {
        if self.parallelism > 0 {
            self.parallelism
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        }
    }

    /// Whether this is the reduced (test/CI) scale.
    pub fn is_quick(&self) -> bool {
        self.length == SimLength::quick()
    }

    /// Queueing-simulation parameters matching this configuration's scale:
    /// quick core simulations pair with quick request-level simulations.
    pub fn qos_params(&self, seed: u64) -> sim_qos::SimParams {
        if self.is_quick() {
            sim_qos::SimParams::quick(seed)
        } else {
            sim_qos::SimParams::standard(seed)
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig::standard()
    }
}

/// Outcome of one latency-sensitive × batch colocation run.
#[derive(Debug, Clone, PartialEq)]
pub struct PairOutcome {
    /// Latency-sensitive workload name (thread 0).
    pub ls: String,
    /// Batch workload name (thread 1).
    pub batch: String,
    /// UIPC of the latency-sensitive thread.
    pub ls_uipc: f64,
    /// UIPC of the batch thread.
    pub batch_uipc: f64,
}

/// Outcome of one latency-sensitive × N-batch SMT colocation run: per-slot
/// workload names and UIPCs, with the latency-sensitive service in slot 0
/// and the batch co-runners following in offer order.
#[derive(Debug, Clone, PartialEq)]
pub struct SmtOutcome {
    /// Workload names in hardware-thread slot order (LS service first).
    pub names: Vec<String>,
    /// UIPC of each slot, aligned with `names`.
    pub uipcs: Vec<f64>,
}

impl SmtOutcome {
    /// UIPC of the latency-sensitive service (slot 0).
    pub fn ls_uipc(&self) -> f64 {
        self.uipcs[0]
    }

    /// Aggregate UIPC of the batch co-runners (slots 1..).
    pub fn batch_throughput(&self) -> f64 {
        sim_stats::det_sum(&self.uipcs[1..])
    }
}

/// Outcome of one whole-server run: the placement the allocation policy
/// chose plus every offered thread's UIPC. Thread 0 is the latency-sensitive
/// service, the batch jobs follow in offer order (the [`Engine::server`]
/// cell convention).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerOutcome {
    /// Offered workload names (index = thread index, LS service first).
    pub names: Vec<String>,
    /// The chosen placement: `cores[c]` lists the thread indices on core `c`.
    pub cores: Vec<Vec<usize>>,
    /// UIPC of each offered thread, aligned with `names`.
    pub uipcs: Vec<f64>,
}

impl ServerOutcome {
    /// UIPC of the latency-sensitive service (thread 0).
    pub fn ls_uipc(&self) -> f64 {
        self.uipcs[0]
    }

    /// Aggregate UIPC of the batch threads (threads 1..).
    pub fn batch_throughput(&self) -> f64 {
        sim_stats::det_sum(&self.uipcs[1..])
    }
}

/// Hit/miss counters for one engine. `misses` equals the number of actual
/// simulation runs performed — a warm-cache invocation reports `misses == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the in-process memo (includes waiting out an
    /// in-flight computation of the same cell).
    pub memo_hits: u64,
    /// Requests answered from the persistent [`ResultStore`].
    pub store_hits: u64,
    /// Requests that had to run a simulation.
    pub misses: u64,
}

impl CacheStats {
    /// Total requests answered without simulating.
    pub fn hits(&self) -> u64 {
        self.memo_hits + self.store_hits
    }

    /// Total requests served.
    pub fn total(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Fraction of requests served from a cache (1.0 when fully warm; 0.0
    /// for an empty engine that served nothing).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.total() as f64
        }
    }
}

/// Counters of a store audit ([`Engine::with_audit`]), kept apart from
/// [`CacheStats`]: an audit recomputation is not a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// Store-served cells that were recomputed and compared.
    pub audited: u64,
    /// Audited cells whose recomputed entry differs from the stored one.
    pub mismatched: u64,
}

enum Slot {
    /// A worker is computing this cell; wait on the condvar.
    InFlight,
    /// The cell's encoded result.
    Ready(Value),
}

struct EngineState {
    memo: HashMap<String, Slot>,
    stats: CacheStats,
    audit: AuditStats,
}

/// RAII ownership of a cell's [`Slot::InFlight`] claim. On success the owner
/// calls [`InFlightClaim::publish`]; if the store probe or the computation
/// panics first, `Drop` removes the claim and wakes waiters so they can
/// re-claim the cell instead of blocking on the condvar forever.
struct InFlightClaim<'a> {
    engine: &'a Engine,
    digest: Option<String>,
}

impl InFlightClaim<'_> {
    /// Publishes the computed value under the claimed digest, bumps the
    /// chosen counter and wakes every waiter.
    fn publish(&mut self, value: Value, count: impl FnOnce(&mut CacheStats)) {
        let digest = self.digest.take().expect("claim published once");
        let mut state = self.engine.state.lock().expect("engine state lock");
        count(&mut state.stats);
        state.memo.insert(digest, Slot::Ready(value));
        self.engine.ready.notify_all();
    }
}

impl Drop for InFlightClaim<'_> {
    fn drop(&mut self) {
        if let Some(digest) = self.digest.take() {
            // Unwinding with the claim unpublished: release it. Ignore a
            // poisoned lock — every other engine user unwraps it anyway.
            if let Ok(mut state) = self.engine.state.lock() {
                state.memo.remove(&digest);
                self.engine.ready.notify_all();
            }
        }
    }
}

/// The shared experiment engine. See the [module docs](self) for semantics.
///
/// # Examples
///
/// Warm-cache usage: repeating a request never re-simulates — the repeat is
/// served bit-exactly from the in-process memo, which [`CacheStats`] proves:
///
/// ```
/// use cpu_sim::EqualPartition;
/// use stretch_bench::{Engine, ExperimentConfig};
///
/// let engine = Engine::new(ExperimentConfig::quick());
/// let cold = engine.pair(&EqualPartition, "web-search", "zeusmp");
/// let warm = engine.pair(&EqualPartition, "web-search", "zeusmp");
/// assert_eq!(cold.ls_uipc.to_bits(), warm.ls_uipc.to_bits());
///
/// let stats = engine.stats();
/// assert_eq!(stats.misses, 1, "only the cold request simulated");
/// assert_eq!(stats.memo_hits, 1, "the warm request was a pure memo hit");
/// ```
pub struct Engine {
    cfg: ExperimentConfig,
    ls: Vec<String>,
    batch: Vec<String>,
    store: Option<ResultStore>,
    /// Whether store-served cells are recomputed and compared.
    auditing: bool,
    state: Mutex<EngineState>,
    ready: Condvar,
}

impl Engine {
    /// An engine over the full 4 × 29 study of the paper.
    pub fn new(cfg: ExperimentConfig) -> Engine {
        Engine {
            cfg,
            ls: latency_sensitive::NAMES.iter().map(|s| s.to_string()).collect(),
            batch: batch::NAMES.iter().map(|s| s.to_string()).collect(),
            store: None,
            auditing: false,
            state: Mutex::new(EngineState {
                memo: HashMap::new(),
                stats: CacheStats::default(),
                audit: AuditStats::default(),
            }),
            ready: Condvar::new(),
        }
    }

    /// Attaches a persistent [`ResultStore`] rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the store directory cannot be
    /// created.
    pub fn with_store(mut self, dir: impl Into<PathBuf>) -> io::Result<Engine> {
        self.store = Some(ResultStore::open(dir)?);
        Ok(self)
    }

    /// Audits the attached store: every cell served from it is also
    /// recomputed, and the fresh entry is compared byte for byte with the
    /// stored one. The audited set is the set of served cells, the same at
    /// any worker count and in any run order. The engine still serves the
    /// stored value, and audit recomputations count in
    /// [`Engine::audit_stats`], not in [`CacheStats::misses`].
    pub fn with_audit(mut self) -> Engine {
        self.auditing = true;
        self
    }

    /// Restricts the engine to a sub-matrix: the first `ls` latency-sensitive
    /// and first `batch` batch workloads (for tests and CI runs).
    ///
    /// # Panics
    ///
    /// Panics if either count is zero or exceeds the full study size.
    pub fn with_sub_matrix(mut self, ls: usize, batch: usize) -> Engine {
        assert!(ls >= 1 && ls <= self.ls.len(), "need 1..={} LS workloads", self.ls.len());
        assert!(batch >= 1 && batch <= self.batch.len(), "need 1..={} batch", self.batch.len());
        self.ls.truncate(ls);
        self.batch.truncate(batch);
        self
    }

    /// The experiment configuration.
    pub fn cfg(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The latency-sensitive workload names in study order.
    pub fn ls_names(&self) -> &[String] {
        &self.ls
    }

    /// The batch workload names in study order.
    pub fn batch_names(&self) -> &[String] {
        &self.batch
    }

    /// The persistent store, if one is attached.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().expect("engine state lock").stats
    }

    /// A snapshot of the store-audit counters (all zero without
    /// [`Engine::with_audit`]).
    pub fn audit_stats(&self) -> AuditStats {
        self.state.lock().expect("engine state lock").audit
    }

    /// Number of actual simulation runs performed by this engine.
    pub fn sim_runs(&self) -> u64 {
        self.stats().misses
    }

    /// A key prefix binding a request kind to the core configuration,
    /// simulation length and base seed.
    fn core_key(&self, kind: &str) -> KeyEncoder {
        let mut enc = KeyEncoder::new();
        enc.str(kind).field(&self.cfg.core).field(&self.cfg.length).u64(self.cfg.seed);
        enc
    }

    /// Central memoisation path: answer from memo or store, or claim the
    /// cell, compute it once, and publish the result.
    ///
    /// The store probe and the computation both run *without* the state lock
    /// held (the cell is marked in-flight first), so warm runs read the disk
    /// in parallel and cold runs never serialise behind each other.
    fn run_cached<T: JsonCodec>(
        &self,
        key: &KeyEncoder,
        what: &str,
        compute: impl FnOnce() -> T,
    ) -> T {
        let digest = key.digest();
        let mut state = self.state.lock().expect("engine state lock");
        loop {
            match state.memo.get(&digest) {
                Some(Slot::Ready(value)) => {
                    let value = value.clone();
                    state.stats.memo_hits += 1;
                    drop(state);
                    return T::from_json(&value).expect("memoised value decodes");
                }
                Some(Slot::InFlight) => {
                    state = self.ready.wait(state).expect("engine state lock");
                }
                None => break,
            }
        }
        state.memo.insert(digest.clone(), Slot::InFlight);
        drop(state);
        // If the probe or the computation panics, the guard clears the
        // in-flight claim and wakes waiters (who will then claim the cell
        // themselves) instead of leaving them blocked forever.
        let mut claim = InFlightClaim { engine: self, digest: Some(digest.clone()) };

        if let Some(store) = &self.store {
            if let Some(value) = store.load(&digest) {
                if let Some(decoded) = T::from_json(&value) {
                    if self.auditing {
                        self.audit(&digest, what, &value, &compute().to_json());
                    }
                    claim.publish(value, |stats| stats.store_hits += 1);
                    return decoded;
                }
                // An unreadable/incompatible entry falls through to a
                // recompute that overwrites it.
            }
        }
        let result = compute();
        let value = result.to_json();
        if let Some(store) = &self.store {
            if let Err(err) = store.save(&digest, what, &value) {
                eprintln!("warning: result store write failed for {what}: {err}");
            }
        }
        claim.publish(value, |stats| stats.misses += 1);
        result
    }

    /// Counts one audited cell and reports it if the recomputed entry is not
    /// byte for byte the stored one.
    fn audit(&self, digest: &str, what: &str, stored: &Value, fresh: &Value) {
        let render = |value: &Value| serde_json::to_string(value).expect("Value rendering");
        let matches = render(stored) == render(fresh);
        if !matches {
            eprintln!("cache audit: {what} ({digest}) differs from its stored entry");
        }
        let mut state = self.state.lock().expect("engine state lock");
        state.audit.audited += 1;
        state.audit.mismatched += u64::from(!matches);
    }

    /// One latency-sensitive × N-batch SMT colocation cell under a
    /// [`ColocationPolicy`]: `1 + batches.len()` hardware threads sharing one
    /// core. A run is a pure function of the core configuration, length,
    /// seed, the [`cpu_sim::CoreSetup`] the policy programs for this width
    /// (LS thread at T0) and the slot-ordered names, so the cache digest
    /// covers exactly those: two policies that program the same core share
    /// one cell, and the historical two-thread pairs and the wider SMT4
    /// groupings are distinct cells of one `smt/v2` family. The computation
    /// is one [`Scenario::colocate_n`] run of that setup, which seeds the
    /// grouping with [`cpu_sim::colocation_seed`] over the slot-ordered
    /// names, so the same grouping sees identical instruction streams under
    /// every policy.
    ///
    /// # Panics
    ///
    /// Panics if any workload name is unknown or `batches` is empty.
    pub fn smt(&self, policy: &dyn ColocationPolicy, ls: &str, batches: &[String]) -> SmtOutcome {
        let mut names = Vec::with_capacity(1 + batches.len());
        names.push(ls.to_string());
        names.extend(batches.iter().cloned());
        let topology = ColocationTopology::new(names.len(), ThreadId::T0);
        let setup = policy.setup_for(&self.cfg.core, &topology);
        let mut key = self.core_key("smt/v2");
        key.field(&setup).list(&names);
        self.run_cached(&key, &format!("smt {}", names.join(" x ")), || {
            let ls_profile =
                latency_sensitive::profile_by_name(ls).expect("known latency-sensitive name");
            let batch_profiles: Vec<Box<dyn TraceSource + Send + Sync>> = batches
                .iter()
                .map(|name| {
                    Box::new(batch::profile_by_name(name).expect("known batch name"))
                        as Box<dyn TraceSource + Send + Sync>
                })
                .collect();
            let result = Scenario::colocate_n(ls_profile, batch_profiles)
                .config(self.cfg.core)
                .policy(setup)
                .length(self.cfg.length)
                .seed(self.cfg.seed)
                .run();
            let uipcs = (0..names.len())
                .map(|slot| result.expect_thread(ThreadId::from_index(slot)).uipc)
                .collect();
            SmtOutcome { names, uipcs }
        })
    }

    /// One latency-sensitive × batch colocation cell under a
    /// [`ColocationPolicy`]: the classic two-thread case of [`Engine::smt`],
    /// repackaged as a [`PairOutcome`]. Pair and `smt` requests for the same
    /// grouping share one cached cell.
    pub fn pair(&self, policy: &dyn ColocationPolicy, ls: &str, batch_name: &str) -> PairOutcome {
        let smt = self.smt(policy, ls, std::slice::from_ref(&batch_name.to_string()));
        PairOutcome {
            ls: ls.to_string(),
            batch: batch_name.to_string(),
            ls_uipc: smt.uipcs[0],
            batch_uipc: smt.uipcs[1],
        }
    }

    /// One whole-server cell: `spec` cores × threads under an
    /// [`AllocationPolicy`] (thread → core) with a [`ColocationPolicy`] on
    /// every occupied core. Thread 0 is the latency-sensitive service; the
    /// batch jobs follow in offer order. Each batch name's stand-alone UIPC
    /// is resolved through the engine's own cached [`Engine::standalone`]
    /// cells and fed to the allocator (the symbiosis signal), and the cache
    /// digest covers the allocation policy's identity, the per-core
    /// [`cpu_sim::CoreSetup`] the colocation policy programs, the server
    /// shape, the *chosen placement* and the offered names — so an
    /// allocation change that moves a thread is a different cell even under
    /// the same allocator name. The run is handed that placement and that
    /// setup.
    ///
    /// # Panics
    ///
    /// Panics if a workload name is unknown or the population does not fit
    /// the server.
    pub fn server(
        &self,
        spec: ServerSpec,
        allocation: &dyn AllocationPolicy,
        colocation: &dyn ColocationPolicy,
        ls: &str,
        batches: &[String],
    ) -> ServerOutcome {
        let threads: Vec<ThreadSpec> = std::iter::once(
            ThreadSpec::latency_sensitive(ls).with_standalone_uipc(self.standalone(ls).uipc),
        )
        .chain(batches.iter().map(|name| {
            ThreadSpec::batch(name.clone()).with_standalone_uipc(self.standalone(name).uipc)
        }))
        .collect();
        let placement = allocation.assign(&threads, &spec);
        let topology = ColocationTopology::new(spec.threads_per_core, ThreadId::T0);
        let setup = colocation.setup_for(&self.cfg.core, &topology);
        let mut key = self.core_key("server/v2");
        allocation.encode_key(&mut key);
        key.field(&setup).field(&spec).field(&placement);
        let names: Vec<String> = threads.iter().map(|t| t.name.clone()).collect();
        key.list(&names);
        let what =
            format!("server {} threads on {}x{}", names.len(), spec.cores, spec.threads_per_core);
        self.run_cached(&key, &what, || {
            let mut scenario = ServerScenario::new(spec)
                .config(self.cfg.core)
                .allocation(placement)
                .colocation(setup)
                .length(self.cfg.length)
                .seed(self.cfg.seed);
            for thread in threads {
                let profile = workloads::profile_by_name(&thread.name)
                    .unwrap_or_else(|| panic!("unknown workload {}", thread.name));
                scenario = scenario.thread(ServerThread::new(thread, Box::new(profile)));
            }
            let result = scenario.run();
            let uipcs = (0..names.len())
                .map(|t| result.thread_uipc(t).expect("every offered thread was placed and ran"))
                .collect();
            ServerOutcome { names, cores: result.placement.cores().to_vec(), uipcs }
        })
    }

    /// The full colocation matrix (engine's LS × batch lists) under one
    /// policy, row-major: every batch workload for the first
    /// latency-sensitive name, then the next.
    pub fn matrix(&self, policy: &dyn ColocationPolicy) -> Vec<PairOutcome> {
        let pairs: Vec<(String, String)> = self
            .ls
            .iter()
            .flat_map(|ls| self.batch.iter().map(move |b| (ls.clone(), b.clone())))
            .collect();
        parallel_map(pairs, self.cfg.workers(), |(ls, batch_name)| {
            self.pair(policy, ls, batch_name)
        })
    }

    /// A stand-alone full-core run of one workload (the normalisation
    /// reference of Figures 3–6, and the MLP census source of Figure 7).
    pub fn standalone(&self, name: &str) -> ThreadRunResult {
        self.standalone_with_rob(name, self.cfg.core.rob_capacity)
    }

    /// A stand-alone run with an explicit per-thread ROB allocation (the
    /// Figure 6 sensitivity sweep). With `rob_entries` equal to the full ROB
    /// capacity this is the same cell as [`Engine::standalone`] — the sweep's
    /// endpoint and the reference run share one simulation.
    ///
    /// # Panics
    ///
    /// Panics if the workload name is unknown.
    pub fn standalone_with_rob(&self, name: &str, rob_entries: usize) -> ThreadRunResult {
        let mut key = self.core_key("standalone/v1");
        key.str(name).usize(rob_entries);
        self.run_cached(&key, &format!("standalone {name} rob={rob_entries}"), || {
            let profile = workloads::profile_by_name(name)
                .unwrap_or_else(|| panic!("unknown workload {name}"));
            // At full capacity the capped window coincides with
            // `PrivateCore::full()`, so the sweep endpoint IS the reference.
            Scenario::standalone(profile)
                .config(self.cfg.core)
                .policy(PrivateCore::with_rob(rob_entries))
                .length(self.cfg.length)
                .seed(self.cfg.seed)
                .run_thread0()
        })
    }

    /// Stand-alone full-core UIPC for every workload in the engine's study,
    /// keyed by name. Individual runs are cached cells, so the reference is
    /// computed at most once per process no matter how many figures need it.
    /// The map is ordered (`BTreeMap`) so that callers iterating it — not
    /// just point lookups — see a deterministic workload order.
    pub fn standalone_reference(&self) -> BTreeMap<String, f64> {
        let mut names = self.ls.clone();
        names.extend(self.batch.iter().cloned());
        parallel_map(names, self.cfg.workers(), |name| (name.clone(), self.standalone(name).uipc))
            .into_iter()
            .collect()
    }

    /// The Figure 1 latency-versus-load curve for one service, scaled to the
    /// configuration (quick or standard request counts).
    pub fn latency_curve(
        &self,
        spec: &ServiceSpec,
        seed: u64,
        min_load: f64,
        steps: usize,
    ) -> Vec<LoadPoint> {
        let params = self.cfg.qos_params(seed);
        let mut key = KeyEncoder::new();
        key.str("latency-curve/v1").field(spec).field(&params).f64(min_load).usize(steps);
        self.run_cached(&key, &format!("latency curve {}", spec.name), || {
            latency_vs_load(spec, params, min_load, steps)
        })
    }

    /// The Figure 2 slack curve for one service over a load grid.
    pub fn slack_curve(&self, spec: &ServiceSpec, seed: u64, loads: &[f64]) -> Vec<SlackPoint> {
        let params = self.cfg.qos_params(seed);
        let mut key = KeyEncoder::new();
        key.str("slack-curve/v2").field(spec).field(&params).list(loads);
        self.run_cached(&key, &format!("slack curve {}", spec.name), || {
            slack_curve(spec, params, loads)
        })
    }

    /// A multi-day run of an already-calibrated [`Fleet`] (the measured
    /// §VI-D datacenter run). The cell's digest is the complete canonical
    /// config identity plus the bits of the fleet's measured per-server
    /// peak, so any knob change — balancer, scale, racks, tail retention,
    /// day count, thresholds, table, seed — recomputes, and two
    /// fleets calibrated to different peaks never share a cell. The run
    /// shards over the configuration's worker count; the worker count is
    /// deliberately *not* part of the digest because the sharded merge is
    /// bit-identical at every count.
    pub fn fleet(&self, fleet: &Fleet) -> FleetReport {
        let cfg = fleet.cfg();
        let mut key = KeyEncoder::new();
        key.str("fleet/v4").field(cfg).f64(fleet.peak_rps());
        self.run_cached(
            &key,
            &format!(
                "fleet {} x{} {} ({} rack(s))",
                cfg.service.name, cfg.servers, cfg.balancer, cfg.racks
            ),
            || fleet.run_with_workers(self.cfg.workers()),
        )
    }

    /// A measured cluster case study as ONE cached cell: the study's
    /// engagement-threshold calibration *and* the 24-hour fleet run both
    /// happen inside the cell, keyed by the study parameters, balancer and
    /// scale — so a warm rerun of a fleet figure performs zero simulation
    /// work of any kind.
    pub fn fleet_study(
        &self,
        study: &CaseStudy,
        balancer: LoadBalancer,
        scale: FleetScale,
    ) -> FleetReport {
        let mut key = KeyEncoder::new();
        key.str("fleet-study/v3").field(study).field(&balancer).field(&scale);
        self.run_cached(&key, &format!("fleet study {} {}", study.service().name, balancer), || {
            study.run_fleet_with_workers(balancer, scale, self.cfg.workers())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_sim::EqualPartition;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig::quick()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir()
            .join(format!("stretch-engine-test-{tag}-{}-{unique}", std::process::id()))
    }

    #[test]
    fn repeated_cells_simulate_once() {
        let engine = Engine::new(quick_cfg());
        let a = engine.pair(&EqualPartition, "web-search", "zeusmp");
        let b = engine.pair(&EqualPartition, "web-search", "zeusmp");
        assert_eq!(a, b);
        let stats = engine.stats();
        assert_eq!(stats.misses, 1, "second request must be a memo hit");
        assert_eq!(stats.memo_hits, 1);
    }

    #[test]
    fn in_flight_duplicates_are_deduplicated() {
        let engine = Engine::new(quick_cfg());
        // Hammer the same cell from many workers at once; only one may run.
        let requests: Vec<u32> = (0..16).collect();
        let outcomes =
            parallel_map(requests, 8, |_| engine.pair(&EqualPartition, "web-search", "mcf"));
        assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(engine.stats().misses, 1, "concurrent duplicates must not re-simulate");
        assert_eq!(engine.stats().memo_hits, 15);
    }

    #[test]
    fn store_makes_results_survive_the_engine() {
        let dir = temp_dir("warm");

        let cold = Engine::new(quick_cfg()).with_store(&dir).expect("store opens");
        let first = cold.pair(&EqualPartition, "web-search", "zeusmp");
        let reference = cold.standalone("web-search");
        assert_eq!(cold.stats().misses, 2);

        let warm = Engine::new(quick_cfg()).with_store(&dir).expect("store opens");
        let second = warm.pair(&EqualPartition, "web-search", "zeusmp");
        let reference2 = warm.standalone("web-search");
        assert_eq!(warm.sim_runs(), 0, "warm engine must not simulate");
        assert_eq!(warm.stats().store_hits, 2);
        assert_eq!(first, second);
        assert_eq!(reference.uipc.to_bits(), reference2.uipc.to_bits());
        assert_eq!(reference.mlp, reference2.mlp);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Cache invalidation on config/seed/length changes is covered by the
    // integration test `engine_results_survive_restart_and_invalidate_on_
    // key_changes` in tests/engine_cache.rs, which exercises the same matrix
    // through the public crate surface.

    #[test]
    fn distinct_policies_are_distinct_cells() {
        let engine = Engine::new(quick_cfg());
        let a = engine.pair(&EqualPartition, "web-search", "zeusmp");
        let b = engine.pair(&PrivateCore::full(), "web-search", "zeusmp");
        assert_eq!(engine.stats().misses, 2, "different policies must not share a cell");
        // A fully private core cannot be slower than the contended baseline
        // for the batch thread.
        assert!(b.batch_uipc >= a.batch_uipc * 0.95);
    }

    #[test]
    fn policies_with_identical_setups_share_one_cell() {
        // PinnedStretch in Baseline mode programs the exact same CoreSetup
        // as EqualPartition, and the setup is all of a policy a run sees:
        // the cache digest covers the setup, so both requests are one cell.
        let engine = Engine::new(quick_cfg());
        let a = engine.pair(&EqualPartition, "web-search", "zeusmp");
        let b = engine.pair(
            &stretch::PinnedStretch::new(stretch::StretchMode::Baseline),
            "web-search",
            "zeusmp",
        );
        assert_eq!(engine.stats().misses, 1, "identical setups are one cell");
        assert_eq!(engine.stats().memo_hits, 1);
        assert_eq!(a.ls_uipc.to_bits(), b.ls_uipc.to_bits());
        assert_eq!(a.batch_uipc.to_bits(), b.batch_uipc.to_bits());
        // The setup handed over is the policy's own, however it is passed.
        let _ = engine.pair(&EqualPartition.setup(&engine.cfg().core), "web-search", "zeusmp");
        assert_eq!(engine.stats().misses, 1);
    }

    #[test]
    fn pair_and_smt_requests_share_one_cell() {
        // A pair is the N = 1 face of the smt/v2 cell family: asking for the
        // same grouping through either entry point must hit one cached cell.
        let engine = Engine::new(quick_cfg());
        let pair = engine.pair(&EqualPartition, "web-search", "zeusmp");
        let smt = engine.smt(&EqualPartition, "web-search", &["zeusmp".to_string()]);
        assert_eq!(engine.stats().misses, 1, "pair and smt must share the cell");
        assert_eq!(engine.stats().memo_hits, 1);
        assert_eq!(pair.ls_uipc.to_bits(), smt.uipcs[0].to_bits());
        assert_eq!(pair.batch_uipc.to_bits(), smt.uipcs[1].to_bits());
    }

    #[test]
    fn wider_smt_groupings_are_distinct_cells() {
        let engine = Engine::new(quick_cfg());
        let pair = engine.smt(&EqualPartition, "web-search", &["zeusmp".to_string()]);
        let quad = engine.smt(
            &EqualPartition,
            "web-search",
            &["zeusmp".to_string(), "gcc".to_string(), "mcf".to_string()],
        );
        assert_eq!(engine.stats().misses, 2, "the grouping width is part of the cell identity");
        assert_eq!(pair.uipcs.len(), 2);
        assert_eq!(quad.uipcs.len(), 4);
        assert!(quad.uipcs.iter().all(|&u| u > 0.0));
        assert!(pair.uipcs.iter().all(|&u| u > 0.0));
        assert_eq!(quad.batch_throughput(), quad.uipcs[1..].iter().sum::<f64>());
    }

    #[test]
    fn server_cells_survive_the_engine() {
        let dir = temp_dir("server");
        let spec = ServerSpec::new(2, 2);
        let batches = vec!["zeusmp".to_string(), "gcc".to_string()];

        let cold = Engine::new(quick_cfg()).with_store(&dir).expect("store opens");
        let first = cold.server(spec, &cpu_sim::Greedy, &EqualPartition, "web-search", &batches);
        // 3 stand-alone reference cells (the allocator's symbiosis signal)
        // plus the whole-server cell itself.
        assert_eq!(cold.stats().misses, 4);
        assert_eq!(first.uipcs.len(), 3);
        assert_eq!(first.cores, vec![vec![0], vec![1, 2]], "Greedy isolates the service");

        let warm = Engine::new(quick_cfg()).with_store(&dir).expect("store opens");
        let second = warm.server(spec, &cpu_sim::Greedy, &EqualPartition, "web-search", &batches);
        assert_eq!(warm.sim_runs(), 0, "warm server rerun must not simulate");
        assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn allocation_policies_are_distinct_server_cells() {
        let engine = Engine::new(quick_cfg());
        let spec = ServerSpec::new(2, 2);
        let batches = vec!["zeusmp".to_string(), "gcc".to_string()];
        let greedy = engine.server(spec, &cpu_sim::Greedy, &EqualPartition, "web-search", &batches);
        let rr = engine.server(spec, &cpu_sim::RoundRobin, &EqualPartition, "web-search", &batches);
        // 3 shared stand-alone cells + one server cell per allocation.
        assert_eq!(engine.stats().misses, 5, "allocation identity must split server cells");
        assert_ne!(greedy.cores, rr.cores, "the two allocators place threads differently");
        assert_eq!(rr.cores, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn server_cells_follow_the_core_setup() {
        let engine = Engine::new(quick_cfg());
        let spec = ServerSpec::new(2, 2);
        let batches = vec!["zeusmp".to_string(), "gcc".to_string()];
        let server = |colocation: &dyn ColocationPolicy| {
            engine.server(spec, &cpu_sim::Greedy, colocation, "web-search", &batches)
        };
        let equal = server(&EqualPartition);
        let pinned = server(&stretch::PinnedStretch::new(stretch::StretchMode::Baseline));
        // 3 shared stand-alone cells + one server cell both setups share.
        assert_eq!(engine.stats().misses, 4, "identical per-core setups are one server cell");
        assert_eq!(equal, pinned);
        let b_mode = stretch::StretchMode::BatchBoost(stretch::RobSkew::recommended_b_mode());
        let _ = server(&stretch::PinnedStretch::new(b_mode));
        assert_eq!(engine.stats().misses, 5, "another per-core setup is another server cell");
    }

    #[test]
    fn sub_matrix_restricts_the_study() {
        let engine = Engine::new(quick_cfg()).with_sub_matrix(1, 2);
        assert_eq!(engine.ls_names().len(), 1);
        assert_eq!(engine.batch_names().len(), 2);
        let matrix = engine.matrix(&EqualPartition);
        assert_eq!(matrix.len(), 2);
        assert_eq!(engine.stats().misses, 2);
        // The reference covers exactly the sub-matrix workloads.
        let reference = engine.standalone_reference();
        assert_eq!(reference.len(), 3);
    }

    #[test]
    fn standalone_reference_reuses_full_rob_sweep_endpoint() {
        let engine = Engine::new(quick_cfg()).with_sub_matrix(1, 1);
        let full = engine.cfg().core.rob_capacity;
        let sweep_endpoint = engine.standalone_with_rob("web-search", full);
        let reference = engine.standalone("web-search");
        assert_eq!(engine.stats().misses, 1, "endpoint and reference are the same cell");
        assert_eq!(sweep_endpoint.uipc.to_bits(), reference.uipc.to_bits());
    }

    #[test]
    fn qos_curves_are_cached_cells_too() {
        let dir = temp_dir("qos");
        let spec = ServiceSpec::web_search();
        let cold = Engine::new(quick_cfg()).with_store(&dir).expect("temp store dir is creatable");
        let curve = cold.slack_curve(&spec, 7, &[0.2, 0.5]);
        assert_eq!(curve.len(), 2);
        assert_eq!(cold.stats().misses, 1);

        let warm = Engine::new(quick_cfg()).with_store(&dir).expect("temp store dir is creatable");
        let again = warm.slack_curve(&spec, 7, &[0.2, 0.5]);
        assert_eq!(warm.sim_runs(), 0);
        assert_eq!(curve, again);
        // A different load grid is a different cell.
        let _ = warm.slack_curve(&spec, 7, &[0.2, 0.5, 0.9]);
        assert_eq!(warm.sim_runs(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_cell_releases_its_in_flight_claim() {
        let engine = Engine::new(quick_cfg());
        // An unknown workload panics inside the compute closure. The claim
        // guard must release the cell so a retry panics again (same error)
        // instead of deadlocking on a stale InFlight slot.
        for _ in 0..2 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.pair(&EqualPartition, "no-such-workload", "zeusmp")
            }));
            assert!(result.is_err(), "unknown workload must panic, not hang");
        }
        // The engine is still usable for valid cells afterwards.
        let ok = engine.pair(&EqualPartition, "web-search", "zeusmp");
        assert!(ok.ls_uipc > 0.0);
    }

    #[test]
    fn hit_rate_reports_fully_warm_runs() {
        let stats = CacheStats { memo_hits: 3, store_hits: 7, misses: 0 };
        assert_eq!(stats.hits(), 10);
        assert!((stats.hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
