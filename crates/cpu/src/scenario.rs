//! The [`Scenario`] builder: the single entry point for running workloads on
//! the simulated SMT core under a [`ColocationPolicy`].
//!
//! A scenario names *what* runs (one workload stand-alone, or a
//! latency-sensitive / batch pair), *how* the core is shared (the policy) and
//! *how long / how seeded* the run is. It replaces the old
//! `run_setup` / `run_pair` / `run_standalone` / `run_standalone_with_rob`
//! free functions, which duplicated trace spawning and seed derivation at
//! every call site:
//!
//! ```
//! use cpu_sim::{EqualPartition, Scenario, SimLength};
//! use workloads::profile_by_name;
//!
//! let ls = profile_by_name("web-search").expect("web-search is a built-in profile");
//! let batch = profile_by_name("zeusmp").expect("zeusmp is a built-in profile");
//! let result = Scenario::colocate(ls, batch)
//!     .policy(EqualPartition)
//!     .length(SimLength::quick())
//!     .seed(42)
//!     .run();
//! assert!(result.uipc(sim_model::ThreadId::T0).expect("thread 0 ran") > 0.0);
//! ```
//!
//! Workloads are given as [`TraceSource`]s: the scenario names each thread
//! by its source and derives its seed with [`colocation_seed`], so the same
//! pairing sees the same instruction streams under every policy — the paired
//! comparisons every figure relies on. A caller that wants one fixed stream
//! passes a source that ignores the seed.

use crate::core::SmtCoreBuilder;
use crate::policy::{ColocationPolicy, ColocationTopology, EqualPartition, PrivateCore};
use crate::runner::{run_core, ColocationResult, SimLength, ThreadRunResult};
use sim_model::{CoreConfig, ThreadId, TraceSource};

/// The seed-stream label used for stand-alone runs (no co-runner name to mix
/// into [`pair_seed`]).
const STANDALONE_LABEL: &str = "standalone";

/// Derives a per-colocation seed from the full slot-ordered name list, so the
/// same workload grouping always sees the same instruction streams across
/// policies (paired comparisons).
///
/// Each name is length-prefixed before it enters the FNV loop, so distinct
/// groupings can never alias onto the same byte stream (a bare concatenation
/// would collide for e.g. `("ab", "c")` and `("a", "bc")`, silently sharing
/// instruction streams between different experiments). For exactly two names
/// this is byte-for-byte [`pair_seed`].
pub fn colocation_seed<S: AsRef<str>>(base: u64, names: &[S]) -> u64 {
    let mut h = base ^ 0x9E37_79B9_7F4A_7C15;
    let mut mix = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for name in names {
        let name = name.as_ref();
        for b in (name.len() as u64).to_le_bytes() {
            mix(b);
        }
        for b in name.bytes() {
            mix(b);
        }
    }
    h
}

/// Derives a per-pairing seed for the classic LS/batch pair — the two-name
/// case of [`colocation_seed`].
pub fn pair_seed(base: u64, ls: &str, batch_name: &str) -> u64 {
    colocation_seed(base, &[ls, batch_name])
}

/// One hardware thread's workload (`None` for an idle thread).
type Slot = Option<Box<dyn TraceSource + Send + Sync>>;

/// A declarative simulation run. See the [module docs](self).
pub struct Scenario {
    cfg: CoreConfig,
    policy: Box<dyn ColocationPolicy>,
    length: SimLength,
    seed: u64,
    threads: Vec<Slot>,
}

impl Scenario {
    fn new(threads: Vec<Slot>, policy: Box<dyn ColocationPolicy>) -> Scenario {
        Scenario {
            cfg: CoreConfig::default(),
            policy,
            length: SimLength::standard(),
            seed: 42,
            threads,
        }
    }

    /// A colocation: the latency-sensitive workload on thread 0, the batch
    /// workload on thread 1. Defaults to the [`EqualPartition`] baseline
    /// policy, the standard simulation length and base seed 42.
    ///
    /// This is the classic T = 2 case of [`Scenario::colocate_n`].
    pub fn colocate(
        ls: impl TraceSource + Send + Sync + 'static,
        batch: impl TraceSource + Send + Sync + 'static,
    ) -> Scenario {
        Scenario::colocate_n(ls, vec![Box::new(batch)])
    }

    /// A colocation on an SMT core with `1 + batches.len()` hardware threads:
    /// the latency-sensitive workload on thread 0 and the batch workloads on
    /// threads 1..T, in order. Defaults to the [`EqualPartition`] baseline
    /// policy, the standard simulation length and base seed 42.
    ///
    /// # Examples
    ///
    /// Web Search and two batch workloads on an SMT-3 core:
    ///
    /// ```
    /// use cpu_sim::{Scenario, SimLength};
    /// use sim_model::{ThreadId, TraceSource};
    /// use workloads::profile_by_name;
    ///
    /// let ls = profile_by_name("web-search").expect("built-in profile");
    /// let batches: Vec<Box<dyn TraceSource + Send + Sync>> = vec![
    ///     Box::new(profile_by_name("zeusmp").expect("built-in profile")),
    ///     Box::new(profile_by_name("gcc").expect("built-in profile")),
    /// ];
    /// let result = Scenario::colocate_n(ls, batches).length(SimLength::quick()).run();
    /// for t in ThreadId::first_n(3) {
    ///     assert!(result.uipc(t).expect("all three threads ran") > 0.0);
    /// }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `batches` is empty (use [`Scenario::standalone`] for a
    /// single workload).
    pub fn colocate_n(
        ls: impl TraceSource + Send + Sync + 'static,
        batches: Vec<Box<dyn TraceSource + Send + Sync>>,
    ) -> Scenario {
        assert!(!batches.is_empty(), "a colocation needs at least one batch workload");
        let mut threads: Vec<Slot> = Vec::with_capacity(1 + batches.len());
        threads.push(Some(Box::new(ls)));
        threads.extend(batches.into_iter().map(Some));
        Scenario::new(threads, Box::new(EqualPartition))
    }

    /// A stand-alone run on a fully private core (the paper's "stand-alone
    /// execution on a full core" reference point). The default policy is
    /// [`PrivateCore::full`]; cap the window with
    /// `.policy(PrivateCore::with_rob(n))` for the Figure 6 sweep.
    pub fn standalone(workload: impl TraceSource + Send + Sync + 'static) -> Scenario {
        Scenario::new(vec![Some(Box::new(workload)), None], Box::new(PrivateCore::full()))
    }

    /// A scenario over explicit per-slot workload sources (`None` marks an
    /// idle hardware thread). Used by the server-level allocation layer to
    /// realise one core of a [`crate::allocation::Placement`]; defaults to
    /// the [`EqualPartition`] policy.
    pub(crate) fn from_slots(slots: Vec<Slot>) -> Scenario {
        Scenario::new(slots, Box::new(EqualPartition))
    }

    /// Sets the core configuration (default: Table II).
    pub fn config(mut self, cfg: CoreConfig) -> Scenario {
        self.cfg = cfg;
        self
    }

    /// Sets the colocation policy. A caller holding a `&dyn` policy passes
    /// the [`crate::CoreSetup`] it programs, itself a policy.
    pub fn policy(mut self, policy: impl ColocationPolicy + 'static) -> Scenario {
        self.policy = Box::new(policy);
        self
    }

    /// Sets the simulation length.
    pub fn length(mut self, length: SimLength) -> Scenario {
        self.length = length;
        self
    }

    /// Sets the base seed. Each thread derives its own stream from it via
    /// [`colocation_seed`] over the workload names, so the same pairing sees
    /// identical instruction streams under every policy.
    pub fn seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Runs the scenario to completion of its measurement windows.
    ///
    /// # Panics
    ///
    /// Panics if no thread has a workload.
    pub fn run(self) -> ColocationResult {
        let Scenario { cfg, policy, length, seed, threads } = self;
        let width = threads.len();
        let names: Vec<Option<String>> =
            threads.iter().map(|w| w.as_ref().map(|s| s.source_name().to_string())).collect();
        // Seed derivation matches the historical harness exactly: colocations
        // mix all slot-ordered names (each thread's stream then gets its index
        // XORed in, so no two threads share a stream); stand-alone runs mix
        // the workload name against a fixed label.
        let active_names: Vec<&String> = names.iter().flatten().collect();
        let (base, colocated) = match active_names.as_slice() {
            [] => panic!("a scenario needs at least one workload"),
            [only] => (pair_seed(seed, only, STANDALONE_LABEL), false),
            many => (colocation_seed(seed, many), true),
        };
        let topology = ColocationTopology::new(width, ThreadId::T0);
        let setup = policy.setup_for(&cfg, &topology);
        let mut builder = setup.apply(SmtCoreBuilder::new(cfg)).smt_width(width);
        for (idx, workload) in threads.into_iter().enumerate() {
            let Some(w) = workload else { continue };
            // In a colocation each thread's stream gets its index XORed into
            // the base (on the pair: the batch stream flips the low bit) so
            // no two threads share a stream; a lone workload is a stand-alone
            // run and must see the same reference stream on every thread.
            let thread_seed = if colocated { base ^ idx as u64 } else { base };
            builder = builder.thread(ThreadId::from_index(idx), w.spawn_trace(thread_seed));
        }
        let mut core = builder.build();
        run_core(&mut core, names, length)
    }

    /// Runs a stand-alone scenario and returns thread 0's result directly.
    ///
    /// # Panics
    ///
    /// Panics if thread 0 has no workload.
    pub fn run_thread0(self) -> ThreadRunResult {
        let mut result = self.run();
        result.threads[0].take().expect("thread 0 was active")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EqualPartition, PrivateCore};
    use sim_model::uop::OpKind;
    use sim_model::{BoxedTrace, MicroOp, TraceGenerator};

    struct AluLoop {
        pc: u64,
    }

    impl TraceGenerator for AluLoop {
        fn next_op(&mut self) -> MicroOp {
            self.pc = 0x1000 + (self.pc + 4 - 0x1000) % 512;
            MicroOp::alu(self.pc, OpKind::IntAlu, [None, None], Some(1))
        }
    }

    struct AluSource;

    impl TraceSource for AluSource {
        fn source_name(&self) -> &str {
            "alu-loop"
        }
        fn spawn_trace(&self, _seed: u64) -> BoxedTrace {
            Box::new(AluLoop { pc: 0x1000 })
        }
    }

    #[test]
    fn standalone_scenario_produces_sane_uipc() {
        let cfg = CoreConfig::default();
        let r = Scenario::standalone(AluSource).length(SimLength::quick()).run_thread0();
        assert!(r.uipc > 1.0 && r.uipc <= cfg.commit_width as f64, "uipc {:.2}", r.uipc);
        assert_eq!(r.committed, SimLength::quick().measured_instructions);
        assert_eq!(r.name, "alu-loop");
    }

    #[test]
    fn colocated_scenario_reports_both_threads() {
        let r = Scenario::colocate(AluSource, AluSource)
            .policy(EqualPartition)
            .length(SimLength::quick())
            .run();
        assert!(r.thread(ThreadId::T0).is_some());
        assert!(r.thread(ThreadId::T1).is_some());
        assert!(r.uipc(ThreadId::T0).expect("thread 0 ran") > 0.5);
        assert!(r.uipc(ThreadId::T1).expect("thread 1 ran") > 0.5);
    }

    #[test]
    fn rob_capped_private_core_is_a_policy_choice() {
        let small = Scenario::standalone(AluSource)
            .policy(PrivateCore::with_rob(16))
            .length(SimLength::quick())
            .run_thread0();
        let large = Scenario::standalone(AluSource)
            .policy(PrivateCore::with_rob(192))
            .length(SimLength::quick())
            .run_thread0();
        // An ALU loop is not ROB sensitive; both should be close.
        let ratio = large.uipc / small.uipc;
        assert!(ratio < 1.5, "ALU loop should be ROB-insensitive (ratio {ratio:.2})");
    }

    #[test]
    #[should_panic(expected = "gives thread T0 no ROB entries")]
    fn a_zero_rob_window_is_rejected_rather_than_measured_as_zero() {
        let _ = Scenario::standalone(AluSource)
            .policy(PrivateCore::with_rob(0))
            .length(SimLength::quick())
            .run_thread0();
    }

    #[test]
    fn colocation_seed_on_two_names_is_pair_seed() {
        assert_eq!(
            colocation_seed(42, &["web-search", "zeusmp"]),
            pair_seed(42, "web-search", "zeusmp")
        );
        // A longer name list derives a distinct stream family.
        assert_ne!(
            colocation_seed(42, &["web-search", "zeusmp", "milc"]),
            pair_seed(42, "web-search", "zeusmp")
        );
    }

    #[test]
    fn colocate_n_with_one_batch_equals_the_pair_api() {
        let bits = |r: &ColocationResult, t| r.uipc(t).expect("thread ran").to_bits();
        let pair = Scenario::colocate(AluSource, AluSource).length(SimLength::quick()).run();
        let n = Scenario::colocate_n(AluSource, vec![Box::new(AluSource)])
            .length(SimLength::quick())
            .run();
        assert_eq!(bits(&pair, ThreadId::T0), bits(&n, ThreadId::T0));
        assert_eq!(bits(&pair, ThreadId::T1), bits(&n, ThreadId::T1));
    }

    #[test]
    fn smt4_colocation_reports_all_four_threads() {
        let batches: Vec<Box<dyn TraceSource + Send + Sync>> =
            vec![Box::new(AluSource), Box::new(AluSource), Box::new(AluSource)];
        let r = Scenario::colocate_n(AluSource, batches).length(SimLength::quick()).run();
        assert_eq!(r.threads.len(), 4);
        for t in sim_model::ThreadId::first_n(4) {
            assert!(r.uipc(t).expect("thread ran") > 0.1, "thread {t} made no progress");
        }
        // Deterministic across identical invocations.
        let batches: Vec<Box<dyn TraceSource + Send + Sync>> =
            vec![Box::new(AluSource), Box::new(AluSource), Box::new(AluSource)];
        let again = Scenario::colocate_n(AluSource, batches).length(SimLength::quick()).run();
        for t in sim_model::ThreadId::first_n(4) {
            let bits = |r: &ColocationResult| r.uipc(t).expect("thread ran").to_bits();
            assert_eq!(bits(&r), bits(&again));
        }
    }

    #[test]
    fn pair_seed_is_stable_and_distinct() {
        assert_eq!(pair_seed(1, "a", "b"), pair_seed(1, "a", "b"));
        assert_ne!(pair_seed(1, "a", "b"), pair_seed(1, "a", "c"));
        assert_ne!(pair_seed(1, "a", "b"), pair_seed(2, "a", "b"));
    }

    #[test]
    fn pair_seed_does_not_collide_on_name_boundaries() {
        // Regression: bare byte concatenation made these four pairings hash
        // identically, silently sharing instruction streams across distinct
        // experiments. Length prefixes keep every split of the same byte
        // soup distinct.
        let adversarial = [("ab", "c"), ("a", "bc"), ("abc", ""), ("", "abc")];
        for (i, a) in adversarial.iter().enumerate() {
            for b in &adversarial[i + 1..] {
                assert_ne!(
                    pair_seed(42, a.0, a.1),
                    pair_seed(42, b.0, b.1),
                    "({:?}, {:?}) must not collide with ({:?}, {:?})",
                    a.0,
                    a.1,
                    b.0,
                    b.1
                );
            }
        }
        // Swapping roles must also produce a different stream.
        assert_ne!(pair_seed(42, "web-search", "zeusmp"), pair_seed(42, "zeusmp", "web-search"));
    }

    #[test]
    fn standalone_on_thread1_sees_the_thread0_reference_stream() {
        // A lone workload must get the same derived seed whichever hardware
        // thread it occupies — stand-alone references are thread-agnostic.
        use std::sync::{Arc, Mutex};

        struct SeedProbe(Arc<Mutex<Vec<u64>>>);
        impl TraceSource for SeedProbe {
            fn source_name(&self) -> &str {
                "seed-probe"
            }
            fn spawn_trace(&self, seed: u64) -> BoxedTrace {
                self.0.lock().expect("probe lock").push(seed);
                Box::new(AluLoop { pc: 0x1000 })
            }
        }

        let seen = Arc::new(Mutex::new(Vec::new()));
        let _ = Scenario::standalone(SeedProbe(seen.clone())).length(SimLength::quick()).run();
        let mut on_t1 = Scenario::standalone(SeedProbe(seen.clone())).length(SimLength::quick());
        let probe = on_t1.threads[0].take();
        on_t1.threads = vec![None, probe];
        let _ = on_t1.run();
        let seen = seen.lock().expect("probe lock");
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], seen[1], "thread placement must not change the reference seed");
        assert_eq!(seen[0], pair_seed(42, "seed-probe", STANDALONE_LABEL));
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_scenario_rejected() {
        let _ = Scenario { threads: vec![None, None], ..Scenario::standalone(AluSource) }.run();
    }
}
