//! Run-length policy, core setups, the measurement loop and the per-thread
//! UIPC figure of merit (§V-C).
//!
//! End-to-end runs are expressed through [`crate::Scenario`]; this module
//! holds the pieces it is built from: [`SimLength`], [`CoreSetup`],
//! [`run_core`] and the [`ColocationResult`] / [`ThreadRunResult`] outputs.

use crate::core::{SmtCore, SmtCoreBuilder};
use crate::fetch::FetchPolicy;
use crate::partition::PartitionPolicy;
use mem_sim::Sharing;
use serde::{Deserialize, Serialize};
use sim_model::{CanonicalKey, CoreConfig, KeyEncoder, ThreadId};
use sim_stats::{Histogram, SamplingPlan};

/// How long to simulate: per-thread warm-up and measurement instruction
/// counts plus a cycle safety cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimLength {
    /// Instructions committed per thread before measurement starts.
    pub warmup_instructions: u64,
    /// Instructions measured per thread.
    pub measured_instructions: u64,
    /// Hard cap on simulated cycles (protects against pathological stalls).
    pub max_cycles: u64,
}

impl SimLength {
    /// Derives a run length from a [`SamplingPlan`], folding all samples into
    /// one contiguous window (the generators are ergodic, so contiguous
    /// measurement is equivalent in expectation to scattered samples).
    pub fn from_plan(plan: &SamplingPlan) -> SimLength {
        let warmup = plan.warmup_instructions;
        let measured = plan.measured_instructions * plan.samples as u64;
        SimLength {
            warmup_instructions: warmup,
            measured_instructions: measured,
            // Generous cap: even at 0.02 IPC the measurement fits.
            max_cycles: (warmup + measured).saturating_mul(60).max(1_000_000),
        }
    }

    /// A small length for tests.
    pub fn quick() -> SimLength {
        SimLength::from_plan(&SamplingPlan::quick())
    }

    /// The standard length used by the figure-generation binaries.
    pub fn standard() -> SimLength {
        SimLength::from_plan(&SamplingPlan::standard())
    }
}

impl Default for SimLength {
    fn default() -> SimLength {
        SimLength::standard()
    }
}

impl CanonicalKey for SimLength {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.u64(self.warmup_instructions).u64(self.measured_instructions).u64(self.max_cycles);
    }
}

/// Result for one hardware thread of a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreadRunResult {
    /// Workload name.
    pub name: String,
    /// User instructions per cycle over the measurement window.
    pub uipc: f64,
    /// Instructions committed in the measurement window.
    pub committed: u64,
    /// Cycles spanned by the measurement window.
    pub cycles: u64,
    /// MLP census over the measurement window (outstanding demand misses per
    /// cycle).
    pub mlp: Histogram,
}

/// Result of a (possibly colocated) run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColocationResult {
    /// Per-thread results, one slot per hardware thread; `None` for an
    /// inactive thread.
    pub threads: Vec<Option<ThreadRunResult>>,
}

impl ColocationResult {
    /// UIPC of a thread, if it was active. Consistent with
    /// [`ColocationResult::thread`]: an inactive thread yields `None` rather
    /// than panicking (the accessors used to disagree on this).
    pub fn uipc(&self, thread: ThreadId) -> Option<f64> {
        self.thread(thread).map(|t| t.uipc)
    }

    /// Result of a thread, if it was active.
    pub fn thread(&self, thread: ThreadId) -> Option<&ThreadRunResult> {
        self.threads.get(thread.index()).and_then(Option::as_ref)
    }

    /// Iterator over the active threads' results, in thread-index order.
    pub fn active_threads(&self) -> impl Iterator<Item = (ThreadId, &ThreadRunResult)> {
        self.threads
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (ThreadId::from_index(i), r)))
    }

    /// Result of a thread that is known to be active.
    ///
    /// # Panics
    ///
    /// Panics if the thread was inactive.
    pub fn expect_thread(&self, thread: ThreadId) -> &ThreadRunResult {
        self.thread(thread).unwrap_or_else(|| panic!("thread {thread} was not active in this run"))
    }
}

/// Describes one complete core setup for a run: sharing modes, partitioning
/// and fetch policy. Used by the experiment harnesses to express the paper's
/// configurations declaratively.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreSetup {
    /// ROB/LSQ partitioning.
    pub partition: PartitionPolicy,
    /// Fetch (thread selection) policy.
    pub fetch_policy: FetchPolicy,
    /// L1-I sharing between threads.
    pub l1i_sharing: Sharing,
    /// L1-D sharing between threads.
    pub l1d_sharing: Sharing,
    /// Branch predictor table sharing between threads.
    pub bp_sharing: Sharing,
}

impl CoreSetup {
    /// The §V-A baseline: everything shared, equal ROB partitioning, ICOUNT.
    pub fn baseline(cfg: &CoreConfig) -> CoreSetup {
        CoreSetup::baseline_n(cfg, 2)
    }

    /// The baseline setup for a `threads`-wide core: everything shared,
    /// equal T-way ROB partitioning, ICOUNT.
    pub fn baseline_n(cfg: &CoreConfig, threads: usize) -> CoreSetup {
        CoreSetup {
            partition: PartitionPolicy::equal_n(cfg, threads),
            fetch_policy: FetchPolicy::ICount,
            l1i_sharing: Sharing::Shared,
            l1d_sharing: Sharing::Shared,
            bp_sharing: Sharing::Shared,
        }
    }

    /// A fully private core (used for stand-alone "full core" reference runs):
    /// each thread sees private caches, predictor and a full-size window.
    pub fn private_full(cfg: &CoreConfig) -> CoreSetup {
        CoreSetup::private_full_n(cfg, 2)
    }

    /// A fully private `threads`-wide core.
    pub fn private_full_n(cfg: &CoreConfig, threads: usize) -> CoreSetup {
        CoreSetup {
            partition: PartitionPolicy::private_full_n(cfg, threads),
            fetch_policy: FetchPolicy::ICount,
            l1i_sharing: Sharing::PrivatePerThread,
            l1d_sharing: Sharing::PrivatePerThread,
            bp_sharing: Sharing::PrivatePerThread,
        }
    }

    /// Applies the setup to a builder.
    pub fn apply(&self, builder: SmtCoreBuilder) -> SmtCoreBuilder {
        builder
            .partition(self.partition.clone())
            .fetch_policy(self.fetch_policy)
            .l1i_sharing(self.l1i_sharing)
            .l1d_sharing(self.l1d_sharing)
            .bp_sharing(self.bp_sharing)
    }
}

impl CanonicalKey for CoreSetup {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.field(&self.partition)
            .field(&self.fetch_policy)
            .field(&self.l1i_sharing)
            .field(&self.l1d_sharing)
            .field(&self.bp_sharing);
    }
}

/// Runs an already-built core to completion of the measurement windows.
///
/// Measurement is per thread: a thread's window starts once it has committed
/// its warm-up instructions and ends once it has committed the measured
/// amount; its UIPC is measured instructions divided by the window's cycles.
///
/// After every [`SmtCore::step`] the loop lets the core skip the quiescent
/// cycles that follow ([`SmtCore::skip_quiescent`], capped at the remaining
/// `max_cycles`). A skipped cycle commits nothing, so no window opens or
/// closes inside a skip, and the result is the one a plain cycle-by-cycle
/// loop produces, bit for bit.
///
/// This is the low-level loop behind [`crate::Scenario::run`]; it stays
/// public for callers that build an [`SmtCore`] themselves. The repository
/// benchmark's per-layer replay (`repobench/`) is one: it builds each cell
/// with [`SmtCoreBuilder`] and times this loop alone.
pub fn run_core(
    core: &mut SmtCore,
    mut names: Vec<Option<String>>,
    length: SimLength,
) -> ColocationResult {
    let width = core.smt_width();
    names.resize_with(width, || None);
    let active: Vec<ThreadId> =
        ThreadId::first_n(width).filter(|t| core.thread_active(*t)).collect();
    assert!(!active.is_empty(), "at least one thread must have a workload");

    let warm_target = length.warmup_instructions;
    let meas_target = length.warmup_instructions + length.measured_instructions;

    let mut start_cycle: Vec<Option<u64>> = vec![None; width];
    let mut start_committed: Vec<u64> = vec![0; width];
    let mut start_mlp_total: Vec<u64> = vec![0; width];
    let mut end_cycle: Vec<Option<u64>> = vec![None; width];
    let mut end_committed: Vec<u64> = vec![0; width];
    let mut end_mlp: Vec<Option<Histogram>> = vec![None; width];

    let mut cycles = 0u64;
    loop {
        core.step();
        cycles += 1;
        let mut all_done = true;
        for &t in &active {
            let idx = t.index();
            let committed = core.committed(t);
            if start_cycle[idx].is_none() && committed >= warm_target {
                start_cycle[idx] = Some(cycles);
                start_committed[idx] = committed;
                start_mlp_total[idx] = core.mlp_census(t).total();
            }
            if end_cycle[idx].is_none() && committed >= meas_target {
                end_cycle[idx] = Some(cycles);
                end_committed[idx] = committed;
                end_mlp[idx] = Some(core.mlp_census(t).clone());
            }
            if end_cycle[idx].is_none() {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        cycles += core.skip_quiescent(length.max_cycles.saturating_sub(cycles));
        if cycles >= length.max_cycles {
            break;
        }
    }

    let mut out: Vec<Option<ThreadRunResult>> = vec![None; width];
    for &t in &active {
        let idx = t.index();
        let start = start_cycle[idx].unwrap_or(cycles);
        let end = end_cycle[idx].unwrap_or(cycles);
        let committed_in_window = if end_cycle[idx].is_some() {
            end_committed[idx] - start_committed[idx]
        } else {
            core.committed(t).saturating_sub(start_committed[idx])
        };
        let window_cycles = end.saturating_sub(start).max(1);
        // `take` both per-thread values: the census snapshot was already
        // cloned once when the window closed, and the names array is owned —
        // neither needs a second copy here.
        let mlp = end_mlp[idx].take().unwrap_or_else(|| core.mlp_census(t).clone());
        out[idx] = Some(ThreadRunResult {
            name: names[idx].take().unwrap_or_else(|| format!("thread-{idx}")),
            uipc: committed_in_window as f64 / window_cycles as f64,
            committed: committed_in_window,
            cycles: window_cycles,
            mlp,
        });
    }
    ColocationResult { threads: out }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread_result(name: &str) -> ThreadRunResult {
        ThreadRunResult {
            name: name.to_string(),
            uipc: 1.5,
            committed: 300,
            cycles: 200,
            mlp: Histogram::new(4),
        }
    }

    #[test]
    fn sim_length_from_plan() {
        let plan = SamplingPlan { samples: 2, warmup_instructions: 100, measured_instructions: 50 };
        let l = SimLength::from_plan(&plan);
        assert_eq!(l.warmup_instructions, 100);
        assert_eq!(l.measured_instructions, 100);
        assert!(l.max_cycles >= 1_000_000);
    }

    #[test]
    fn identical_workloads_get_similar_throughput() {
        use crate::{EqualPartition, Scenario};
        use sim_model::uop::OpKind;
        use sim_model::{MicroOp, TraceGenerator, WorkloadClass};

        struct AluLoop(u64);
        impl TraceGenerator for AluLoop {
            fn next_op(&mut self) -> MicroOp {
                self.0 = 0x1000 + (self.0 + 4 - 0x1000) % 512;
                MicroOp::alu(self.0, OpKind::IntAlu, [None, None], Some(1))
            }
            fn name(&self) -> &str {
                "alu-loop"
            }
            fn class(&self) -> WorkloadClass {
                WorkloadClass::Batch
            }
            fn reset(&mut self) {
                self.0 = 0x1000;
            }
        }

        let r = Scenario::colocate_traces(Box::new(AluLoop(0x1000)), Box::new(AluLoop(0x1000)))
            .policy(EqualPartition)
            .length(SimLength::quick())
            .run();
        let a = r.uipc(ThreadId::T0).expect("thread 0 active");
        let b = r.uipc(ThreadId::T1).expect("thread 1 active");
        let ratio = a.max(b) / a.min(b);
        assert!(ratio < 1.3, "symmetric colocation should be roughly fair (ratio {ratio:.2})");
    }

    #[test]
    fn a_quick_data_serving_run_warps_most_of_its_cycles() {
        use crate::{ColocationPolicy, ColocationTopology, PrivateCore};
        use sim_model::TraceSource;
        let cfg = CoreConfig::default();
        let setup = PrivateCore::full().setup_for(&cfg, &ColocationTopology::pair());
        let profile = workloads::profile_by_name("data-serving").expect("built-in profile");
        let mut core = setup
            .apply(SmtCoreBuilder::new(cfg))
            .thread(ThreadId::T0, profile.spawn_trace(42))
            .build();
        let result = run_core(&mut core, vec![Some("data-serving".into())], SimLength::quick());
        assert!(result.expect_thread(ThreadId::T0).committed > 0);
        let (warped, cycles) = (core.warped_cycles(), core.cycles());
        assert!(warped <= cycles);
        assert!(
            2 * warped > cycles,
            "the quiescence skip covered only {warped} of {cycles} cycles"
        );
    }

    #[test]
    fn uipc_and_thread_accessors_agree_on_activity() {
        // Regression for the old asymmetry: `uipc` panicked on an inactive
        // thread while `thread` returned `None`. Both now answer `None`.
        let r = ColocationResult { threads: vec![Some(thread_result("only")), None] };
        assert!(r.thread(ThreadId::T0).is_some());
        assert_eq!(r.uipc(ThreadId::T0), Some(1.5));
        assert!(r.thread(ThreadId::T1).is_none());
        assert_eq!(r.uipc(ThreadId::T1), None);
        assert_eq!(r.expect_thread(ThreadId::T0).name, "only");
        assert_eq!(r.active_threads().count(), 1);
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn expect_thread_panics_on_an_inactive_thread() {
        let r = ColocationResult { threads: vec![Some(thread_result("only")), None] };
        let _ = r.expect_thread(ThreadId::T1);
    }
}
