//! Shared experiment machinery: the experiment configuration, the worker
//! pool, and the per-cell [`Scenario`] runners the engine memoises.
//!
//! The old free-standing matrix runners (`run_matrix`, `run_matrix_on`, …)
//! are gone: all matrix-shaped work goes through [`crate::Engine`], which
//! funnels every colocation cell into [`run_smt_colocation`] — one
//! [`cpu_sim::Scenario`] over `1 + N` hardware threads under one
//! [`ColocationPolicy`] ([`run_single_pair`] is its classic `N = 1` face) —
//! and every whole-server cell into [`run_server`], a
//! [`cpu_sim::ServerScenario`] under an [`AllocationPolicy`] on top.

use cpu_sim::{
    AllocationPolicy, ColocationPolicy, Scenario, ServerSpec, ServerThread, SimLength, ThreadSpec,
};
use sim_model::{CoreConfig, ThreadId, TraceSource};
use workloads::{batch, latency_sensitive};

pub use cpu_sim::pair_seed;

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
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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
/// service, the batch jobs follow in offer order (the [`crate::Engine`]
/// server-cell convention).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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

/// The four latency-sensitive workload names.
pub fn ls_names() -> Vec<String> {
    latency_sensitive::NAMES.iter().map(|s| s.to_string()).collect()
}

/// The 29 batch workload names.
pub fn batch_names() -> Vec<String> {
    batch::NAMES.iter().map(|s| s.to_string()).collect()
}

// The order-preserving worker pool now lives in `sim_model` (the cluster
// simulator shards racks through it, and `cluster_sim` cannot depend on this
// crate); re-exported here so existing `stretch_bench::harness::parallel_map`
// callers keep working.
pub use sim_model::parallel_map;

/// Runs one latency-sensitive workload against `batches` batch co-runners on
/// an SMT core of `1 + batches.len()` hardware threads, as a [`Scenario`].
/// The scenario derives the grouping's seed with
/// [`cpu_sim::colocation_seed`] over the slot-ordered names, so the same
/// grouping sees identical instruction streams under every policy — and the
/// one-batch case is byte-for-byte the historical [`pair_seed`] pair run.
///
/// # Panics
///
/// Panics if any workload name is unknown or `batches` is empty.
pub fn run_smt_colocation(
    cfg: &ExperimentConfig,
    policy: &dyn ColocationPolicy,
    ls: &str,
    batches: &[String],
) -> SmtOutcome {
    let ls_profile = latency_sensitive::profile_by_name(ls).expect("known latency-sensitive name");
    let batch_profiles: Vec<Box<dyn TraceSource + Send + Sync>> = batches
        .iter()
        .map(|name| {
            Box::new(batch::profile_by_name(name).expect("known batch name"))
                as Box<dyn TraceSource + Send + Sync>
        })
        .collect();
    let result = Scenario::colocate_n(ls_profile, batch_profiles)
        .config(cfg.core)
        .boxed_policy(policy.clone_policy())
        .length(cfg.length)
        .seed(cfg.seed)
        .run();
    let mut names = Vec::with_capacity(1 + batches.len());
    names.push(ls.to_string());
    names.extend(batches.iter().cloned());
    let uipcs = (0..names.len())
        .map(|slot| result.expect_thread(ThreadId::from_index(slot)).uipc)
        .collect();
    SmtOutcome { names, uipcs }
}

/// Runs one latency-sensitive × batch pairing under a policy: the classic
/// two-thread case of [`run_smt_colocation`], repackaged as a
/// [`PairOutcome`].
///
/// # Panics
///
/// Panics if either workload name is unknown.
pub fn run_single_pair(
    cfg: &ExperimentConfig,
    policy: &dyn ColocationPolicy,
    ls: &str,
    batch_name: &str,
) -> PairOutcome {
    let smt = run_smt_colocation(cfg, policy, ls, std::slice::from_ref(&batch_name.to_string()));
    PairOutcome {
        ls: ls.to_string(),
        batch: batch_name.to_string(),
        ls_uipc: smt.uipcs[0],
        batch_uipc: smt.uipcs[1],
    }
}

/// Runs a whole server — `spec.cores` cores × `spec.threads_per_core` SMT
/// threads — under one [`AllocationPolicy`] (which thread lands on which
/// core) and one [`ColocationPolicy`] (how every occupied core shares its
/// structures), as a [`cpu_sim::ServerScenario`]. Thread specs arrive in
/// offer order; their workload names resolve against the full registry.
///
/// # Panics
///
/// Panics if a workload name is unknown or the threads do not fit the
/// server.
pub fn run_server(
    cfg: &ExperimentConfig,
    spec: ServerSpec,
    allocation: &dyn AllocationPolicy,
    colocation: &dyn ColocationPolicy,
    threads: &[ThreadSpec],
) -> ServerOutcome {
    let mut scenario = Scenario::server(spec)
        .config(cfg.core)
        .boxed_allocation(allocation.clone_policy())
        .boxed_colocation(colocation.clone_policy())
        .length(cfg.length)
        .seed(cfg.seed);
    for thread in threads {
        let profile = workloads::profile_by_name(&thread.name)
            .unwrap_or_else(|| panic!("unknown workload {}", thread.name));
        scenario = scenario.thread(ServerThread::new(thread.clone(), Box::new(profile)));
    }
    let result = scenario.run();
    let uipcs = (0..threads.len())
        .map(|t| result.thread_uipc(t).expect("every offered thread was placed and ran"))
        .collect();
    ServerOutcome {
        names: threads.iter().map(|t| t.name.clone()).collect(),
        cores: result.placement.cores().to_vec(),
        uipcs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_sim::EqualPartition;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items.clone(), 8, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn name_lists_have_paper_cardinality() {
        assert_eq!(ls_names().len(), 4);
        assert_eq!(batch_names().len(), 29);
    }

    #[test]
    fn single_pair_runs_and_reports_both_threads() {
        let cfg = ExperimentConfig::quick();
        let out = run_single_pair(&cfg, &EqualPartition, "web-search", "zeusmp");
        assert_eq!(out.ls, "web-search");
        assert_eq!(out.batch, "zeusmp");
        assert!(out.ls_uipc > 0.0);
        assert!(out.batch_uipc > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = parallel_map(vec![1, 2, 3], 0, |x| *x);
    }
}
