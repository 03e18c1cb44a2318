//! Lowering the fleet's per-server performance numbers onto a *measured*
//! M-core × T-thread server.
//!
//! [`crate::Fleet`] consumes a [`PerformanceTable`] — per Stretch mode, the
//! latency-sensitive service's delivered performance and the batch speedup.
//! Historically that table came from the paper's headline numbers or from a
//! single SMT *pair* ([`PerformanceTable::measured`]). This module lowers the
//! generalised server model into the cluster layer instead: a
//! [`MeasuredServer`] is `M` cores × `T` hardware threads under one
//! [`AllocationPolicy`] (which thread lands on which core) with every
//! occupied core running [`stretch::PinnedStretch`] as its per-core
//! colocation policy. Each mode of the table is then a cycle-level
//! [`cpu_sim::ServerScenario`] run over the whole machine, so the fleet's
//! per-server numbers reflect the chosen allocation — isolating, packing or
//! symbiosis-pairing the very threads the paper colocates.
//!
//! [`Fleet::run`] itself is untouched: the lowering only changes where its
//! performance table may come from.
//!
//! [`Fleet::run`]: crate::Fleet::run

use cpu_sim::{
    AllocationPolicy, Placement, Scenario, ServerScenario, ServerSpec, ServerThread, SimLength,
    ThreadSpec,
};
use sim_model::{CanonicalKey, CoreConfig, KeyEncoder};
use stretch::orchestrator::{ModePerformance, PerformanceTable};
use stretch::{PinnedStretch, StretchConfig, StretchMode};
use workloads::WorkloadProfile;

/// The workload population of one server: one latency-sensitive service plus
/// the batch jobs packed alongside it, all named from the `workloads`
/// registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerWorkloads {
    /// The latency-sensitive service (e.g. `"web-search"`).
    pub ls: String,
    /// The batch co-runners (e.g. three copies of `"zeusmp"`).
    pub batches: Vec<String>,
}

impl ServerWorkloads {
    /// One LS service plus `batches` batch jobs.
    ///
    /// # Panics
    ///
    /// Panics if no batch workload is named.
    pub fn new(ls: impl Into<String>, batches: Vec<String>) -> ServerWorkloads {
        let batches_vec = batches;
        assert!(!batches_vec.is_empty(), "a server population needs at least one batch workload");
        ServerWorkloads { ls: ls.into(), batches: batches_vec }
    }

    /// The paper's SMT4 family: one LS service and three copies of one batch
    /// workload — the "3 batch + 1 LS" population the allocation figures
    /// compare policies on.
    pub fn smt4_family(ls: impl Into<String>, batch: impl Into<String>) -> ServerWorkloads {
        let batch = batch.into();
        ServerWorkloads::new(ls, vec![batch.clone(), batch.clone(), batch])
    }
}

impl CanonicalKey for ServerWorkloads {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.str(&self.ls).list(&self.batches);
    }
}

/// One Stretch mode measured on the whole server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerModeMeasurement {
    /// Where the allocation policy placed each thread (thread 0 is the LS
    /// service, the batch jobs follow in population order).
    pub placement: Placement,
    /// LS delivered performance: colocated UIPC over stand-alone full-core
    /// UIPC.
    pub ls_performance: f64,
    /// Sum of the batch threads' UIPC across all cores.
    pub batch_throughput: f64,
}

/// A server of `M` cores × `T` threads whose per-mode performance is
/// *measured* with the cycle-level model under one allocation policy.
pub struct MeasuredServer {
    cfg: CoreConfig,
    spec: ServerSpec,
    allocation: Box<dyn AllocationPolicy>,
    workloads: ServerWorkloads,
    length: SimLength,
    seed: u64,
}

impl MeasuredServer {
    /// Describes the server to measure.
    pub fn new(
        cfg: CoreConfig,
        spec: ServerSpec,
        allocation: Box<dyn AllocationPolicy>,
        workloads: ServerWorkloads,
        length: SimLength,
        seed: u64,
    ) -> MeasuredServer {
        MeasuredServer { cfg, spec, allocation, workloads, length, seed }
    }

    fn profile(name: &str) -> WorkloadProfile {
        workloads::profile_by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"))
    }

    /// Stand-alone full-core UIPC of a workload (the LS reference).
    fn standalone_uipc(&self, name: &str) -> f64 {
        Scenario::standalone(Self::profile(name))
            .config(self.cfg)
            .length(self.length)
            .seed(self.seed)
            .run_thread0()
            .uipc
    }

    /// Runs the whole server under one pinned Stretch mode.
    ///
    /// # Panics
    ///
    /// Panics if a workload name is unknown or the population does not fit
    /// the server.
    pub fn measure_mode(&self, mode: StretchMode) -> ServerModeMeasurement {
        let ls_standalone = self.standalone_uipc(&self.workloads.ls);
        let mut scenario = ServerScenario::new(self.spec)
            .config(self.cfg)
            .boxed_allocation(self.allocation.clone())
            .colocation(PinnedStretch::new(mode))
            .length(self.length)
            .seed(self.seed);
        let ls_profile = Self::profile(&self.workloads.ls);
        let ls_spec = ThreadSpec {
            name: ls_profile.name.clone(),
            class: ls_profile.class,
            standalone_uipc: Some(ls_standalone),
        };
        scenario = scenario.thread(ServerThread::new(ls_spec, Box::new(ls_profile)));
        for name in &self.workloads.batches {
            let profile = Self::profile(name);
            let spec = ThreadSpec {
                name: profile.name.clone(),
                class: profile.class,
                standalone_uipc: Some(self.standalone_uipc(name)),
            };
            scenario = scenario.thread(ServerThread::new(spec, Box::new(profile)));
        }
        let result = scenario.run();
        let ls_uipc = result.thread_uipc(0).expect("the LS thread ran");
        ServerModeMeasurement {
            batch_throughput: result.batch_throughput(),
            ls_performance: ls_uipc / ls_standalone,
            placement: result.placement,
        }
    }

    /// Measures the fleet's [`PerformanceTable`] on this server: one run per
    /// mode (baseline, B-mode, Q-mode), with batch speedups normalised to
    /// the baseline run — exactly the two axes [`crate::Fleet`] consumes,
    /// now reflecting the server's allocation policy.
    pub fn performance_table(&self, stretch: StretchConfig) -> PerformanceTable {
        let baseline = self.measure_mode(StretchMode::Baseline);
        let mode_perf = |m: &ServerModeMeasurement| ModePerformance {
            ls_performance: m.ls_performance,
            batch_speedup: m.batch_throughput / baseline.batch_throughput,
        };
        let b = self.measure_mode(stretch.low_load_mode());
        let q = self.measure_mode(stretch.high_load_mode());
        PerformanceTable {
            b_mode: mode_perf(&b),
            q_mode: mode_perf(&q),
            baseline: mode_perf(&baseline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_sim::Greedy;

    fn quick_server() -> MeasuredServer {
        MeasuredServer::new(
            CoreConfig::default(),
            ServerSpec::new(2, 2),
            Box::new(Greedy),
            ServerWorkloads::new("web-search", vec!["zeusmp".into(), "gcc".into()]),
            SimLength::quick(),
            11,
        )
    }

    #[test]
    fn measured_table_is_sane_and_baseline_normalised() {
        let table = quick_server().performance_table(StretchConfig::recommended());
        assert!((table.baseline.batch_speedup - 1.0).abs() < 1e-12);
        for perf in [table.baseline, table.b_mode, table.q_mode] {
            assert!(perf.ls_performance > 0.0 && perf.ls_performance <= 1.5);
            assert!(perf.batch_speedup > 0.0);
        }
    }

    #[test]
    fn greedy_isolation_protects_the_ls_service() {
        // With 2 cores × 2 threads and a 1 LS + 2 batch population, Greedy
        // leaves the service alone on its core, so its delivered performance
        // under the baseline mode must be essentially stand-alone.
        let m = quick_server().measure_mode(StretchMode::Baseline);
        assert_eq!(m.placement.cores()[0], vec![0]);
        assert!(
            m.ls_performance > 0.95,
            "an isolated LS service should retain stand-alone performance, got {:.3}",
            m.ls_performance
        );
    }

    #[test]
    fn measurement_is_deterministic() {
        let a = quick_server().measure_mode(StretchMode::Baseline);
        let b = quick_server().measure_mode(StretchMode::Baseline);
        assert_eq!(a.ls_performance.to_bits(), b.ls_performance.to_bits());
        assert_eq!(a.batch_throughput.to_bits(), b.batch_throughput.to_bits());
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn population_keys_are_order_sensitive() {
        let digest = |w: &ServerWorkloads| {
            let mut enc = KeyEncoder::new();
            w.encode_key(&mut enc);
            enc.digest()
        };
        let a = ServerWorkloads::new("web-search", vec!["zeusmp".into(), "gcc".into()]);
        let b = ServerWorkloads::new("web-search", vec!["gcc".into(), "zeusmp".into()]);
        assert_ne!(digest(&a), digest(&b));
        let family = ServerWorkloads::smt4_family("web-search", "zeusmp");
        assert_eq!(family.batches.len(), 3);
    }
}
