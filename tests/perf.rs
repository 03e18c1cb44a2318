//! Determinism of the simulations the speed benchmark (`BENCHMARK.json`,
//! `repobench/`) times. Each workload below runs through the plain public
//! APIs at a fixed seed and reports every result field as raw bits, so two
//! runs must agree bit for bit, and the figure engine's cached route to the
//! queueing model must replay the public-API curve exactly.

use stretch_bench::{Engine, ExperimentConfig};
use stretch_repro::model::TraceSource;
use stretch_repro::prelude::*;
use stretch_repro::qos::{latency_vs_load, slack_curve, LoadPoint, ServiceSpec, SimParams};
use stretch_repro::workloads::profile_by_name;

fn threads_bits(r: &ColocationResult, threads: usize) -> Vec<u64> {
    (0..threads)
        .map(|i| r.expect_thread(ThreadId::from_index(i)))
        .flat_map(|t| [t.uipc.to_bits(), t.cycles])
        .collect()
}

fn colocate(policy: impl ColocationPolicy + 'static) -> Vec<u64> {
    let ls = profile_by_name("web-search").expect("known ls workload");
    let batch = profile_by_name("zeusmp").expect("known batch workload");
    let r = Scenario::colocate(ls, batch).policy(policy).length(SimLength::quick()).seed(42).run();
    threads_bits(&r, 2)
}

fn colocate_baseline() -> Vec<u64> {
    colocate(EqualPartition)
}

fn colocate_bmode() -> Vec<u64> {
    colocate(PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode())))
}

fn smt4() -> Vec<u64> {
    let ls = profile_by_name("web-search").expect("known ls workload");
    let batches: Vec<Box<dyn TraceSource + Send + Sync>> = ["zeusmp", "gcc", "mcf"]
        .iter()
        .map(|name| {
            Box::new(profile_by_name(name).expect("known batch workload"))
                as Box<dyn TraceSource + Send + Sync>
        })
        .collect();
    let r = Scenario::colocate_n(ls, batches)
        .policy(PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode())))
        .length(SimLength::quick())
        .seed(42)
        .run();
    threads_bits(&r, 4)
}

fn standalone() -> Vec<u64> {
    let r = Scenario::standalone(profile_by_name("web-search").expect("known workload"))
        .length(SimLength::quick())
        .seed(42)
        .run_thread0();
    vec![r.uipc.to_bits(), r.cycles]
}

fn curve_bits(curve: &[LoadPoint]) -> Vec<u64> {
    curve
        .iter()
        .flat_map(|p| {
            let l = &p.latency;
            let ms = [l.mean_ms, l.p95_ms, l.p99_ms, l.p995_ms, l.max_ms].map(f64::to_bits);
            [p.load.to_bits()].into_iter().chain(ms).chain([l.requests as u64])
        })
        .collect()
}

fn qos_latency_curve() -> Vec<u64> {
    curve_bits(&latency_vs_load(&ServiceSpec::web_search(), SimParams::quick(11), 0.2, 6))
}

fn qos_slack_curve() -> Vec<u64> {
    slack_curve(&ServiceSpec::web_search(), SimParams::quick(12), &[0.3, 0.6, 0.9])
        .iter()
        .flat_map(|p| [p.load.to_bits(), p.required_performance.to_bits(), u64::from(p.feasible)])
        .collect()
}

fn fleet_day() -> Vec<u64> {
    // Peak bisection, threshold calibration on the fleet, then the day.
    let report =
        CaseStudy::web_search().run_fleet(LoadBalancer::LeastLoaded, FleetScale::quick(42));
    let fields = [report.gain(), report.p99_ms, report.hours_engaged, report.violation_fraction];
    fields.iter().map(|v| v.to_bits()).chain([report.requests as u64]).collect()
}

/// Runs one workload at its fixed seed and returns every result bit.
type Workload = fn() -> Vec<u64>;

/// Every registered workload, named by simulator layer.
const REGISTRY: [(&str, Workload); 7] = [
    ("cpu/colocate-baseline", colocate_baseline),
    ("cpu/colocate-bmode", colocate_bmode),
    ("cpu/smt4-pair", smt4),
    ("cpu/standalone-websearch", standalone),
    ("qos/latency-curve", qos_latency_curve),
    ("qos/slack-curve", qos_slack_curve),
    ("cluster/fleet-day", fleet_day),
];

#[test]
fn every_registry_benchmark_is_deterministic() {
    // The 10k-server day and the rendered figure matrix are pinned by
    // tests/fleet.rs and tests/figures_parallel.rs instead.
    for (name, run) in REGISTRY {
        assert_eq!(run(), run(), "{name} must be run-to-run deterministic");
    }
}

#[test]
fn qos_benchmark_matches_the_plain_queueing_api() {
    // Figure 1 as the benchmark's quick figure matrix renders it.
    let spec = ServiceSpec::web_search();
    let engine = Engine::new(ExperimentConfig::quick());
    let via_engine = engine.latency_curve(&spec, 42, 0.05, 20);
    let direct = latency_vs_load(&spec, SimParams::quick(42), 0.05, 20);
    assert_eq!(
        curve_bits(&via_engine),
        curve_bits(&direct),
        "the engine must replay the exact public-API curve"
    );
}
