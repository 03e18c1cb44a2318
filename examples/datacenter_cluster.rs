//! Datacenter view: how much QoS slack does a latency-sensitive service have
//! across its diurnal load cycle, and what does Stretch's B-mode buy at the
//! cluster level? (Figures 1, 2 and 14.)
//!
//! The cluster accounting is shown twice: with the paper's headline B-mode
//! speedup, and with a speedup *measured* by running the Stretch policy
//! through the cycle-level `Scenario` API.
//!
//! Run with: `cargo run --release --example datacenter_cluster`

use stretch_repro::cluster::{CaseStudy, DiurnalPattern};
use stretch_repro::cpu::{EqualPartition, Scenario, SimLength};
use stretch_repro::model::{CoreConfig, ThreadId};
use stretch_repro::qos::{latency_vs_load, slack_curve, ServiceSpec, SimParams};
use stretch_repro::stretch::{PinnedStretch, RobSkew, StretchMode};
use stretch_repro::workloads::profile_by_name;

fn main() {
    let spec = ServiceSpec::web_search();
    let params = SimParams::standard(21);

    println!("Web Search latency vs load (QoS target: {} ms p99)", spec.qos_target_ms);
    println!("  load    mean      p95       p99");
    for point in latency_vs_load(&spec, params, 0.1, 10) {
        println!(
            "  {:>4.0}%  {:>6.1} ms {:>6.1} ms {:>6.1} ms{}",
            point.load * 100.0,
            point.latency.mean_ms,
            point.latency.p95_ms,
            point.latency.p99_ms,
            if point.latency.p99_ms > spec.qos_target_ms { "  <-- violates QoS" } else { "" }
        );
    }

    println!();
    println!("Minimum single-thread performance required to keep meeting QoS,");
    println!("and whether a 60% duty cycle (§II) would meet it:");
    println!("  load    required perf   slack   60% duty");
    let duty_cycle = 0.6;
    let loads: Vec<f64> = (1..=10).map(|i| i as f64 * 0.1).collect();
    for point in slack_curve(&spec, params, &loads) {
        let met = if point.met_by(duty_cycle) { "ok" } else { "-" };
        match point.required() {
            Some(required) => println!(
                "  {:>4.0}%        {:>5.0}%        {:>5.0}%   {met}",
                point.load * 100.0,
                required * 100.0,
                point.slack() * 100.0
            ),
            // Even full performance misses the target at this load.
            None => println!("  {:>4.0}%        unmet            -   {met}", point.load * 100.0),
        }
    }

    // Measure the B-mode batch speedup with the cycle model, through the
    // same policy interface the figures use (quick length keeps the example
    // snappy).
    let cfg = CoreConfig::default();
    let batch_uipc = |policy: &dyn stretch_repro::cpu::ColocationPolicy| {
        Scenario::colocate(
            profile_by_name("web-search").expect("web-search exists"),
            profile_by_name("zeusmp").expect("zeusmp exists"),
        )
        .config(cfg)
        .policy(policy.setup(&cfg))
        .length(SimLength::quick())
        .seed(21)
        .run()
        .expect_thread(ThreadId::T1)
        .uipc
    };
    let b_mode = PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode()));
    let measured_speedup = batch_uipc(&b_mode) / batch_uipc(&EqualPartition);

    println!();
    println!("Cluster-level impact of engaging B-mode below 85% of peak load:");
    for (name, study) in [
        ("Web Search cluster (paper)", CaseStudy::web_search()),
        ("YouTube cluster (paper)", CaseStudy::youtube()),
        (
            "Web Search cluster (measured)",
            CaseStudy::with_measured_speedup(DiurnalPattern::WebSearch, measured_speedup),
        ),
    ] {
        let report = study.run();
        println!(
            "  {name:<30} B-mode engaged {:>4.1} h/day -> +{:.1}% 24-hour batch throughput",
            report.hours_engaged,
            report.gain() * 100.0
        );
    }

    println!();
    println!("Diurnal load shapes used (fraction of peak):");
    println!("  hour   web-search   youtube");
    for hour in (0..24).step_by(3) {
        println!(
            "  {hour:>4}      {:>6.2}      {:>6.2}",
            DiurnalPattern::WebSearch.load_at(hour as f64),
            DiurnalPattern::YouTube.load_at(hour as f64)
        );
    }
}
