//! Cross-crate integration tests: the full Stretch stack working together —
//! workloads on the SMT core through the `Scenario`/`ColocationPolicy` API,
//! mode changes on a live core, the Stretch monitor reacting to a
//! simulated fleet day, and the cluster accounting on top.

use stretch_repro::cpu::SmtCoreBuilder;
use stretch_repro::model::{BoxedTrace, CoreConfig, ThreadId, TraceSource};
use stretch_repro::prelude::*;
use stretch_repro::workloads::profile_by_name;

fn quick() -> SimLength {
    SimLength::quick()
}

/// A window long enough for steady-state window-capacity effects to show up,
/// still small enough for a debug-build test.
fn medium() -> SimLength {
    SimLength { warmup_instructions: 5_000, measured_instructions: 25_000, max_cycles: 3_000_000 }
}

fn ws_zeusmp(
    seed: u64,
    length: SimLength,
    policy: impl ColocationPolicy + 'static,
) -> ColocationResult {
    Scenario::colocate(
        profile_by_name("web-search").expect("web-search exists"),
        profile_by_name("zeusmp").expect("zeusmp exists"),
    )
    .policy(policy)
    .length(length)
    .seed(seed)
    .run()
}

#[test]
fn b_mode_boosts_a_rob_hungry_batch_corunner() {
    // The headline mechanism end to end: colocate Web Search with zeusmp,
    // switch from the baseline policy to B-mode 56-136 and observe a batch
    // speedup at a modest latency-sensitive cost. Only the policy changes
    // between the two scenarios.
    let baseline = ws_zeusmp(101, medium(), EqualPartition);
    let stretched = ws_zeusmp(
        101,
        medium(),
        PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode())),
    );
    let batch_speedup = stretched.expect_thread(ThreadId::T1).uipc
        / baseline.expect_thread(ThreadId::T1).uipc
        - 1.0;
    let ls_slowdown = 1.0
        - stretched.expect_thread(ThreadId::T0).uipc / baseline.expect_thread(ThreadId::T0).uipc;
    assert!(
        batch_speedup > 0.03,
        "B-mode should visibly speed up zeusmp (got {:.1}%)",
        batch_speedup * 100.0
    );
    assert!(
        ls_slowdown < 0.25,
        "B-mode must not devastate the latency-sensitive thread (got {:.1}%)",
        ls_slowdown * 100.0
    );
    assert!(
        batch_speedup > ls_slowdown,
        "the trade should favour the batch thread (batch {:+.1}%, LS {:+.1}%)",
        batch_speedup * 100.0,
        -ls_slowdown * 100.0
    );
}

#[test]
fn q_mode_shifts_performance_back_to_the_latency_sensitive_thread() {
    let pair = |mode| {
        Scenario::colocate(
            profile_by_name("data-serving").expect("data-serving exists"),
            profile_by_name("zeusmp").expect("zeusmp exists"),
        )
        .policy(PinnedStretch::new(mode))
        .length(quick())
        .seed(55)
        .run()
    };
    let b = pair(StretchMode::BatchBoost(RobSkew::recommended_b_mode()));
    let q = pair(StretchMode::QosBoost(RobSkew::recommended_q_mode()));
    assert!(
        q.expect_thread(ThreadId::T0).uipc >= b.expect_thread(ThreadId::T0).uipc,
        "Q-mode should not be worse than B-mode for the latency-sensitive thread"
    );
    assert!(
        q.expect_thread(ThreadId::T1).uipc < b.expect_thread(ThreadId::T1).uipc,
        "Q-mode should cost the batch thread relative to B-mode"
    );
}

#[test]
fn control_register_drives_mode_changes_on_a_live_core() {
    let cfg = CoreConfig::default();
    let stretch = StretchConfig::recommended();
    let spawn = |name: &str| profile_by_name(name).expect("built-in workload").spawn_trace(7);
    let mut core = SmtCoreBuilder::new(cfg)
        .thread(ThreadId::T0, spawn("web-search"))
        .thread(ThreadId::T1, spawn("zeusmp"))
        .build();

    // Warm up in baseline mode.
    for _ in 0..2_000 {
        core.step();
    }
    let committed_before = core.committed(ThreadId::T1);

    // Engage B-mode, run, then switch to Q-mode, run again. Each switch
    // loads the mode's limit registers and flushes the pipelines.
    let mode = stretch.low_load_mode();
    assert!(mode.is_batch_boost());
    core.set_partition(mode.partition_policy(core.config(), 2, ThreadId::T0), true);
    for _ in 0..5_000 {
        core.step();
    }
    let mode = stretch.high_load_mode();
    assert!(mode.is_qos_boost());
    core.set_partition(mode.partition_policy(core.config(), 2, ThreadId::T0), true);
    for _ in 0..5_000 {
        core.step();
    }
    assert_eq!(core.thread_stats(ThreadId::T0).mode_change_flushes, 2);
    assert!(
        core.committed(ThreadId::T1) > committed_before,
        "the batch thread keeps making progress across mode changes"
    );
    assert_eq!(core.partition().rob_limit(core.config(), ThreadId::T0), 136);
}

#[test]
fn monitor_keeps_qos_while_harvesting_throughput_over_a_day() {
    // Diurnal closed loop: every server's monitor should engage B-mode
    // during the night hours, back off during the peak, and never let the
    // fleet's tail miss QoS while the load sits below the engagement
    // threshold. The study provisions only a B-mode, so any engaged
    // interval is a pure throughput gain.
    let study = CaseStudy::web_search();
    let report = study.run_fleet(LoadBalancer::LeastLoaded, FleetScale::quick(19));
    assert_eq!(report.intervals.len(), 96);
    let engaged = report.intervals.iter().filter(|iv| iv.engaged_servers > 0).count();
    assert!(engaged >= 24, "expected B-mode at night, got {engaged} of 96 intervals");
    assert!(report.average_batch_throughput > 1.0);
    let target_ms = study.service().qos_target_ms;
    let low_load: Vec<_> =
        report.intervals.iter().filter(|iv| iv.load < study.engage_below).collect();
    assert!(!low_load.is_empty(), "the Web Search day must dip below the engagement threshold");
    for iv in low_load {
        assert!(iv.p99_ms <= target_ms, "low-load interval missed QoS: {iv:?}");
    }
}

/// A built-in workload that spawns its seed-77 stream whatever seed the
/// scenario derives.
struct Seeded(&'static str);

impl TraceSource for Seeded {
    fn source_name(&self) -> &str {
        self.0
    }

    fn spawn_trace(&self, _seed: u64) -> BoxedTrace {
        profile_by_name(self.0).expect("built-in workload").spawn_trace(77)
    }
}

#[test]
fn standalone_beats_any_colocation_for_the_same_workload() {
    // Seed-blind sources pin both runs to the *same* zeusmp instruction
    // stream, so the comparison isolates the colocation effect.
    let alone = Scenario::standalone(Seeded("zeusmp")).length(quick()).run_thread0().uipc;
    let colocated = Scenario::colocate(Seeded("data-serving"), Seeded("zeusmp"))
        .policy(EqualPartition)
        .length(quick())
        .run()
        .expect_thread(ThreadId::T1)
        .uipc;
    assert!(
        alone >= colocated,
        "a full private core must be at least as fast as a colocated half \
         (alone={alone:.3}, colocated={colocated:.3})"
    );
}

#[test]
fn every_policy_runs_through_the_same_scenario_entry_point() {
    // The tentpole guarantee: Stretch, the baselines and the hybrid
    // demonstration policy are interchangeable values behind one trait; the
    // same scenario accepts each of them, handed over as the core setup it
    // programs, and produces a two-thread result.
    let policies: Vec<Box<dyn ColocationPolicy>> = vec![
        Box::new(EqualPartition),
        Box::new(DynamicSharing),
        Box::new(FetchThrottling::new(4)),
        Box::new(IdealScheduling::new()),
        Box::new(PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode()))),
        Box::new(HybridThrottleSkew::recommended()),
    ];
    let cfg = CoreConfig::default();
    for policy in policies {
        let setup = policy.setup(&cfg);
        let label = format!("{setup:?}");
        let r = Scenario::colocate(
            profile_by_name("web-search").expect("web-search exists"),
            profile_by_name("zeusmp").expect("zeusmp exists"),
        )
        .policy(setup)
        .length(quick())
        .seed(13)
        .run();
        assert!(
            r.uipc(ThreadId::T0).expect("LS thread active") > 0.0
                && r.uipc(ThreadId::T1).expect("batch thread active") > 0.0,
            "the policy programming {label} must produce progress on both threads"
        );
    }
}

#[test]
fn cluster_case_studies_match_the_paper_band() {
    let ws = stretch_repro::cluster::CaseStudy::web_search().run();
    let yt = stretch_repro::cluster::CaseStudy::youtube().run();
    assert!(ws.gain() > 0.03 && ws.gain() < 0.08, "Web Search gain {:.3}", ws.gain());
    assert!(yt.gain() > 0.08 && yt.gain() < 0.14, "YouTube gain {:.3}", yt.gain());
    assert!(yt.hours_engaged > ws.hours_engaged);
}
