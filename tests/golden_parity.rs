//! Golden-parity tests: every baseline and Stretch mode run through the new
//! `Scenario` / `ColocationPolicy` API reproduces the exact numbers the old
//! `run_pair` / `run_standalone` / `run_standalone_with_rob` free functions
//! produced at `SimLength::quick()`.
//!
//! The fixtures below were pinned by running the pre-refactor API (seed 42,
//! web-search × zeusmp, quick length) immediately before it was deleted; the
//! simulator is deterministic and uses no platform-dependent arithmetic, so
//! the comparison is bit-exact. If a simulator change legitimately moves
//! these numbers, re-pin the fixtures in the same commit and say so — a
//! silent update would defeat the test.

use stretch_repro::prelude::*;
use stretch_repro::workloads::profile_by_name;

const LS: &str = "web-search";
const BATCH: &str = "zeusmp";
const SEED: u64 = 42;

/// `(ls_uipc, batch_uipc)` produced by the old `run_pair` for each policy.
const BASELINE: (f64, f64) = (0.025265571120009093, 0.11707888189667788);
const DYNAMIC: (f64, f64) = (0.024612781665769436, 0.121300339640951);
const FETCH_THROTTLING_1_4: (f64, f64) = (0.024482489557993297, 0.12130769697337296);
const IDEAL_SCHEDULING: (f64, f64) = (0.025433103404431164, 0.11835194910866188);
const IDEAL_PLUS_STRETCH: (f64, f64) = (0.025417050618029298, 0.12150668286755771);
const B_MODE_56_136: (f64, f64) = (0.025254246917788763, 0.12092081198325247);
const Q_MODE_136_56: (f64, f64) = (0.02527906175850771, 0.10905422721448241);

/// UIPC produced by the old `run_standalone` / `run_standalone_with_rob`.
const STANDALONE_WS: f64 = 0.026711006938184054;
const STANDALONE_WS_ROB64: f64 = 0.026558925957034296;
const STANDALONE_ZEUSMP: f64 = 0.10917203362078376;

fn pair(policy: impl ColocationPolicy + 'static) -> (f64, f64) {
    let r = Scenario::colocate(
        profile_by_name(LS).expect("known ls"),
        profile_by_name(BATCH).expect("known batch"),
    )
    .policy(policy)
    .length(SimLength::quick())
    .seed(SEED)
    .run();
    (r.expect_thread(ThreadId::T0).uipc, r.expect_thread(ThreadId::T1).uipc)
}

fn assert_pair(label: &str, got: (f64, f64), want: (f64, f64)) {
    assert_eq!(
        got.0.to_bits(),
        want.0.to_bits(),
        "{label}: LS uipc drifted from the pinned fixture (got {}, want {})",
        got.0,
        want.0
    );
    assert_eq!(
        got.1.to_bits(),
        want.1.to_bits(),
        "{label}: batch uipc drifted from the pinned fixture (got {}, want {})",
        got.1,
        want.1
    );
}

#[test]
fn baseline_policy_matches_the_old_run_pair() {
    assert_pair("equal partitioning", pair(EqualPartition), BASELINE);
}

#[test]
fn dynamic_sharing_matches_the_old_run_pair() {
    assert_pair("dynamic sharing", pair(DynamicSharing), DYNAMIC);
}

#[test]
fn fetch_throttling_matches_the_old_run_pair() {
    assert_pair("fetch throttling 1:4", pair(FetchThrottling::new(4)), FETCH_THROTTLING_1_4);
}

#[test]
fn ideal_scheduling_matches_the_old_run_pair() {
    assert_pair("ideal scheduling", pair(IdealScheduling::new()), IDEAL_SCHEDULING);
    assert_pair(
        "ideal scheduling + Stretch 56-136",
        pair(IdealScheduling::with_stretch(56, 136)),
        IDEAL_PLUS_STRETCH,
    );
}

#[test]
fn stretch_modes_match_the_old_run_pair() {
    assert_pair(
        "B-mode 56-136",
        pair(PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode()))),
        B_MODE_56_136,
    );
    assert_pair(
        "Q-mode 136-56",
        pair(PinnedStretch::new(StretchMode::QosBoost(RobSkew::recommended_q_mode()))),
        Q_MODE_136_56,
    );
}

/// The seven pinned pairs again, as cached `Engine::pair` cells. The engine
/// keys a cell by the core setup its policy programs, and `StudiedResource::Rob`
/// programs the same core as `IdealScheduling::new()` (equal shares, ICOUNT,
/// private L1s and predictor): it is served from that cell, with its bits.
#[test]
fn engine_pairs_match_the_pinned_fixtures() {
    use stretch_bench::{CacheStats, Engine, ExperimentConfig};
    use stretch_repro::cpu::StudiedResource;

    let engine = Engine::new(ExperimentConfig::quick());
    let b_mode = PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode()));
    let q_mode = PinnedStretch::new(StretchMode::QosBoost(RobSkew::recommended_q_mode()));
    let throttled = FetchThrottling::new(4);
    let combined = IdealScheduling::with_stretch(56, 136);
    let cells: [(&str, &dyn ColocationPolicy, (f64, f64)); 7] = [
        ("equal partitioning", &EqualPartition, BASELINE),
        ("dynamic sharing", &DynamicSharing, DYNAMIC),
        ("fetch throttling 1:4", &throttled, FETCH_THROTTLING_1_4),
        ("ideal scheduling", &IdealScheduling::new(), IDEAL_SCHEDULING),
        ("ideal scheduling + Stretch 56-136", &combined, IDEAL_PLUS_STRETCH),
        ("B-mode 56-136", &b_mode, B_MODE_56_136),
        ("Q-mode 136-56", &q_mode, Q_MODE_136_56),
    ];
    for (label, policy, want) in cells {
        let got = engine.pair(policy, LS, BATCH);
        assert_pair(label, (got.ls_uipc, got.batch_uipc), want);
    }
    let rob_only = engine.pair(&StudiedResource::Rob, LS, BATCH);
    assert_pair("ROB-only sharing", (rob_only.ls_uipc, rob_only.batch_uipc), IDEAL_SCHEDULING);
    assert_eq!(engine.stats(), CacheStats { memo_hits: 1, store_hits: 0, misses: 7 });
}

#[test]
fn standalone_scenarios_match_the_old_run_standalone() {
    let standalone = |name: &str| {
        Scenario::standalone(profile_by_name(name).expect("known workload"))
            .length(SimLength::quick())
            .seed(SEED)
            .run_thread0()
            .uipc
    };
    assert_eq!(standalone(LS).to_bits(), STANDALONE_WS.to_bits());
    assert_eq!(standalone(BATCH).to_bits(), STANDALONE_ZEUSMP.to_bits());

    let capped = Scenario::standalone(profile_by_name(LS).expect("known workload"))
        .policy(PrivateCore::with_rob(64))
        .length(SimLength::quick())
        .seed(SEED)
        .run_thread0();
    assert_eq!(capped.uipc.to_bits(), STANDALONE_WS_ROB64.to_bits());
}

/// Pinned quick-length fleet fixtures: the measured §VI-D case studies
/// (`CaseStudy::run_fleet`, least-loaded dispatch, `FleetScale::quick(42)`)
/// as first produced by the fleet simulator. The fleet uses the same
/// platform-independent arithmetic as the core model, so the comparison is
/// bit-exact; re-pin consciously (and say so in the commit) if the fleet
/// simulation legitimately changes.
// Re-pinned (consciously) when the fleet gained sharding: the bursty
// arrival-rate correction now uses the truncated-geometric burst mean
// (every bursty gap moves a fraction of a percent), zero-request
// server-intervals no longer report a 0.0 ms tail, and per-interval batch
// throughput accumulates through `det_sum`'s balanced tree instead of a
// left fold. The CPU-layer fixtures above are arrival-independent and did
// not move.
const FLEET_WS_GAIN: f64 = 0.044973958333333286;
const FLEET_WS_P99_MS: f64 = 87.38405916230323;
const FLEET_WS_HOURS: f64 = 9.8125;
const FLEET_YT_GAIN: f64 = 0.09404947916666706;
const FLEET_YT_P99_MS: f64 = 1402.2615420181398;
const FLEET_YT_HOURS: f64 = 14.5625;

#[test]
fn fleet_case_studies_match_the_pinned_quick_fixtures() {
    use stretch_repro::cluster::{CaseStudy, FleetScale, LoadBalancer};
    let fixture = |study: CaseStudy, gain: f64, p99: f64, hours: f64| {
        let report = study.run_fleet(LoadBalancer::LeastLoaded, FleetScale::quick(42));
        assert_eq!(
            report.gain().to_bits(),
            gain.to_bits(),
            "fleet gain drifted from the pinned fixture (got {}, want {gain})",
            report.gain()
        );
        assert_eq!(
            report.p99_ms.to_bits(),
            p99.to_bits(),
            "fleet p99 drifted from the pinned fixture (got {}, want {p99})",
            report.p99_ms
        );
        assert_eq!(report.hours_engaged.to_bits(), hours.to_bits());
    };
    fixture(CaseStudy::web_search(), FLEET_WS_GAIN, FLEET_WS_P99_MS, FLEET_WS_HOURS);
    fixture(CaseStudy::youtube(), FLEET_YT_GAIN, FLEET_YT_P99_MS, FLEET_YT_HOURS);
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    words.iter().flat_map(|w| w.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every field of Figure 1's and Figure 2's request-level curves for each
/// Table I service at `SimParams::quick(42)`, floats by their bits: the
/// load sweep `latency_vs_load(spec, params, 0.1, 10)` and the slack curve
/// at loads 0.1, 0.2, …, 1.0. Pinned from the live-stream simulator, before
/// the peak searches and curves replayed one drawn tape per run; a change
/// to arrivals, service draws, the queue, the peak bisection or the curve
/// loops that moves any value fails here.
#[test]
fn request_level_curves_match_the_pinned_quick_fixture() {
    use stretch_repro::qos::{latency_vs_load, slack_curve, ServiceSpec, SimParams};
    const PINNED: [(&str, u64, u64); 4] = [
        ("data-serving", 0x2170_2f4a_b7c7_1255, 0x8473_f4bc_5409_f36a),
        ("web-serving", 0xed32_2ef9_6495_8be7, 0x9a47_1f08_2f2a_e7a2),
        ("web-search", 0xde90_6321_27e2_7bd6, 0x609a_9c4f_4875_8d9a),
        ("media-streaming", 0x1f4e_b212_f65e_3852, 0x2b2b_b97b_8884_54a3),
    ];
    let loads: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
    let digests: Vec<(String, u64, u64)> = ServiceSpec::all()
        .iter()
        .map(|spec| {
            let mut sweep = Vec::new();
            for point in latency_vs_load(spec, SimParams::quick(42), 0.1, 10) {
                let l = point.latency;
                sweep.extend(
                    [point.load, l.mean_ms, l.p95_ms, l.p99_ms, l.p995_ms, l.max_ms]
                        .map(f64::to_bits),
                );
                sweep.push(l.requests as u64);
            }
            let mut slack = Vec::new();
            for point in slack_curve(spec, SimParams::quick(42), &loads) {
                slack.extend([
                    point.load.to_bits(),
                    point.required_performance.to_bits(),
                    u64::from(point.feasible),
                ]);
            }
            (spec.name.to_string(), fnv1a(&sweep), fnv1a(&slack))
        })
        .collect();
    let shown: Vec<String> = digests
        .iter()
        .map(|(name, sweep, slack)| format!("(\"{name}\", {sweep:#018x}, {slack:#018x}),"))
        .collect();
    let pinned: Vec<(String, u64, u64)> =
        PINNED.iter().map(|&(name, sweep, slack)| (name.to_string(), sweep, slack)).collect();
    assert_eq!(digests, pinned, "(load sweep, slack curve) digests drifted: {shown:#?}");
}
