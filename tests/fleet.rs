//! Integration tests for the measured fleet simulation: determinism,
//! per-server stream independence, warm-cache fleet cells through the
//! engine, and agreement between the measured and analytical §VI-D cluster
//! case studies.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use stretch_bench::{Engine, ExperimentConfig};
use stretch_repro::cluster::{
    rack_seed, server_seed, CaseStudy, Fleet, FleetIntervalReport, FleetReport, FleetScale,
    FleetTopology, LoadBalancer, ServerSummary, TailAccumulation,
};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("stretch-fleet-{tag}-{}-{unique}", std::process::id()))
}

#[test]
fn same_seed_fleet_runs_are_bit_identical() {
    let cfg = CaseStudy::web_search().fleet_config(LoadBalancer::LeastLoaded, FleetScale::quick(3));
    let a = Fleet::new(cfg.clone()).run();
    let b = Fleet::new(cfg).run();
    assert_eq!(a, b, "identical config and seed must reproduce the identical report");
    // Bit-exact on the floats, not just approximately equal: the simulator
    // uses no platform-dependent arithmetic, so cross-process runs pin too
    // (tests/golden_parity.rs holds the cross-process fixture).
    assert_eq!(a.p99_ms.to_bits(), b.p99_ms.to_bits());
    assert_eq!(a.average_batch_throughput.to_bits(), b.average_batch_throughput.to_bits());
    for (x, y) in a.servers.iter().zip(&b.servers) {
        assert_eq!(x.p99_ms.to_bits(), y.p99_ms.to_bits());
    }
}

/// A 64-bit FNV-1a digest of every field of a report, floats by their bits.
/// The destructuring is exhaustive, so a new report field fails to compile
/// here until the digest covers it.
fn report_digest(report: &FleetReport) -> u64 {
    let FleetReport {
        intervals,
        servers,
        average_batch_throughput,
        fraction_engaged,
        hours_engaged,
        violation_fraction,
        p50_ms,
        p95_ms,
        p99_ms,
        requests,
    } = report;
    let mut words = Vec::new();
    for interval in intervals {
        let FleetIntervalReport {
            hour,
            load,
            engaged_servers,
            measured_servers,
            p99_ms,
            batch_throughput,
        } = *interval;
        words.extend([
            hour.to_bits(),
            load.to_bits(),
            engaged_servers as u64,
            measured_servers as u64,
            p99_ms.to_bits(),
            batch_throughput.to_bits(),
        ]);
    }
    for server in servers {
        let ServerSummary {
            engaged_intervals,
            starved_intervals,
            p99_ms,
            requests,
            mode_changes,
            throttle_events,
        } = *server;
        words.extend([
            engaged_intervals as u64,
            starved_intervals as u64,
            p99_ms.to_bits(),
            requests as u64,
            mode_changes,
            throttle_events,
        ]);
    }
    words.extend([intervals.len() as u64, servers.len() as u64]);
    words.extend(
        [
            *average_batch_throughput,
            *fraction_engaged,
            *hours_engaged,
            *violation_fraction,
            *p50_ms,
            *p95_ms,
            *p99_ms,
        ]
        .map(f64::to_bits),
    );
    words.push(*requests as u64);
    words.iter().flat_map(|w| w.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_report_field_is_pinned_for_each_balancer_and_shape() {
    // Pinned from a simulator that stable-sorted for every percentile and
    // scanned each server's backlog per comparison. A change to dispatch,
    // tail bookkeeping or the merge that moves any field of any report —
    // interval rows, per-server summaries, fleet percentiles — fails here,
    // in the default `cargo test` run.
    const PINNED: [(LoadBalancer, u64, u64); 3] = [
        (LoadBalancer::RoundRobin, 0xe7fe_b1ee_0ae1_00c5, 0x0eef_ee1c_1629_c795),
        (LoadBalancer::LeastLoaded, 0xfee9_9191_0ad1_9a80, 0xe78f_17f4_baf5_0e75),
        (LoadBalancer::PowerOfTwoChoices, 0xf8a5_65a9_7dde_68fb, 0x09c1_3de9_eb20_b2fa),
    ];
    let study = CaseStudy::web_search();
    let scale = FleetScale::quick(42);
    let digests: Vec<(LoadBalancer, u64, u64)> = LoadBalancer::ALL
        .into_iter()
        .map(|balancer| {
            let flat = study
                .fleet_with(balancer, scale, FleetTopology::Flat, TailAccumulation::Exact, 1)
                .run();
            let racked = study
                .fleet_with(
                    balancer,
                    scale,
                    FleetTopology::racked(2, balancer),
                    TailAccumulation::binned_default(),
                    1,
                )
                .run();
            (balancer, report_digest(&flat), report_digest(&racked))
        })
        .collect();
    let shown: Vec<String> = digests
        .iter()
        .map(|(b, flat, racked)| format!("{b:?}: {flat:#018x}, {racked:#018x}"))
        .collect();
    assert_eq!(digests, PINNED, "(flat exact, racked binned) report digests drifted: {shown:#?}");
}

#[test]
fn multi_shard_exact_reports_are_pinned_for_each_balancer() {
    // Two racks with exact tails: every percentile of the report, the
    // per-interval fleet p99 included, reads sojourns from both shards, so a
    // merge that loses, repeats or misplaces one shard's sojourns moves a
    // digest here even when it does so identically at every worker count.
    const PINNED: [(LoadBalancer, u64); 3] = [
        (LoadBalancer::RoundRobin, 0x0b11_2f60_a1d5_7571),
        (LoadBalancer::LeastLoaded, 0xc7d6_aba1_a4cf_87aa),
        (LoadBalancer::PowerOfTwoChoices, 0x335c_1179_1ddb_6ac4),
    ];
    let study = CaseStudy::web_search();
    let digests: Vec<(LoadBalancer, u64)> = LoadBalancer::ALL
        .into_iter()
        .map(|balancer| {
            let report = study
                .fleet_with(
                    balancer,
                    FleetScale::quick(42),
                    FleetTopology::racked(2, balancer),
                    TailAccumulation::Exact,
                    1,
                )
                .run();
            (balancer, report_digest(&report))
        })
        .collect();
    let shown: Vec<String> = digests.iter().map(|(b, d)| format!("{b:?}: {d:#018x}")).collect();
    assert_eq!(digests, PINNED, "racked exact report digests drifted: {shown:#?}");
}

#[test]
fn per_server_streams_are_independent() {
    // Seed derivation: pairwise distinct, stable, and a function of (fleet
    // seed, server index) only — growing the fleet never re-seeds the
    // existing servers, which is what "no shared-RNG coupling" means here.
    let mut seen = std::collections::HashSet::new();
    for s in 0..256 {
        assert!(seen.insert(server_seed(99, s)), "server {s} shares another server's stream");
    }
    for s in 0..8 {
        assert_eq!(server_seed(99, s), server_seed(99, s));
    }

    // Behavioural check: under round-robin every server sees statistically
    // identical traffic, so only the private service-time streams separate
    // them — their measured tails must not collapse onto one value.
    let cfg = CaseStudy::web_search().fleet_config(LoadBalancer::RoundRobin, FleetScale::quick(5));
    let report = Fleet::new(cfg).run();
    let p99s: Vec<u64> = report.servers.iter().map(|s| s.p99_ms.to_bits()).collect();
    let distinct: std::collections::HashSet<&u64> = p99s.iter().collect();
    assert!(
        distinct.len() == p99s.len(),
        "every server must draw its own service times (p99s: {:?})",
        report.servers.iter().map(|s| s.p99_ms).collect::<Vec<_>>()
    );
}

#[test]
fn warm_engine_rerun_of_a_fleet_study_is_pure_cache_hits() {
    let dir = temp_dir("warm");
    let study = CaseStudy::web_search();
    let scale = FleetScale::quick(11);

    let cold = Engine::new(ExperimentConfig::quick()).with_store(&dir).expect("store opens");
    let first = cold.fleet_study(&study, LoadBalancer::PowerOfTwoChoices, scale);
    assert_eq!(cold.sim_runs(), 1, "cold fleet study must simulate exactly once");

    let warm = Engine::new(ExperimentConfig::quick()).with_store(&dir).expect("store opens");
    let second = warm.fleet_study(&study, LoadBalancer::PowerOfTwoChoices, scale);
    assert_eq!(warm.sim_runs(), 0, "warm rerun must perform zero simulations");
    assert!((warm.stats().hit_rate() - 1.0).abs() < 1e-12, "warm rerun must be 100% cache hits");
    assert_eq!(first, second, "cached fleet reports must decode to the identical value");
    assert_eq!(first.p99_ms.to_bits(), second.p99_ms.to_bits());

    // A different balancer or scale is a different cell.
    let _ = warm.fleet_study(&study, LoadBalancer::RoundRobin, scale);
    assert_eq!(warm.sim_runs(), 1);
    let _ = warm.fleet_study(&study, LoadBalancer::PowerOfTwoChoices, FleetScale::quick(12));
    assert_eq!(warm.sim_runs(), 2);

    // The calibrated-fleet cell (`Engine::fleet`) is keyed by the full
    // `FleetConfig` identity plus the measured peak and memoises like any
    // other cell.
    let fleet = study.fleet(LoadBalancer::PowerOfTwoChoices, scale);
    let direct = warm.fleet(&fleet);
    assert_eq!(warm.sim_runs(), 3);
    let again = warm.fleet(&fleet);
    assert_eq!(warm.sim_runs(), 3, "repeated raw-config cell must be a memo hit");
    assert_eq!(direct, again);
    assert_eq!(
        direct, first,
        "a study cell and the equivalent raw-config cell must measure the same day"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_runs_are_bit_identical_across_worker_counts() {
    // The tentpole contract: the report is a pure function of the config —
    // the worker count only picks how many OS threads chew through the
    // shards, never what they compute or how the results merge.
    // Power-of-two with binned tails, and least-loaded with exact tails: the
    // latter covers the worker-major least-loaded sweep and the concatenating
    // exact-tail merge. Two days, so every shard folds in 192 intervals, and
    // 3 workers, which do not divide the 8 racks, so shards can finish out
    // of index order and wait for the fold.
    // Each shape's 1-worker report is also pinned by digest, so a merge that
    // is wrong the same way at every worker count fails too.
    let scale = FleetScale { servers: 64, requests_per_server: 50, seed: 7 };
    for (balancer, tails, pinned) in [
        (
            LoadBalancer::PowerOfTwoChoices,
            TailAccumulation::binned_default(),
            0xa79c_0c2a_65b2_cd8a,
        ),
        (LoadBalancer::LeastLoaded, TailAccumulation::Exact, 0xf6e1_0624_eab0_6373),
    ] {
        let fleet = CaseStudy::web_search().fleet_with(
            balancer,
            scale,
            FleetTopology::racked(8, balancer),
            tails,
            2,
        );
        let one = fleet.run_with_workers(1);
        assert_eq!(one.intervals.len(), 192);
        let digest = report_digest(&one);
        assert_eq!(digest, pinned, "{balancer} {tails:?}: digest {digest:#018x} drifted");
        for workers in [2, 3, 8] {
            let other = fleet.run_with_workers(workers);
            assert_eq!(one, other, "1 and {workers} workers must produce the identical report");
            assert_eq!(one.p99_ms.to_bits(), other.p99_ms.to_bits());
            assert_eq!(
                one.average_batch_throughput.to_bits(),
                other.average_batch_throughput.to_bits()
            );
            for (a, b) in one.servers.iter().zip(&other.servers) {
                assert_eq!(a.p99_ms.to_bits(), b.p99_ms.to_bits());
            }
        }
    }
}

#[test]
fn a_single_rack_fleet_is_bit_identical_to_the_flat_fleet() {
    // Rack 0 reuses the fleet seed (`rack_seed(seed, 0) == seed`), so a
    // one-rack topology is the flat fleet by construction — dispatch unit,
    // RNG streams and merge all coincide.
    assert_eq!(rack_seed(123, 0), 123);
    assert_ne!(rack_seed(123, 1), 123);
    let study = CaseStudy::web_search();
    let scale = FleetScale::quick(42);
    let flat = study
        .fleet_with(
            LoadBalancer::LeastLoaded,
            scale,
            FleetTopology::Flat,
            TailAccumulation::Exact,
            1,
        )
        .run();
    let racked = study
        .fleet_with(
            LoadBalancer::LeastLoaded,
            scale,
            FleetTopology::racked(1, LoadBalancer::LeastLoaded),
            TailAccumulation::Exact,
            1,
        )
        .run();
    assert_eq!(flat, racked, "one rack must degenerate to the flat fleet bit-for-bit");
    // And the flat path itself matches the historical single-shard entry
    // point (`fleet_config` + `run`), so pre-topology behaviour is intact.
    let historical = study.run_fleet(LoadBalancer::LeastLoaded, scale);
    assert_eq!(flat, historical);
}

#[test]
fn multi_day_runs_extend_the_day_loop() {
    let study = CaseStudy::web_search();
    let scale = FleetScale { servers: 8, requests_per_server: 40, seed: 9 };
    let one_day = study
        .fleet_with(
            LoadBalancer::PowerOfTwoChoices,
            scale,
            FleetTopology::Flat,
            TailAccumulation::Exact,
            1,
        )
        .run();
    let two_days = study
        .fleet_with(
            LoadBalancer::PowerOfTwoChoices,
            scale,
            FleetTopology::Flat,
            TailAccumulation::Exact,
            2,
        )
        .run();
    assert_eq!(two_days.intervals.len(), 2 * one_day.intervals.len());
    // Days share controller state (no midnight reset), and the engaged-hours
    // figure stays normalised per 24 hours.
    assert!(two_days.hours_engaged <= 24.0);
    assert!(two_days.hours_engaged > 0.0);
    // Day one of the two-day run is the one-day run: same seed, same
    // streams, the second day merely continues.
    for (a, b) in one_day.intervals.iter().zip(&two_days.intervals) {
        assert_eq!(a, b, "the first day must be unchanged by appending a second");
    }
}

#[test]
fn starved_server_intervals_are_skipped_not_counted_as_perfect_tails() {
    // Regression for the idle-server tail bug: least-loaded dispatch over a
    // large, nearly idle fleet breaks all-idle ties towards the lowest
    // server index, so high-index servers receive zero requests interval
    // after interval. Those server-intervals used to report a 0.0 ms tail —
    // a "perfect latency" phantom that fed the mode controllers and diluted
    // the violation fraction. They are now skipped and surfaced as starved.
    let study = CaseStudy {
        pattern: stretch_repro::cluster::DiurnalPattern::Custom {
            base: 0.02,
            amplitude: 0.0,
            peak_hour: 12.0,
            width: 6.0,
        },
        engage_below: 0.85,
        b_mode_batch_speedup: 1.11,
    };
    let report = study
        .fleet_with(
            LoadBalancer::LeastLoaded,
            FleetScale { servers: 128, requests_per_server: 20, seed: 21 },
            FleetTopology::Flat,
            TailAccumulation::Exact,
            1,
        )
        .run();
    let n = report.servers.len();
    let starved_total: usize = report.servers.iter().map(|s| s.starved_intervals).sum();
    assert!(starved_total > 0, "a near-idle least-loaded fleet must starve some server-intervals");
    // Conservation: every server-interval is either measured or starved.
    let measured_total: usize = report.intervals.iter().map(|i| i.measured_servers).sum();
    assert_eq!(measured_total + starved_total, n * report.intervals.len());
    assert!(
        report.intervals.iter().any(|i| i.measured_servers < n),
        "some interval must show fewer measured servers than the fleet size"
    );
    // No phantom zero tails anywhere: every reported percentile is a real
    // sojourn (a request takes strictly positive time).
    assert!(report.p50_ms > 0.0, "fleet p50 {} must not be dragged to zero", report.p50_ms);
    for i in &report.intervals {
        assert!(i.p99_ms > 0.0, "interval p99 must come from real samples");
    }
    // A server that was starved all day never got an observation, so its
    // controller can never have acted, and its day tail reads 0.0.
    let idle = report.servers.iter().filter(|s| s.requests == 0).count();
    assert!(idle > 0, "some server must be starved all day");
    for s in &report.servers {
        if s.requests == 0 {
            assert_eq!(s.mode_changes, 0, "an unobserved controller must hold its mode");
            assert_eq!(s.engaged_intervals, 0);
            assert_eq!(s.p99_ms.to_bits(), 0.0f64.to_bits());
        }
    }
    let digest = report_digest(&report);
    assert_eq!(digest, 0x75e0_167b_4652_1266, "digest {digest:#018x} drifted");
}

/// The full acceptance-scale run: a 10 000-server day (19.2M requests),
/// sharded as 125 racks, bit-identical at 1 and 8 workers. Ignored by
/// default because it costs several release-mode seconds (minutes in
/// debug); run it with `cargo test --release --test fleet -- --ignored`, as
/// CI does. The repository benchmark's `fleet-datacenter` workload runs the
/// same configuration and pins its report digest.
#[test]
#[ignore = "datacenter scale: run explicitly in release mode"]
fn datacenter_day_is_bit_identical_across_worker_counts() {
    let fleet = CaseStudy::web_search().fleet_with(
        LoadBalancer::PowerOfTwoChoices,
        FleetScale::datacenter(42),
        FleetTopology::racked(125, LoadBalancer::PowerOfTwoChoices),
        TailAccumulation::binned_default(),
        1,
    );
    let one = fleet.run_with_workers(1);
    let eight = fleet.run_with_workers(8);
    assert_eq!(one, eight, "10k-server day must be worker-count independent");
    assert_eq!(one.requests, 19_200_000);
    assert!(one.gain() > 0.0);
}

#[test]
fn measured_gains_land_within_two_points_of_the_analytical_accounting() {
    for (study, paper) in [(CaseStudy::web_search(), 0.05), (CaseStudy::youtube(), 0.11)] {
        let analytical = study.run();
        let measured = study.run_fleet(LoadBalancer::LeastLoaded, FleetScale::quick(42));
        let delta = (measured.gain() - analytical.gain()).abs();
        assert!(
            delta < 0.02,
            "{}: measured gain {:+.2}% vs analytical {:+.2}% differ by {:.2}pp",
            study.service().name,
            measured.gain() * 100.0,
            analytical.gain() * 100.0,
            delta * 100.0
        );
        assert!(
            (measured.gain() - paper).abs() < 0.02,
            "{}: measured gain {:+.2}% vs paper {:+.0}%",
            study.service().name,
            measured.gain() * 100.0,
            paper * 100.0
        );
    }
}

#[test]
fn engagement_is_a_measured_decision_not_a_load_rule() {
    // The measured fleet must show what the analytical accounting cannot:
    // hysteresis lag around the threshold crossings and (near-)full
    // engagement only after the monitors have seen sustained slack.
    let report =
        CaseStudy::web_search().run_fleet(LoadBalancer::LeastLoaded, FleetScale::quick(42));
    let n = report.servers.len();
    // The very first interval starts in Baseline: no engagement yet even
    // though the load is deep in the trough.
    assert_eq!(report.intervals[0].engaged_servers, 0, "controllers must start disengaged");
    // Within a few intervals the monitors engage nearly the whole fleet.
    assert!(
        report.intervals[4].engaged_servers >= n - 1,
        "sustained slack must engage the fleet (got {}/{})",
        report.intervals[4].engaged_servers,
        n
    );
    // Mode changes happened on every server, and every server saw traffic.
    for s in &report.servers {
        assert!(s.mode_changes >= 2, "each server's monitor must have acted");
        assert!(s.requests > 0);
    }
}
