//! Integration tests for the shared experiment engine and its persistent
//! result store: save → load round-trips, cache invalidation, and the
//! determinism guarantee that rendering many figures in one process renders
//! exactly what rendering each figure on its own does.
//!
//! Everything runs at `--quick` scale on a small sub-matrix so `cargo test`
//! stays fast; the code paths are identical to the full-size runs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use stretch_bench::figures;
use stretch_bench::store::JsonCodec;
use stretch_bench::{AuditStats, Engine, ExperimentConfig, ResultStore, SmtOutcome};
use stretch_repro::cpu::{colocation_seed, pair_seed, run_core};
use stretch_repro::model::TraceSource;
use stretch_repro::prelude::*;
use stretch_repro::workloads::profile_by_name;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("stretch-it-{tag}-{}-{unique}", std::process::id()))
}

fn quick_engine() -> Engine {
    Engine::new(ExperimentConfig::quick()).with_sub_matrix(1, 2)
}

#[test]
fn result_store_round_trips_identical_pair_outcomes() {
    // A pair cell is stored as a two-slot `SmtOutcome` (LS slot, batch slot).
    let dir = temp_dir("roundtrip");
    let store = ResultStore::open(&dir).expect("store opens");
    let outcome = SmtOutcome {
        names: vec!["web-search".to_string(), "zeusmp".to_string()],
        uipcs: vec![0.123_456_789_012_345_68, 1.987_654_321_098_765_4],
    };
    store.save("deadbeef", "round-trip test", &outcome.to_json()).expect("save");
    let loaded =
        SmtOutcome::from_json(&store.load("deadbeef").expect("entry present")).expect("decodes");
    assert_eq!(loaded, outcome);
    assert_eq!(loaded.uipcs[0].to_bits(), outcome.uipcs[0].to_bits());
    assert_eq!(loaded.uipcs[1].to_bits(), outcome.uipcs[1].to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_results_survive_restart_and_invalidate_on_key_changes() {
    let dir = temp_dir("invalidate");

    let cold = Engine::new(ExperimentConfig::quick()).with_store(&dir).expect("store opens");
    let first = cold.pair(&EqualPartition, "web-search", "zeusmp");
    assert_eq!(cold.sim_runs(), 1);

    // Same key, new process (modelled by a new engine): served from disk.
    let warm = Engine::new(ExperimentConfig::quick()).with_store(&dir).expect("store opens");
    let second = warm.pair(&EqualPartition, "web-search", "zeusmp");
    assert_eq!(warm.sim_runs(), 0, "identical request must be a pure cache hit");
    assert_eq!(first, second);
    assert_eq!(first.ls_uipc.to_bits(), second.ls_uipc.to_bits());

    // Any key component change — seed, length, core config — must miss.
    let reseeded = Engine::new(ExperimentConfig { seed: 1234, ..ExperimentConfig::quick() })
        .with_store(&dir)
        .expect("store opens");
    let _ = reseeded.pair(&EqualPartition, "web-search", "zeusmp");
    assert_eq!(reseeded.sim_runs(), 1, "seed change must recompute");

    let mut longer = ExperimentConfig::quick();
    longer.length.measured_instructions *= 2;
    let relength = Engine::new(longer).with_store(&dir).expect("store opens");
    let _ = relength.pair(&EqualPartition, "web-search", "zeusmp");
    assert_eq!(relength.sim_runs(), 1, "length change must recompute");

    let mut reconfigured = ExperimentConfig::quick();
    reconfigured.core.lsq_capacity = 48;
    let recore = Engine::new(reconfigured).with_store(&dir).expect("store opens");
    let _ = recore.pair(&EqualPartition, "web-search", "zeusmp");
    assert_eq!(recore.sim_runs(), 1, "core config change must recompute");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_digests_follow_the_core_setup() {
    // A cell is keyed by the core setup its policy programs, since nothing
    // else about a policy reaches the run: EqualPartition and Stretch pinned
    // to its Baseline mode program the same core, so the persistent store
    // holds one entry for both, while a policy-parameter change that moves
    // the setup (the fetch ratio) must invalidate.
    let dir = temp_dir("setup-keys");
    let baseline = PinnedStretch::new(StretchMode::Baseline);

    let cold = Engine::new(ExperimentConfig::quick()).with_store(&dir).expect("store opens");
    let equal = cold.pair(&EqualPartition, "web-search", "zeusmp");
    let pinned = cold.pair(&baseline, "web-search", "zeusmp");
    assert_eq!(cold.sim_runs(), 1, "identical setups are one store entry");
    assert_eq!(equal, pinned);

    // A fresh engine finds the one entry warm for both policies.
    let warm = Engine::new(ExperimentConfig::quick()).with_store(&dir).expect("store opens");
    assert_eq!(warm.pair(&baseline, "web-search", "zeusmp"), equal);
    let _ = warm.pair(&EqualPartition, "web-search", "zeusmp");
    assert_eq!(warm.sim_runs(), 0, "both policies must be served from disk");
    assert_eq!(warm.stats().store_hits, 1);

    // Changing a policy parameter (the fetch ratio) changes the setup.
    let _ = warm.pair(&FetchThrottling::new(4), "web-search", "zeusmp");
    assert_eq!(warm.sim_runs(), 1);
    let _ = warm.pair(&FetchThrottling::new(8), "web-search", "zeusmp");
    assert_eq!(warm.sim_runs(), 2, "a policy-parameter change must recompute");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_audit_recomputes_served_cells_and_reports_rewritten_bits() {
    let dir = temp_dir("audit");
    let engine = || Engine::new(ExperimentConfig::quick()).with_store(&dir).expect("store opens");

    let cold = engine();
    let pair = cold.pair(&EqualPartition, "web-search", "zeusmp");
    let _ = cold.standalone("web-search");
    assert_eq!(cold.audit_stats(), AuditStats::default(), "no audit unless asked for");

    // A clean store: both served cells are recomputed and match, and the
    // recomputations are not simulation runs.
    let clean = engine().with_audit();
    assert_eq!(clean.pair(&EqualPartition, "web-search", "zeusmp"), pair);
    let _ = clean.standalone("web-search");
    let _ = clean.pair(&EqualPartition, "web-search", "zeusmp"); // a memo hit: not re-audited
    assert_eq!(clean.sim_runs(), 0, "an audited warm run still simulates nothing");
    assert_eq!(clean.stats().store_hits, 2);
    assert_eq!(clean.audit_stats(), AuditStats { audited: 2, mismatched: 0 });

    // Rewrite the pair's entry with the batch uIPC one ulp off.
    let store = ResultStore::open(&dir).expect("store opens");
    let digest = std::fs::read_dir(&dir)
        .expect("the store directory is listable")
        .map(|entry| entry.expect("a listable entry").path())
        .filter_map(|path| Some(path.file_stem()?.to_str()?.to_string()))
        .find(|digest| store.load(digest).and_then(|v| SmtOutcome::from_json(&v)).is_some())
        .expect("the pair's entry is in the store");
    let mut tampered = SmtOutcome::from_json(&store.load(&digest).expect("present")).expect("pair");
    tampered.uipcs[1] = f64::from_bits(tampered.uipcs[1].to_bits() + 1);
    store.save(&digest, "tampered pair", &tampered.to_json()).expect("writable");

    let audited = engine().with_audit();
    let served = audited.pair(&EqualPartition, "web-search", "zeusmp");
    assert_eq!(served.batch_uipc.to_bits(), tampered.uipcs[1].to_bits(), "serves the stored bits");
    let _ = audited.standalone("web-search");
    assert_eq!(audited.sim_runs(), 0);
    assert_eq!(audited.audit_stats(), AuditStats { audited: 2, mismatched: 1 });

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_process_driver_output_matches_standalone_binaries() {
    // The `figures` driver renders every figure from ONE engine, so cells are
    // shared across figures; a single-figure run (`figures figure03`)
    // renders from a FRESH engine. Outputs must be identical — memoisation must never change
    // numbers. (Figure 3 covers matrix cells plus the stand-alone reference,
    // Figure 7 stand-alone MLP runs; quick 1 × 2 sub-matrix scale keeps the
    // test fast on the single-core CI runner.)
    let shared = quick_engine();
    let shared_fig03 = figures::figure03(&shared);
    let shared_fig07 = figures::figure07(&shared);
    let _ = figures::figure03(&shared); // re-render: everything memoised
    assert!(shared.stats().memo_hits > 0, "rendering figures from one engine must share cells");

    for (name, shared_output) in [("figure03", &shared_fig03), ("figure07", &shared_fig07)] {
        let fresh = quick_engine();
        let spec = figures::by_name(name).expect("registered figure");
        let standalone_output = (spec.render)(&fresh);
        assert_eq!(
            &standalone_output, shared_output,
            "{name}: standalone rendering must match the single-process driver"
        );
    }
}

#[test]
fn warm_cache_rerun_performs_zero_simulation_runs() {
    let dir = temp_dir("warm-rerun");
    let tiny = || Engine::new(ExperimentConfig::quick()).with_sub_matrix(1, 1);

    let cold = tiny().with_store(&dir).expect("store opens");
    let cold_fig03 = figures::figure03(&cold);
    assert!(cold.sim_runs() > 0, "cold run must simulate");

    let warm = tiny().with_store(&dir).expect("store opens");
    let warm_fig03 = figures::figure03(&warm);
    assert_eq!(warm.sim_runs(), 0, "warm rerun must be served entirely from the cache");
    assert!((warm.stats().hit_rate() - 1.0).abs() < 1e-12, "hit rate must be 100%");
    assert_eq!(cold_fig03, warm_fig03, "cached results must render byte-identical tables");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn standalone_reference_is_computed_once_per_process() {
    let engine = quick_engine();
    let reference_runs = (engine.ls_names().len() + engine.batch_names().len()) as u64;

    // Figure 3 and Figure 7 both need stand-alone runs; Figure 7's workloads
    // are outside the 2 × 2 sub-matrix, so they add exactly two cells.
    let _ = engine.standalone_reference();
    assert_eq!(engine.sim_runs(), reference_runs);
    let _ = engine.standalone_reference();
    assert_eq!(engine.sim_runs(), reference_runs, "second reference request re-simulates nothing");
}

/// The hand-built route of the traced benchmark replay and the warp oracle:
/// the policy's setup for a `width`-wide core with the service on T0,
/// applied to a core builder, each workload spawned at its derived seed,
/// then the measurement loop. A lone workload is seeded against the
/// stand-alone label.
fn hand_built_run(
    cfg: &ExperimentConfig,
    policy: &dyn ColocationPolicy,
    width: usize,
    names: &[&str],
) -> ColocationResult {
    let colocated = names.len() > 1;
    let base = if colocated {
        colocation_seed(cfg.seed, names)
    } else {
        pair_seed(cfg.seed, names[0], "standalone")
    };
    let setup = policy.setup_for(&cfg.core, &ColocationTopology::new(width, ThreadId::T0));
    let mut builder = setup.apply(SmtCoreBuilder::new(cfg.core)).smt_width(width);
    for (i, name) in names.iter().enumerate() {
        let seed = if colocated { base ^ i as u64 } else { base };
        let trace = profile_by_name(name).expect("known workload").spawn_trace(seed);
        builder = builder.thread(ThreadId::from_index(i), trace);
    }
    let labels = names.iter().map(|n| Some(n.to_string())).collect();
    run_core(&mut builder.build(), labels, cfg.length)
}

#[test]
fn engine_cells_match_the_plain_scenario_api() {
    // A non-default seed and core: a cell that dropped `.seed(..)` or
    // `.config(..)` would fall back to the builders' defaults and differ.
    let mut cfg = ExperimentConfig { seed: 7, ..ExperimentConfig::quick() };
    cfg.core.pipeline_flush_cycles = 9;
    let engine = Engine::new(cfg);
    let profile = |name: &str| profile_by_name(name).expect("known workload");

    let batches = ["zeusmp", "gcc", "mcf"].map(String::from);
    let cell = engine.smt(&EqualPartition, "web-search", &batches);
    let sources: Vec<Box<dyn TraceSource + Send + Sync>> = batches
        .iter()
        .map(|b| Box::new(profile(b)) as Box<dyn TraceSource + Send + Sync>)
        .collect();
    let plain = Scenario::colocate_n(profile("web-search"), sources)
        .config(cfg.core)
        .policy(EqualPartition)
        .length(cfg.length)
        .seed(cfg.seed)
        .run();
    let hand = hand_built_run(&cfg, &EqualPartition, 4, &["web-search", "zeusmp", "gcc", "mcf"]);
    assert_eq!(cell.uipcs.len(), 4);
    for (slot, uipc) in cell.uipcs.iter().enumerate() {
        let t = ThreadId::from_index(slot);
        let expected = plain.expect_thread(t).uipc;
        assert_eq!(uipc.to_bits(), expected.to_bits(), "smt slot {slot}");
        assert_eq!(uipc.to_bits(), hand.expect_thread(t).uipc.to_bits(), "hand-built slot {slot}");
    }

    let spec = ServerSpec::new(2, 2);
    let b_mode = PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode()));
    let batches = ["zeusmp", "gcc"].map(String::from);
    let cell = engine.server(spec, &Greedy, &b_mode, "web-search", &batches);
    let threads = std::iter::once(ThreadSpec::latency_sensitive("web-search"))
        .chain(batches.iter().map(|b| ThreadSpec::batch(b.clone())))
        .map(|t| {
            let uipc = engine.standalone(&t.name).uipc;
            t.with_standalone_uipc(uipc)
        });
    let mut scenario = ServerScenario::new(spec)
        .config(cfg.core)
        .allocation(Greedy)
        .colocation(b_mode)
        .length(cfg.length)
        .seed(cfg.seed);
    for thread in threads {
        let source = Box::new(profile(&thread.name));
        scenario = scenario.thread(ServerThread::new(thread, source));
    }
    let plain = scenario.run();
    assert_eq!(cell.cores, plain.placement.cores());
    assert_eq!(cell.uipcs.len(), 3);
    for (t, uipc) in cell.uipcs.iter().enumerate() {
        let expected = plain.thread_uipc(t).expect("every offered thread ran");
        assert_eq!(uipc.to_bits(), expected.to_bits(), "server thread {t}");
    }

    let cell = engine.standalone_with_rob("web-search", 64);
    let plain = Scenario::standalone(profile("web-search"))
        .config(cfg.core)
        .policy(PrivateCore::with_rob(64))
        .length(cfg.length)
        .seed(cfg.seed)
        .run_thread0();
    let hand = hand_built_run(&cfg, &PrivateCore::with_rob(64), 2, &["web-search"]);
    for run in [&plain, hand.expect_thread(ThreadId::T0)] {
        assert_eq!(cell.uipc.to_bits(), run.uipc.to_bits());
        assert_eq!(cell.committed, run.committed);
        assert_eq!(cell.cycles, run.cycles);
        assert_eq!(cell.mlp, run.mlp);
    }
}
