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
use stretch_bench::{Engine, ExperimentConfig, PairOutcome, ResultStore};
use stretch_repro::prelude::*;

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
    let dir = temp_dir("roundtrip");
    let store = ResultStore::open(&dir).expect("store opens");
    let outcome = PairOutcome {
        ls: "web-search".to_string(),
        batch: "zeusmp".to_string(),
        ls_uipc: 0.123_456_789_012_345_68,
        batch_uipc: 1.987_654_321_098_765_4,
    };
    store.save("deadbeef", "round-trip test", &outcome.to_json()).expect("save");
    let loaded =
        PairOutcome::from_json(&store.load("deadbeef").expect("entry present")).expect("decodes");
    assert_eq!(loaded, outcome);
    assert_eq!(loaded.ls_uipc.to_bits(), outcome.ls_uipc.to_bits());
    assert_eq!(loaded.batch_uipc.to_bits(), outcome.batch_uipc.to_bits());
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
fn store_digests_distinguish_policies_not_just_setups() {
    // Regression for the policy-keyed cache scheme: the persistent store
    // must keep separate entries for different policies even when they
    // derive the *same* core setup (EqualPartition vs Stretch pinned to its
    // Baseline mode), and a policy-parameter change must invalidate.
    let dir = temp_dir("policy-keys");

    let cold = Engine::new(ExperimentConfig::quick()).with_store(&dir).expect("store opens");
    let _ = cold.pair(&EqualPartition, "web-search", "zeusmp");
    let _ = cold.pair(&PinnedStretch::new(StretchMode::Baseline), "web-search", "zeusmp");
    assert_eq!(cold.sim_runs(), 2, "identical setups must still be distinct store entries");

    // A fresh engine finds BOTH entries warm — they were stored under
    // distinct digests, not overwriting each other.
    let warm = Engine::new(ExperimentConfig::quick()).with_store(&dir).expect("store opens");
    let _ = warm.pair(&EqualPartition, "web-search", "zeusmp");
    let _ = warm.pair(&PinnedStretch::new(StretchMode::Baseline), "web-search", "zeusmp");
    assert_eq!(warm.sim_runs(), 0, "both policy cells must be served from disk");

    // Changing a policy parameter (the fetch ratio) is a different identity.
    let _ = warm.pair(&FetchThrottling::new(ThreadId::T0, 4), "web-search", "zeusmp");
    assert_eq!(warm.sim_runs(), 1);
    let _ = warm.pair(&FetchThrottling::new(ThreadId::T0, 8), "web-search", "zeusmp");
    assert_eq!(warm.sim_runs(), 2, "a policy-parameter change must recompute");

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
