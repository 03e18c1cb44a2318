//! The traced per-layer profile. It is the same on every workload, so a
//! traced run of any workload reports every per-layer metric:
//!
//! * `figures` / `engine` — every figure rendered serially in registry order
//!   on one cold single-worker Engine, then a warm render on a fresh Engine
//!   over the same store, then one cold parallel render for the speed-up;
//! * `cpu` / `mem` / `workloads` — the sub-matrix cells replayed through
//!   `SmtCoreBuilder` + `setup_for` + `run_core`, checked bit-for-bit
//!   against `Engine::pair` / `Engine::standalone`, and the uop generators
//!   timed on their own;
//! * `cluster` / `qos` — peak bisection, threshold calibration and the day
//!   of each fleet, timed as separate calls, and the arrival generator
//!   timed on its own.

use std::hint::black_box;
use std::path::Path;

use cluster_sim::{
    calibrated_monitor_with_peak, measured_peak_rps, CaseStudy, Fleet, FleetScale, LoadBalancer,
};
use cpu_sim::{
    colocation_seed, pair_seed, run_core, ColocationPolicy, ColocationTopology, EqualPartition,
    PrivateCore, SmtCoreBuilder,
};
use sim_model::{SimRng, ThreadId, TraceSource};
use sim_qos::{ArrivalGenerator, ArrivalProcess};
use stretch::{PinnedStretch, RobSkew, StretchMode};
use stretch_bench::figures::{self, FigureSpec};
use stretch_bench::Engine;

use crate::check::{fleet_digest, text_digest, Checker};
use crate::ops::{self, SITE_FLAT_PEAK, SITE_RACKED_PEAK};
use crate::span::Tracer;
use crate::Metric;

/// Micro-ops drawn per workload generator for `workloads.ns_per_uop`.
const UOPS_PER_GENERATOR: u64 = 500_000;

pub fn profile(
    seed: u64,
    workers: usize,
    scratch: &Path,
    tr: &mut Tracer,
    check: &mut Checker,
) -> Vec<Metric> {
    let mut m = Vec::new();
    let engine = figures_layer(seed, workers, scratch, tr, check, &mut m);
    cpu_layer(seed, &engine, tr, check, &mut m);
    let dc_requests = cluster_layer(seed, workers, tr, check, &mut m);
    let mut arrivals = ArrivalGenerator::new(ArrivalProcess::bursty(100.0), SimRng::new(seed));
    let ((), secs) = tr.leaf("qos.arrivals", || {
        for _ in 0..dc_requests {
            black_box(arrivals.next_arrival_ms());
        }
    });
    m.push(Metric::new("qos.arrivals_ns_per_req", secs * 1e9 / dc_requests as f64, "ns/req"));
    m
}

/// Returns the cold serial engine, whose memo holds every sub-matrix cell.
fn figures_layer(
    seed: u64,
    workers: usize,
    scratch: &Path,
    tr: &mut Tracer,
    check: &mut Checker,
    m: &mut Vec<Metric>,
) -> Engine {
    let dir = scratch.join("profile-store");
    let _ = std::fs::remove_dir_all(&dir);
    let specs: Vec<&FigureSpec> = figures::all().iter().collect();

    let engine = ops::figures_engine(seed, 1, &dir);
    let serial = tr.open("figures.serial");
    let mut cold = Vec::with_capacity(specs.len());
    for spec in &specs {
        let name = format!("figures.{}", spec.name);
        let (text, _) = tr.leaf(&name, || (spec.render)(&engine));
        check.op(spec.name, text_digest(&text));
        cold.push(text);
    }
    tr.close(serial);
    let mut serial_sum = 0.0;
    for spec in &specs {
        let self_s = tr.self_time(&format!("figures.{}", spec.name)).expect("figure span recorded");
        serial_sum += self_s;
        m.push(Metric::new(&format!("figures.{}.self_s", spec.name), self_s, "s"));
    }
    m.push(Metric::new("figures.serial_sum_s", serial_sum, "s"));
    let stats = engine.stats();
    m.push(Metric::new("engine.cells_simulated", stats.misses as f64, "count"));
    m.push(Metric::new("engine.memo_hits", stats.memo_hits as f64, "count"));

    let warm = ops::figures_engine(seed, workers, &dir);
    let (warm_text, warm_s) =
        tr.leaf("engine.warm_render", || figures::render_many(&warm, &specs, workers));
    check.check("warm render simulates nothing", warm.sim_runs() == 0);
    check.check("warm render is byte-identical to the cold render", warm_text == cold);
    m.push(Metric::new("engine.warm_render_s", warm_s, "s"));
    m.push(Metric::new("engine.store_hits", warm.stats().store_hits as f64, "count"));
    let _ = std::fs::remove_dir_all(&dir);

    let parallel = tr.open("figures.parallel");
    let sample = ops::run_op("figures-quick", seed, workers, scratch, None);
    tr.close(parallel);
    for (name, digest) in &sample.digests {
        check.op(name, *digest);
    }
    m.push(Metric::new("figures.parallel_speedup", serial_sum / sample.wall_s, "x"));
    engine
}

/// Replays one colocation cell exactly as `Scenario::run` builds it and
/// records its cpu and mem counters. Returns each thread's uIPC.
fn replay(
    engine: &Engine,
    policy: &dyn ColocationPolicy,
    names: &[&str],
    cell: &str,
    tr: &mut Tracer,
    m: &mut Vec<Metric>,
) -> Vec<f64> {
    let cfg = engine.cfg();
    // A lone workload occupies thread 0 of a two-thread core, seeded from
    // its name against the stand-alone label; a colocation seeds thread i
    // from every slot-ordered name with i mixed in.
    let width = names.len().max(2);
    let colocated = names.len() > 1;
    let base = if colocated {
        colocation_seed(cfg.seed, names)
    } else {
        pair_seed(cfg.seed, names[0], "standalone")
    };
    let setup = policy.setup_for(&cfg.core, &ColocationTopology::new(width, ThreadId::T0));
    let mut builder = setup.apply(SmtCoreBuilder::new(cfg.core)).smt_width(width);
    for (i, name) in names.iter().enumerate() {
        let profile = workloads::profile_by_name(name).expect("known workload");
        let thread_seed = if colocated { base ^ i as u64 } else { base };
        builder = builder.thread(ThreadId::from_index(i), profile.spawn_trace(thread_seed));
    }
    let mut core = builder.build();
    let labels: Vec<Option<String>> = names.iter().map(|n| Some(n.to_string())).collect();
    let (result, secs) = tr.leaf(format!("cpu.{cell}"), || run_core(&mut core, labels, cfg.length));

    let cycles = core.cycles();
    let flushes: u64 =
        (0..names.len()).map(|i| core.thread_stats(ThreadId::from_index(i)).branch_flushes).sum();
    let mem = core.memory_stats();
    m.push(Metric::new(
        &format!("cpu.{cell}.ns_per_cycle"),
        secs * 1e9 / cycles as f64,
        "ns/cycle",
    ));
    m.push(Metric::new(&format!("cpu.{cell}.cycles"), cycles as f64, "count"));
    m.push(Metric::new(&format!("cpu.{cell}.branch_flushes"), flushes as f64, "count"));
    m.push(Metric::new(
        &format!("mem.{cell}.l1d_load_misses"),
        mem.l1d_load_misses as f64,
        "count",
    ));
    m.push(Metric::new(&format!("mem.{cell}.llc_misses"), mem.llc_misses as f64, "count"));
    m.push(Metric::new(
        &format!("mem.{cell}.mshr_rejections"),
        mem.mshr_rejections as f64,
        "count",
    ));
    (0..names.len()).map(|i| result.expect_thread(ThreadId::from_index(i)).uipc).collect()
}

fn cpu_layer(
    seed: u64,
    engine: &Engine,
    tr: &mut Tracer,
    check: &mut Checker,
    m: &mut Vec<Metric>,
) {
    let b_mode = PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode()));
    let policies: [(&str, &dyn ColocationPolicy); 2] =
        [("equal", &EqualPartition), ("bmode", &b_mode)];
    let ls = engine.ls_names()[0].clone();
    let batches = engine.batch_names().to_vec();
    for batch in &batches {
        for (label, policy) in policies {
            let cell = format!("{batch}.{label}");
            let uipc = replay(engine, policy, &[ls.as_str(), batch.as_str()], &cell, tr, m);
            let pair = engine.pair(policy, &ls, batch);
            check.check(
                &format!("replay {cell} matches Engine::pair bit for bit"),
                uipc[0].to_bits() == pair.ls_uipc.to_bits()
                    && uipc[1].to_bits() == pair.batch_uipc.to_bits(),
            );
        }
    }
    let alone = PrivateCore::with_rob(engine.cfg().core.rob_capacity);
    let uipc = replay(engine, &alone, &[ls.as_str()], &format!("{ls}.alone"), tr, m);
    check.check(
        &format!("replay {ls}.alone matches Engine::standalone bit for bit"),
        uipc[0].to_bits() == engine.standalone(&ls).uipc.to_bits(),
    );

    let mut names = vec![ls];
    names.extend(batches);
    let ((), secs) = tr.leaf("workloads.uops", || {
        for name in &names {
            let mut trace =
                workloads::profile_by_name(name).expect("known workload").spawn_trace(seed);
            for _ in 0..UOPS_PER_GENERATOR {
                black_box(trace.next_op());
            }
        }
    });
    let uops = UOPS_PER_GENERATOR * names.len() as u64;
    m.push(Metric::new("workloads.ns_per_uop", secs * 1e9 / uops as f64, "ns/uop"));
}

/// Profiles the three fleets; returns the datacenter day's request count.
fn cluster_layer(
    seed: u64,
    workers: usize,
    tr: &mut Tracer,
    check: &mut Checker,
    m: &mut Vec<Metric>,
) -> u64 {
    let dc_engage = CaseStudy::web_search().engage_below;
    let mut fleets: Vec<(String, Fleet, f64, &str)> =
        vec![("dc".to_string(), ops::datacenter_fleet(seed), dc_engage, SITE_RACKED_PEAK)];
    for (tag, study, _) in ops::studies() {
        let fleet = study.fleet(LoadBalancer::LeastLoaded, FleetScale::standard(seed));
        fleets.push((tag.to_string(), fleet, study.engage_below, SITE_FLAT_PEAK));
    }
    let mut dc_requests = 0;
    for (tag, fleet, engage_below, site) in &fleets {
        let cfg = fleet.cfg();
        let p = format!("cluster.{tag}");
        let (peak, bisect_s) = tr.leaf(format!("{p}.peak_bisect"), || {
            crate::delay_point(site);
            measured_peak_rps(cfg)
        });
        let (monitor, cal_s) = tr.leaf(format!("{p}.threshold_cal"), || {
            calibrated_monitor_with_peak(cfg, *engage_below, peak)
        });
        check.check(
            &format!("{p}: split calibration matches CaseStudy::fleet"),
            peak.to_bits() == fleet.peak_rps().to_bits() && monitor == cfg.monitor,
        );
        let dc = tag == "dc";
        let (report, day_s) = tr.leaf(format!("{p}.day"), || {
            if dc {
                fleet.run_with_workers(workers)
            } else {
                fleet.run()
            }
        });
        let name = if dc { "fleet-datacenter".to_string() } else { format!("fleet-study.{tag}") };
        check.op(&name, fleet_digest(&report));
        let requests = report.requests as u64;
        let starved: usize = report.servers.iter().map(|s| s.starved_intervals).sum();
        let changes: u64 = report.servers.iter().map(|s| s.mode_changes).sum();
        m.push(Metric::new(&format!("{p}.peak_bisect_s"), bisect_s, "s"));
        m.push(Metric::new(&format!("{p}.threshold_cal_s"), cal_s, "s"));
        m.push(Metric::new(&format!("{p}.day_s"), day_s, "s"));
        m.push(Metric::new(
            &format!("{p}.ns_per_request"),
            day_s * 1e9 / requests as f64,
            "ns/req",
        ));
        m.push(Metric::new(&format!("{p}.requests"), requests as f64, "count"));
        m.push(Metric::new(&format!("{p}.starved_intervals"), starved as f64, "count"));
        m.push(Metric::new(&format!("{p}.mode_changes"), changes as f64, "count"));
        m.push(Metric::new(&format!("{p}.hours_engaged"), report.hours_engaged, "h"));
        if dc {
            dc_requests = requests;
            let (one, one_s) = tr.leaf("cluster.dc.day_1w", || fleet.run_with_workers(1));
            check.op("fleet-datacenter", fleet_digest(&one));
            m.push(Metric::new("cluster.shard_speedup", one_s / day_s, "x"));
        }
    }
    dc_requests
}
