//! `fleet` — run a (sharded) datacenter fleet day through the cached
//! experiment engine and write the full report as deterministic JSON.
//!
//! ```text
//! cargo run --release --bin fleet                                  # 10k-server racked day
//! cargo run --release --bin fleet -- --servers 512 --racks 8 --workers 2 --out fleet.json
//! cargo run --release --bin fleet -- --cache-dir target/fleet-cache --wipe-cache
//! cargo run --release --bin fleet -- --cache-dir target/fleet-cache --assert-warm
//! ```
//!
//! The report is bit-identical for every `--workers` count (the sharded
//! merge is a deterministic shard-index-order fold), so CI runs the binary
//! cold at two counts and literally `diff`s the JSON outputs.
//!
//! Options:
//!
//! * `--study web-search|youtube` — which §VI-D case study (default
//!   `web-search`);
//! * `--servers N` — fleet size (default 10000);
//! * `--racks N` — rack count; servers must split evenly (default 125).
//!   `--racks 1` is a flat fleet: one global balancer over every server;
//! * `--requests N` — measured requests per server-interval (default 20);
//! * `--days N` — simulated days (default 1);
//! * `--balancer NAME` — `least-loaded`, `p2c` or `round-robin` (default
//!   `p2c`); it dispatches inside each rack;
//! * `--exact-tails` — retain raw sojourns instead of the default 2 ms
//!   fixed-bin histograms: exact percentiles for 8 bytes per measured
//!   request, each held once (the default day's 19.2M requests peak at
//!   about 155 MB);
//! * `--workers N` — shard worker threads (default: all cores, capped at 8);
//! * `--seed N` — fleet seed (default 42);
//! * `--cache-dir PATH` — attach a persistent result store;
//! * `--wipe-cache` — clear that store first (cold run);
//! * `--assert-warm` — exit 1 if the engine performed any simulation run;
//! * `--out PATH` — write the full report JSON there (default
//!   `FLEET_report.json`).
//!
//! The binary ends by printing its own peak resident set on stderr
//! (`peak RSS: N kB (VmHWM)`, from `/proc/self/status`, where the platform
//! has one): a wrapper's `ru_maxrss` for the child also counts the
//! wrapper's own resident set at spawn, which can exceed a small fleet's
//! peak. CI's memory gates read this line.
//!
//! Exit status: 0 on success, 1 when `--assert-warm` fails, 2 on usage or
//! I/O errors.

use std::process::ExitCode;

use cluster_sim::{CaseStudy, FleetScale, FleetTopology, LoadBalancer, TailAccumulation};
use stretch_bench::store::JsonCodec;
use stretch_bench::{Engine, ExperimentConfig};

struct Options {
    study: CaseStudy,
    study_name: String,
    servers: usize,
    racks: usize,
    requests: usize,
    days: usize,
    balancer: LoadBalancer,
    exact_tails: bool,
    workers: usize,
    seed: u64,
    cache_dir: Option<String>,
    wipe_cache: bool,
    assert_warm: bool,
    out: String,
}

fn usage() -> String {
    "usage: fleet [--study web-search|youtube] [--servers N] [--racks N] \
     [--requests N] [--days N] [--balancer NAME] [--exact-tails] [--workers N] [--seed N] \
     [--cache-dir PATH] [--wipe-cache] [--assert-warm] [--out PATH]\n"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        study: CaseStudy::web_search(),
        study_name: "web-search".to_string(),
        servers: 10_000,
        racks: 125,
        requests: 20,
        days: 1,
        balancer: LoadBalancer::PowerOfTwoChoices,
        exact_tails: false,
        workers: std::thread::available_parallelism().map_or(4, |n| n.get()).min(8),
        seed: 42,
        cache_dir: None,
        wipe_cache: false,
        assert_warm: false,
        out: "FLEET_report.json".to_string(),
    };
    let mut i = 0;
    while i < args.len() {
        let value_of = |what: &str, i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{what} needs an argument"))
        };
        let count_of = |what: &str, i: &mut usize| -> Result<usize, String> {
            let v = value_of(what, i)?;
            v.parse().map_err(|_| format!("{what} {v}: not a count"))
        };
        match args[i].as_str() {
            "--help" | "-h" => return Ok(None),
            "--study" => {
                let v = value_of("--study", &mut i)?;
                (opts.study, opts.study_name) = match v.as_str() {
                    "web-search" => (CaseStudy::web_search(), v),
                    "youtube" => (CaseStudy::youtube(), v),
                    other => return Err(format!("--study {other}: not a known case study")),
                };
            }
            "--servers" => opts.servers = count_of("--servers", &mut i)?,
            "--racks" => opts.racks = count_of("--racks", &mut i)?,
            "--requests" => opts.requests = count_of("--requests", &mut i)?,
            "--days" => opts.days = count_of("--days", &mut i)?,
            "--balancer" => {
                let v = value_of("--balancer", &mut i)?;
                opts.balancer = match v.as_str() {
                    "least-loaded" => LoadBalancer::LeastLoaded,
                    "p2c" => LoadBalancer::PowerOfTwoChoices,
                    "round-robin" => LoadBalancer::RoundRobin,
                    other => return Err(format!("--balancer {other}: not a known balancer")),
                };
            }
            "--exact-tails" => opts.exact_tails = true,
            "--workers" => {
                opts.workers = count_of("--workers", &mut i)?;
                if opts.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--seed" => {
                let v = value_of("--seed", &mut i)?;
                opts.seed = v.parse().map_err(|_| format!("--seed {v}: not a seed"))?;
            }
            "--cache-dir" => opts.cache_dir = Some(value_of("--cache-dir", &mut i)?),
            "--wipe-cache" => opts.wipe_cache = true,
            "--assert-warm" => opts.assert_warm = true,
            "--out" => opts.out = value_of("--out", &mut i)?,
            unknown => return Err(format!("unknown option {unknown}\n\n{}", usage())),
        }
        i += 1;
    }
    if opts.days == 0 {
        return Err("--days must be at least 1".to_string());
    }
    Ok(Some(opts))
}

/// This process's peak resident set in kB: `VmHWM` in `/proc/self/status`,
/// or `None` where there is no such file.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    line.split_whitespace().next()?.parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    let topology = FleetTopology::racked(opts.racks, opts.balancer);
    let tails =
        if opts.exact_tails { TailAccumulation::Exact } else { TailAccumulation::binned_default() };
    let scale =
        FleetScale { servers: opts.servers, requests_per_server: opts.requests, seed: opts.seed };
    // Calibration (peak bisection + threshold fit on one rack) runs outside
    // the cached cell and on every invocation; it is
    // deterministic and cheap next to the day itself.
    let fleet = match opts.study.try_fleet_with(opts.balancer, scale, topology, tails, opts.days) {
        Ok(fleet) => fleet,
        Err(message) => {
            eprintln!("invalid fleet configuration: {message}");
            return ExitCode::from(2);
        }
    };

    let mut experiment = ExperimentConfig::quick();
    experiment.parallelism = opts.workers;
    let mut engine = Engine::new(experiment);
    if let Some(dir) = &opts.cache_dir {
        if opts.wipe_cache {
            if let Err(err) = std::fs::remove_dir_all(dir) {
                if err.kind() != std::io::ErrorKind::NotFound {
                    eprintln!("cannot wipe cache dir {dir}: {err}");
                    return ExitCode::from(2);
                }
            }
        }
        engine = match engine.with_store(dir) {
            Ok(engine) => engine,
            Err(err) => {
                eprintln!("cannot open cache dir {dir}: {err}");
                return ExitCode::from(2);
            }
        };
    }

    let report = engine.fleet(&fleet);
    let stats = engine.stats();
    println!(
        "fleet {} x{} {} ({} rack(s)), {} day(s), {} worker(s): gain {:+.4}%, p99 {:.2} ms, \
         {:.2} h engaged, {} requests, violation fraction {:.2e}",
        opts.study_name,
        opts.servers,
        opts.balancer,
        fleet.cfg().racks,
        opts.days,
        opts.workers,
        report.gain() * 100.0,
        report.p99_ms,
        report.hours_engaged,
        report.requests,
        report.violation_fraction,
    );
    println!(
        "engine: {} memo hit(s), {} store hit(s), {} simulation run(s)",
        stats.memo_hits, stats.store_hits, stats.misses
    );

    // serde_json maps are ordered, so the serialisation is deterministic and
    // two runs at different worker counts diff byte-for-byte.
    let json = report.to_json().to_string();
    if let Err(err) = std::fs::write(&opts.out, json + "\n") {
        eprintln!("cannot write {}: {err}", opts.out);
        return ExitCode::from(2);
    }
    println!("report written to {}", opts.out);
    if let Some(kb) = peak_rss_kb() {
        eprintln!("peak RSS: {kb} kB (VmHWM)");
    }

    if opts.assert_warm && stats.misses > 0 {
        eprintln!(
            "--assert-warm: engine performed {} simulation run(s); expected a fully warm cache",
            stats.misses
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
