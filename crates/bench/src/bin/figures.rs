//! `figures` — the single-process driver for every figure and table of the
//! paper.
//!
//! Runs any subset (or all) of the figures in one process on the shared
//! experiment [`Engine`], computing the stand-alone reference and every
//! shared (setup, pair) matrix cell exactly once and memoising results
//! across figures *and* across invocations via the on-disk result cache.
//!
//! ```text
//! cargo run --release --bin figures -- --all
//! cargo run --release --bin figures -- figure03 figure09
//! cargo run --release --bin figures -- --all --quick --matrix 2x3
//! ```
//!
//! Options:
//!
//! * `--all` — render every figure/table in paper order;
//! * `--quick` — quick simulation lengths and request counts (CI scale);
//! * `--cache-dir <dir>` — result-cache location (default
//!   `target/result-cache`);
//! * `--no-cache` — in-process memoisation only, nothing persisted;
//! * `--wipe-cache` — delete every cache entry, then proceed;
//! * `--matrix <LxB>` — restrict to the first L latency-sensitive and B
//!   batch workloads (e.g. `2x3`) for quick sub-matrix runs;
//! * `--workers <N>` — cap simulation/render parallelism at N threads
//!   (default: all cores). Output is byte-identical at any worker count:
//!   figures render concurrently but are printed in selection order;
//! * `--assert-warm` — exit non-zero if any simulation ran (CI uses this to
//!   prove the second invocation is served entirely from the cache);
//! * `--audit-cache` — recompute every cell the store serves and compare
//!   it with its stored entry byte for byte; print the audited and
//!   mismatched counts and exit non-zero on any mismatch. Audit
//!   recomputations are not counted as simulation runs, so `--assert-warm`
//!   keeps its meaning;
//! * `--list` — print the registry and exit.

use std::process::ExitCode;

use stretch_bench::figures;
use stretch_bench::report::format_cache_stats;
use stretch_bench::{Engine, ExperimentConfig};

struct Options {
    all: bool,
    quick: bool,
    cache_dir: Option<String>,
    wipe_cache: bool,
    sub_matrix: Option<(usize, usize)>,
    workers: Option<usize>,
    assert_warm: bool,
    audit_cache: bool,
    list: bool,
    names: Vec<String>,
}

fn usage() -> String {
    let mut text = String::from(
        "usage: figures [--all | NAME...] [--quick] [--cache-dir DIR] [--no-cache] \
         [--wipe-cache] [--matrix LxB] [--workers N] [--assert-warm] [--audit-cache] \
         [--list]\n\navailable figures:\n",
    );
    for spec in figures::all() {
        text.push_str(&format!("  {:<10} {}\n", spec.name, spec.title));
    }
    text
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        all: false,
        quick: false,
        cache_dir: Some("target/result-cache".to_string()),
        wipe_cache: false,
        sub_matrix: None,
        workers: None,
        assert_warm: false,
        audit_cache: false,
        list: false,
        names: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => opts.all = true,
            "--quick" => opts.quick = true,
            "--no-cache" => opts.cache_dir = None,
            "--wipe-cache" => opts.wipe_cache = true,
            "--assert-warm" => opts.assert_warm = true,
            "--audit-cache" => opts.audit_cache = true,
            "--list" => opts.list = true,
            "--help" | "-h" => return Err(usage()),
            "--cache-dir" => {
                i += 1;
                let dir = args.get(i).ok_or("--cache-dir needs a directory argument")?;
                opts.cache_dir = Some(dir.clone());
            }
            "--matrix" => {
                i += 1;
                let spec = args.get(i).ok_or("--matrix needs an LxB argument (e.g. 2x3)")?;
                let (ls, batch) = spec
                    .split_once('x')
                    .ok_or_else(|| format!("--matrix {spec}: expected LxB (e.g. 2x3)"))?;
                let ls: usize = ls.parse().map_err(|_| format!("--matrix {spec}: bad LS count"))?;
                let batch: usize =
                    batch.parse().map_err(|_| format!("--matrix {spec}: bad batch count"))?;
                let (max_ls, max_batch) =
                    (workloads::latency_sensitive::NAMES.len(), workloads::batch::NAMES.len());
                if ls < 1 || ls > max_ls || batch < 1 || batch > max_batch {
                    return Err(format!(
                        "--matrix {spec}: LS must be 1..={max_ls} and batch 1..={max_batch}"
                    ));
                }
                opts.sub_matrix = Some((ls, batch));
            }
            "--workers" => {
                i += 1;
                let v = args.get(i).ok_or("--workers needs a thread count argument")?;
                let n: usize =
                    v.parse().map_err(|_| format!("--workers {v}: not a thread count"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
                opts.workers = Some(n);
            }
            name if !name.starts_with('-') => opts.names.push(name.to_string()),
            unknown => return Err(format!("unknown option {unknown}\n\n{}", usage())),
        }
        i += 1;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    if opts.list {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if opts.wipe_cache && opts.cache_dir.is_none() {
        eprintln!("--wipe-cache needs a cache to wipe; drop --no-cache (or pass --cache-dir)");
        return ExitCode::from(2);
    }
    if opts.audit_cache && opts.cache_dir.is_none() {
        eprintln!("--audit-cache needs a cache to audit; drop --no-cache (or pass --cache-dir)");
        return ExitCode::from(2);
    }

    let selected: Vec<&figures::FigureSpec> = if opts.all {
        figures::all().iter().collect()
    } else if opts.names.is_empty() {
        eprintln!("nothing to do: pass --all or figure names\n\n{}", usage());
        return ExitCode::from(2);
    } else {
        let mut selected = Vec::new();
        for name in &opts.names {
            match figures::by_name(name) {
                Some(spec) => selected.push(spec),
                None => {
                    eprintln!("unknown figure {name}\n\n{}", usage());
                    return ExitCode::from(2);
                }
            }
        }
        selected
    };

    let mut cfg = if opts.quick { ExperimentConfig::quick() } else { ExperimentConfig::standard() };
    if let Some(n) = opts.workers {
        cfg.parallelism = n;
    }
    let mut engine = Engine::new(cfg);
    if let Some((ls, batch)) = opts.sub_matrix {
        engine = engine.with_sub_matrix(ls, batch);
    }
    if opts.audit_cache {
        engine = engine.with_audit();
    }
    if let Some(dir) = &opts.cache_dir {
        engine = match engine.with_store(dir) {
            Ok(engine) => engine,
            Err(err) => {
                eprintln!("cannot open result cache at {dir}: {err}");
                return ExitCode::from(2);
            }
        };
    }
    if opts.wipe_cache {
        if let Some(store) = engine.store() {
            match store.wipe() {
                Ok(n) => eprintln!("wiped {n} cache entries from {}", store.dir().display()),
                Err(err) => {
                    eprintln!("cannot wipe result cache: {err}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    // Render all selected figures concurrently (the engine deduplicates any
    // shared cells), then print in selection order — the output is
    // byte-identical to the serial loop this replaces, at any worker count.
    let rendered = figures::render_many(&engine, &selected, engine.cfg().workers());
    for (i, text) in rendered.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{text}");
    }

    let stats = engine.stats();
    println!();
    println!("{}", format_cache_stats(&stats));
    if let Some(store) = engine.store() {
        println!(
            "cache directory: {} ({} entries)",
            store.dir().display(),
            store.entries().map_or_else(|_| "?".to_string(), |n| n.to_string())
        );
    }

    let audit = engine.audit_stats();
    if opts.audit_cache {
        println!(
            "cache audit: {} served cells recomputed, {} mismatched",
            audit.audited, audit.mismatched
        );
    }

    if opts.assert_warm && stats.misses > 0 {
        eprintln!(
            "--assert-warm failed: {} simulation runs were not served from the cache",
            stats.misses
        );
        return ExitCode::FAILURE;
    }
    if audit.mismatched > 0 {
        eprintln!(
            "--audit-cache failed: {} cells differ from their stored entries",
            audit.mismatched
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
