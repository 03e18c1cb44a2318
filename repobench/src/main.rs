//! `repobench` — the repository benchmark.
//!
//! ```text
//! repobench --workload <figures-quick|fleet-datacenter|fleet-study>
//!           [--seed N] [--seconds S] [--trace 0|1] [--delay SITE=MS]
//! repobench --self-test [--seconds S]
//! ```
//!
//! An untraced run (`--trace 0`) repeats the workload's operation for
//! `--seconds`, each operation in a fresh child process, and reports the
//! end-to-end metrics as medians over the operations. A traced run
//! (`--trace 1`) reports the per-layer metrics from spans recorded around
//! calls into each layer's public API and writes the spans as JSON under
//! `.bench_out/`. Either way the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod check;
mod ops;
mod profile;
mod selftest;
mod span;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use check::Checker;
use span::Tracer;

/// Directory (relative to the working directory) for scratch stores and
/// span files.
const OUT_DIR: &str = ".bench_out";

/// Stand-alone set-ups timed after each `figures-quick` operation: its
/// set-up takes microseconds, so one sample per operation is too few for a
/// steady median.
const FIGURES_SETUP_REPEATS: usize = 25;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit }
    }
}

/// Command-line options.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    delay: Option<String>,
    self_test: bool,
    /// Internal: run exactly one operation and print it as a `sample` line.
    one_op: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: check::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        delay: None,
        self_test: false,
        one_op: false,
    };
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--delay" => out.delay = Some(value()?),
            "--self-test" => out.self_test = true,
            "--one-op" => out.one_op = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    if !out.self_test && !ops::WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {}", ops::WORKLOADS.join(", ")));
    }
    Ok(out)
}

static DELAY: OnceLock<Option<(String, Duration)>> = OnceLock::new();

fn parse_delay(spec: &Option<String>) -> Result<Option<(String, Duration)>, String> {
    let Some(spec) = spec else { return Ok(None) };
    let (site, ms) = spec.split_once('=').ok_or("--delay takes SITE=MS")?;
    let ms: u64 = ms.parse().map_err(|e| format!("--delay: {e}"))?;
    Ok(Some((site.to_string(), Duration::from_millis(ms))))
}

/// Sleeps for the injected delay when `site` is the one `--delay` names.
/// Placed right before a wrapped call, inside its timing window; the
/// sensitivity self-test uses it to show that a slower layer moves the
/// metrics that should move and no others.
pub fn delay_point(site: &str) {
    if let Some(Some((target, delay))) = DELAY.get() {
        if target == site {
            std::thread::sleep(*delay);
        }
    }
}

/// Worker threads for parallel renders and sharded days.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(8)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The process's resident-set high-water mark, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present in /proc/self/status");
    kb / 1024.0
}

/// Times `n` stand-alone `figures-quick` set-ups (Engine plus store open).
fn figures_setups(seed: u64, scratch: &Path, n: usize) -> Vec<f64> {
    let dir = scratch.join("setup-store");
    (0..n)
        .map(|_| {
            let _ = std::fs::remove_dir_all(&dir);
            let start = Instant::now();
            let engine = ops::figures_engine(seed, workers(), &dir);
            let secs = start.elapsed().as_secs_f64();
            drop(engine);
            secs
        })
        .collect()
}

/// Child side of an untraced run: one operation, printed as one line of
/// JSON after `sample `. Digests travel as hex strings (u64 does not fit
/// a JSON number exactly).
fn one_op(args: &Args, scratch: &Path) -> ExitCode {
    let s = ops::run_op(&args.workload, args.seed, workers(), scratch, None);
    let mut setups = vec![s.setup_s];
    if args.workload == "figures-quick" {
        setups.extend(figures_setups(args.seed, scratch, FIGURES_SETUP_REPEATS));
    }
    let quote = |t: &str| format!("\"{}\"", t.replace('\\', "\\\\").replace('"', "\\\""));
    let digests: Vec<String> =
        s.digests.iter().map(|(n, d)| format!("{}: \"{d:#018x}\"", quote(n))).collect();
    let setups: Vec<String> = setups.iter().map(f64::to_string).collect();
    let notes: Vec<String> = s.notes.iter().map(|n| quote(n)).collect();
    println!(
        "sample {{\"wall_s\": {}, \"day_s\": {}, \"requests\": {}, \"rss_mb\": {}, \
         \"setups\": [{}], \"digests\": {{{}}}, \"notes\": [{}]}}",
        s.wall_s,
        s.day_s,
        s.requests,
        peak_rss_mb(),
        setups.join(", "),
        digests.join(", "),
        notes.join(", ")
    );
    ExitCode::SUCCESS
}

/// Runs one operation in a child process and returns its `sample` line.
fn spawn_op(args: &Args) -> Result<serde_json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--one-op", "--workload", &args.workload, "--seed", &args.seed.to_string()]);
    if let Some(delay) = &args.delay {
        cmd.args(["--delay", delay]);
    }
    let out = cmd.stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sample "))
        .ok_or(format!("operation exited with {} and no sample", out.status))?;
    serde_json::from_str(line).map_err(|e| format!("bad sample line: {e:?}"))
}

/// The untraced run: the end-to-end metrics.
fn untraced(args: &Args, check: &mut Checker, notes: &mut Vec<String>) -> Vec<Metric> {
    let workload = args.workload.as_str();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut walls, mut setups, mut rates, mut rss) = (vec![], vec![], vec![], vec![]);
    loop {
        match spawn_op(args) {
            Ok(s) => {
                let num = |k: &str| s.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                let digests = s.get("digests").and_then(|d| d.as_object());
                for (name, digest) in digests.into_iter().flatten() {
                    let hex = digest.as_str().unwrap_or("").trim_start_matches("0x");
                    check.op(name, u64::from_str_radix(hex, 16).unwrap_or(0));
                }
                let list =
                    |k: &str| s.get(k).and_then(|v| v.as_array()).cloned().unwrap_or_default();
                setups.extend(list("setups").iter().filter_map(|v| v.as_f64()));
                *notes =
                    list("notes").iter().filter_map(|v| v.as_str().map(String::from)).collect();
                // The figure matrix interleaves its fleet days with other
                // cells, so its rate is over the whole render.
                let busy = if num("day_s") > 0.0 { num("day_s") } else { num("wall_s") };
                rates.push(num("requests") / 1e6 / busy);
                walls.push(num("wall_s"));
                rss.push(num("rss_mb"));
            }
            Err(e) => {
                eprintln!("repobench: {e}");
                check.panicked(workload, ops::ops_per_run(workload));
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if walls.is_empty() {
        return Vec::new();
    }
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    notes.push(format!("operation wall times (s): {}; metrics are medians", list.join(" ")));
    vec![
        Metric::new("wall_s", median(&walls), "s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("sim_mreq_per_s", median(&rates), "Mreq/s"),
        Metric::new("peak_rss_mb", median(&rss), "MB"),
    ]
}

/// The traced run: the per-layer metrics plus the tracing overhead of this
/// workload's operation (traced minus untraced wall time, in-process).
fn traced(args: &Args, scratch: &Path, check: &mut Checker, tr: &mut Tracer) -> Vec<Metric> {
    let workload = args.workload.as_str();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    loop {
        for (walls, tracer) in [(&mut plain, None), (&mut spanned, Some(&mut *tr))] {
            let s = ops::run_op(workload, args.seed, workers(), scratch, tracer);
            for (name, digest) in &s.digests {
                check.op(name, *digest);
            }
            walls.push(s.wall_s);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let mut metrics = profile::profile(args.seed, workers(), scratch, tr, check);
    metrics.push(Metric::new("trace.overhead_s", median(&spanned) - median(&plain), "s"));
    metrics
}

fn run(args: &Args) -> ExitCode {
    let out = PathBuf::from(OUT_DIR);
    let scratch = out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("repobench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    if args.one_op {
        let code = one_op(args, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        return code;
    }
    let mut check = Checker::new(args.seed);
    let mut notes = Vec::new();
    let metrics = if args.trace {
        let mut tr = Tracer::new();
        let metrics =
            catch_unwind(AssertUnwindSafe(|| traced(args, &scratch, &mut check, &mut tr)));
        let path = out.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match tr.write_json(&path) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => eprintln!("repobench: cannot write {}: {e}", path.display()),
        }
        metrics.unwrap_or_else(|_| {
            check.panicked("traced profile", 1);
            Vec::new()
        })
    } else {
        untraced(args, &mut check, &mut notes)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    for m in &metrics {
        check.check(&format!("{} is finite", m.name), m.value.is_finite());
    }
    println!("workload {} seed {} workers {}", args.workload, args.seed, workers());
    for note in &notes {
        println!("note: {note}");
    }
    for (name, digest) in check.digests() {
        println!("digest {name} {digest:#018x}");
    }
    for m in &metrics {
        println!("metric {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for e in &check.errors {
        eprintln!("repobench: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed == 0 && !metrics.is_empty(),
        check.attempted,
        check.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let parsed = parse_args(std::env::args().skip(1))
        .and_then(|args| parse_delay(&args.delay).map(|delay| (args, delay)));
    let (args, delay) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    DELAY.set(delay).expect("delay set once");
    if args.self_test {
        selftest::run(args.seconds)
    } else {
        run(&args)
    }
}
