//! The sensitivity self-test: does a slower layer show where it should?
//!
//! It injects a fixed delay before one wrapped call — the flat-fleet
//! calibration (`CaseStudy::fleet` in the `fleet-study` operation,
//! `measured_peak_rps` in the traced profile) — and runs every workload
//! with and without it, each run in its own process. The delay must show
//! in `fleet-study`'s `setup_s` and `wall_s` and in the two flat studies'
//! `peak_bisect_s`, and in no other workload or layer.

use std::process::{Command, ExitCode, Stdio};

use crate::ops::{SITE_FLAT_PEAK, WORKLOADS};

/// The injected delay.
const DELAY_S: f64 = 3.0;

/// Metrics of one child run, by name.
type Metrics = Vec<(String, f64)>;

fn child(workload: &str, trace: bool, seconds: f64, delay: bool) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", if trace { "1" } else { "0" }]);
    cmd.args(["--seconds", &seconds.to_string()]);
    if delay {
        cmd.args(["--delay", &format!("{SITE_FLAT_PEAK}={}", (DELAY_S * 1e3) as u64)]);
    }
    let out = cmd.stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let value = serde_json::from_str(last).map_err(|e| format!("bad result line: {e:?}"))?;
    if value.get("failed").and_then(|v| v.as_u64()) != Some(0) {
        return Err(format!("{workload} run reported failed operations"));
    }
    let metrics = value.get("metrics").and_then(|m| m.as_object()).ok_or("no metrics")?;
    Ok(metrics.iter().filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?))).collect())
}

fn get(metrics: &Metrics, name: &str) -> f64 {
    metrics.iter().find(|(k, _)| k == name).map_or(f64::NAN, |(_, v)| *v)
}

/// Runs every child pair and checks each expectation; exit 0 when all hold.
pub fn run(seconds: f64) -> ExitCode {
    // (workload, traced, metric, injected delay the metric must show).
    let mut expectations: Vec<(&str, bool, String, f64)> = Vec::new();
    for w in WORKLOADS {
        let shows = if w == "fleet-study" { 2.0 * DELAY_S } else { 0.0 };
        expectations.push((w, false, "setup_s".to_string(), shows));
        expectations.push((w, false, "wall_s".to_string(), shows));
    }
    for p in ["dc", "ws", "yt"] {
        let shows = if p == "dc" { 0.0 } else { DELAY_S };
        expectations.push(("fleet-study", true, format!("cluster.{p}.peak_bisect_s"), shows));
        expectations.push(("fleet-study", true, format!("cluster.{p}.threshold_cal_s"), 0.0));
        expectations.push(("fleet-study", true, format!("cluster.{p}.day_s"), 0.0));
    }
    expectations.push(("fleet-study", true, "figures.serial_sum_s".to_string(), 0.0));

    let mut runs: Vec<(&str, bool, Metrics, Metrics)> = Vec::new();
    for w in WORKLOADS.iter().map(|w| (*w, false)).chain([("fleet-study", true)]) {
        eprintln!("self-test: {} (trace {}) without and with the delay", w.0, u8::from(w.1));
        let pair = child(w.0, w.1, seconds, false)
            .and_then(|base| child(w.0, w.1, seconds, true).map(|slow| (base, slow)));
        match pair {
            Ok((base, slow)) => runs.push((w.0, w.1, base, slow)),
            Err(e) => {
                eprintln!("self-test: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut ok = true;
    println!(
        "{:<18} {:<30} {:>9} {:>9} {:>9} {:>8}  verdict",
        "workload", "metric", "base", "delayed", "delta", "expect"
    );
    for (w, traced, metric, shows) in &expectations {
        let (_, _, base, slow) =
            runs.iter().find(|r| r.0 == *w && r.1 == *traced).expect("every pair ran");
        let (b, s) = (get(base, metric), get(slow, metric));
        let delta = s - b;
        // A delay shows when it adds at least 80% of itself. Where none may
        // show, the metric must not grow by that much for even one delay;
        // run-to-run noise moves it either way by less.
        let pass = if *shows > 0.0 { delta >= 0.8 * shows } else { delta < 0.8 * DELAY_S };
        ok &= pass;
        println!(
            "{w:<18} {metric:<30} {b:>9.3} {s:>9.3} {delta:>+9.3} {:>8}  {}",
            if *shows > 0.0 { format!("+{shows:.1}") } else { "none".to_string() },
            if pass { "ok" } else { "FAIL" }
        );
    }
    println!("self-test {}", if ok { "PASSED" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
