//! Every figure and table of the paper as a renderer over the shared
//! [`Engine`].
//!
//! Each figure is a *declaration* of which experiment cells it needs
//! (matrix setups, stand-alone references, sweeps, queueing curves) plus the
//! formatting that turns them into the paper's tables. The engine memoises
//! the cells, so rendering several figures in one process — the `figures`
//! driver binary — computes the stand-alone reference and every shared
//! (setup, pair) cell exactly once. `figures <name>` renders a single
//! [`registry`](all) entry; the `tables` binary renders the tables entry's
//! function directly so it can also emit JSON.

use std::fmt::Write as _;

use baselines::{
    DynamicSharing, FetchThrottling, HybridThrottleSkew, IdealScheduling, FETCH_THROTTLING_RATIOS,
};
use cluster_sim::{CaseStudy, DiurnalPattern, FleetScale, LoadBalancer};
use cpu_sim::{
    AllocationPolicy, ColocationPolicy, EqualPartition, Greedy, RoundRobin, ServerSpec,
    StudiedResource, SymbiosisAware,
};
use sim_model::{parallel_map, CoreConfig};
use sim_qos::ServiceSpec;
use sim_stats::{det_sum, DistributionSummary};
use stretch::{PinnedStretch, RobSkew, StretchMode};

use crate::engine::{Engine, PairOutcome, ServerOutcome};
use crate::report::{format_distribution_row, json, TableWriter};

macro_rules! w {
    ($out:expr) => { let _ = writeln!($out); };
    ($out:expr, $($arg:tt)*) => { let _ = writeln!($out, $($arg)*); };
}

/// One figure or table of the paper, as an entry in the registry.
pub struct FigureSpec {
    /// Name on the `figures` command line (`figure03`, `tables`).
    pub name: &'static str,
    /// One-line description shown by `figures --list`.
    pub title: &'static str,
    /// Renders the figure from engine-provided cells.
    pub render: fn(&Engine) -> String,
}

/// The full registry, in paper order.
pub fn all() -> &'static [FigureSpec] {
    const ALL: [FigureSpec; 16] = [
        FigureSpec {
            name: "figure01",
            title: "Web Search latency vs load against the QoS target",
            render: figure01,
        },
        FigureSpec {
            name: "figure02",
            title: "performance required to meet the QoS target (slack)",
            render: figure02,
        },
        FigureSpec {
            name: "figure03",
            title: "colocation slowdown on the baseline SMT core",
            render: figure03,
        },
        FigureSpec {
            name: "figure04",
            title: "per-resource sharing slowdown for Web Search colocations",
            render: figure04,
        },
        FigureSpec {
            name: "figure05",
            title: "average slowdown from sharing one resource",
            render: figure05,
        },
        FigureSpec { name: "figure06", title: "sensitivity to ROB capacity", render: figure06 },
        FigureSpec {
            name: "figure07",
            title: "memory-level parallelism of Web Search vs zeusmp",
            render: figure07,
        },
        FigureSpec {
            name: "figure09",
            title: "speedup under Stretch B-/Q-mode skews",
            render: figure09,
        },
        FigureSpec {
            name: "figure10",
            title: "per-benchmark batch speedup under B-mode 56-136",
            render: figure10,
        },
        FigureSpec {
            name: "figure11",
            title: "batch slowdown under dynamic ROB sharing",
            render: figure11,
        },
        FigureSpec { name: "figure12", title: "fetch throttling vs Stretch", render: figure12 },
        FigureSpec {
            name: "figure13",
            title: "ideal software scheduling vs Stretch vs both",
            render: figure13,
        },
        FigureSpec {
            name: "figure14",
            title: "diurnal load patterns and cluster case studies",
            render: figure14,
        },
        FigureSpec {
            name: "figure14_measured",
            title: "cluster case studies measured by the load-balanced fleet simulation",
            render: figure14_measured,
        },
        FigureSpec {
            name: "figure15_allocation",
            title: "allocation x colocation policies on a 2-core SMT4 server",
            render: figure15_allocation,
        },
        FigureSpec {
            name: "tables",
            title: "Tables I-III: workload and processor parameters",
            render: |engine| tables(engine, false),
        },
    ];
    &ALL
}

/// Looks up a figure by its registry name.
pub fn by_name(name: &str) -> Option<&'static FigureSpec> {
    all().iter().find(|f| f.name == name)
}

/// Renders `specs` against one shared engine with up to `workers` figures in
/// flight, returning the rendered strings in `specs` order.
///
/// The fan-out rides on [`parallel_map`]'s order-preserving merge, so the
/// result — and any concatenation of it — is byte-identical to rendering the
/// specs one by one; the [`Engine`]'s in-flight deduplication guarantees each
/// simulation cell is still computed exactly once even when figures that
/// share cells render concurrently. The merge is pure string collection (no
/// floating-point accumulation), keeping the `reduction-order` lint rule
/// satisfied by construction.
pub fn render_many(engine: &Engine, specs: &[&FigureSpec], workers: usize) -> Vec<String> {
    let indices: Vec<usize> = (0..specs.len()).collect();
    parallel_map(indices, workers, |&i| (specs[i].render)(engine))
}

/// Figure 1: Web Search average, 95th- and 99th-percentile latency as a
/// function of load, against the 100 ms QoS target.
pub fn figure01(engine: &Engine) -> String {
    let spec = ServiceSpec::web_search();
    let points = engine.latency_curve(&spec, 42, 0.05, 20);
    let mut table = TableWriter::new(
        &format!(
            "Figure 1: {} latency vs load (QoS target {} ms p99)",
            spec.name, spec.qos_target_ms
        ),
        &["load (% of max)", "average (ms)", "95th percentile (ms)", "99th percentile (ms)", "QoS"],
    );
    for p in &points {
        table.row(&[
            format!("{:.0}%", p.load * 100.0),
            format!("{:.1}", p.latency.mean_ms),
            format!("{:.1}", p.latency.p95_ms),
            format!("{:.1}", p.latency.p99_ms),
            if p.latency.p99_ms <= spec.qos_target_ms {
                "ok".to_string()
            } else {
                "VIOLATED".to_string()
            },
        ]);
    }
    let mut out = table.render();

    let first = points.first().expect("non-empty sweep");
    let last = points.last().expect("non-empty sweep");
    w!(out);
    w!(
        out,
        "Average latency grows {:.0}% from the lowest to the highest load point (paper: 43%);",
        (last.latency.mean_ms / first.latency.mean_ms - 1.0) * 100.0
    );
    w!(
        out,
        "the 99th percentile grows {:.1}x (paper: over 2.5x).",
        last.latency.p99_ms / first.latency.p99_ms
    );
    out
}

/// Figure 2: the minimum fraction of full single-thread performance each
/// latency-sensitive service needs to keep meeting its QoS target, by load.
pub fn figure02(engine: &Engine) -> String {
    let loads: Vec<f64> = (1..=10).map(|i| i as f64 * 0.1).collect();
    let specs = ServiceSpec::all();

    let mut table = TableWriter::new(
        "Figure 2: performance required to meet the QoS target (% of full core)",
        &["load (% of max)", "data-serving", "web-serving", "web-search", "media-streaming"],
    );
    let columns: Vec<_> = specs.iter().map(|spec| engine.slack_curve(spec, 7, &loads)).collect();
    for (i, &load) in loads.iter().enumerate() {
        let mut row = vec![format!("{:.0}%", load * 100.0)];
        for col in &columns {
            // An infeasible point means even full performance misses the
            // target — qualitatively different from "needs 100%".
            row.push(match col[i].required() {
                Some(required) => format!("{:.0}%", required * 100.0),
                None => "unmet".to_string(),
            });
        }
        table.row(&row);
    }
    let mut out = table.render();

    w!(out);
    let at = |target_load: f64| -> Vec<f64> {
        let idx = loads.iter().position(|&l| (l - target_load).abs() < 1e-9).expect("load on grid");
        columns.iter().map(|c| c[idx].slack()).collect()
    };
    let s20 = at(0.2);
    let s50 = at(0.5);
    w!(
        out,
        "At 20% load, {:.0}-{:.0}% of single-thread performance can be sacrificed (paper: 55-90%).",
        s20.iter().cloned().fold(f64::MAX, f64::min) * 100.0,
        s20.iter().cloned().fold(f64::MIN, f64::max) * 100.0
    );
    w!(
        out,
        "At 50% load, {:.0}-{:.0}% can be sacrificed (paper: 30-70%).",
        s50.iter().cloned().fold(f64::MAX, f64::min) * 100.0,
        s50.iter().cloned().fold(f64::MIN, f64::max) * 100.0
    );
    out
}

/// Figure 3: slowdown incurred by colocation on the baseline SMT core,
/// relative to stand-alone execution on a full core.
pub fn figure03(engine: &Engine) -> String {
    let mut out = String::new();
    w!(out, "Figure 3: colocation slowdown on the baseline SMT core");
    w!(out, "(positive = slower than stand-alone on a full core)");
    w!(out);

    let reference = engine.standalone_reference();
    let matrix = engine.matrix(&EqualPartition);

    let mut all_ls = Vec::new();
    let mut all_batch = Vec::new();
    for ls in engine.ls_names() {
        let ls_slow: Vec<f64> = matrix
            .iter()
            .filter(|p| &p.ls == ls)
            .map(|p| 1.0 - p.ls_uipc / reference[&p.ls])
            .collect();
        let batch_slow: Vec<f64> = matrix
            .iter()
            .filter(|p| &p.ls == ls)
            .map(|p| 1.0 - p.batch_uipc / reference[&p.batch])
            .collect();
        w!(
            out,
            "{}",
            format_distribution_row(
                &format!("{ls} (LS thread)"),
                &DistributionSummary::from_samples(&ls_slow)
            )
        );
        w!(
            out,
            "{}",
            format_distribution_row(
                &format!("{ls} (batch co-runners)"),
                &DistributionSummary::from_samples(&batch_slow)
            )
        );
        all_ls.extend(ls_slow);
        all_batch.extend(batch_slow);
    }

    w!(out);
    let ls_summary = DistributionSummary::from_samples(&all_ls);
    let batch_summary = DistributionSummary::from_samples(&all_batch);
    w!(out, "{}", format_distribution_row("ALL latency-sensitive", &ls_summary));
    w!(out, "{}", format_distribution_row("ALL batch", &batch_summary));
    w!(out);
    w!(out, "Paper: latency-sensitive 14% average / 28% max; batch 24% average / 46% max.");
    out
}

/// Figure 4: slowdown of Web Search and of each batch co-runner when exactly
/// one core resource is shared between the SMT threads.
pub fn figure04(engine: &Engine) -> String {
    let ls = "web-search";

    let mut table = TableWriter::new(
        "Figure 4: per-resource sharing slowdown for Web Search colocations",
        &[
            "batch co-runner",
            "WS|ROB",
            "WS|L1-I",
            "WS|L1-D",
            "WS|BTB+BP",
            "batch|ROB",
            "batch|L1-I",
            "batch|L1-D",
            "batch|BTB+BP",
        ],
    );

    // Flatten (batch, resource) so every cell runs in the shared pool; the
    // engine dedupes any cell another figure already computed.
    let cells: Vec<(String, StudiedResource)> = engine
        .batch_names()
        .iter()
        .flat_map(|b| StudiedResource::ALL.iter().map(move |&r| (b.clone(), r)))
        .collect();
    let outcomes = parallel_map(cells, engine.cfg().workers(), |(batch, resource)| {
        engine.pair(resource, ls, batch)
    });
    let ws_reference = engine.standalone(ls).uipc;

    let mut rob_losses = Vec::new();
    let n_resources = StudiedResource::ALL.len();
    for (i, batch) in engine.batch_names().iter().enumerate() {
        let batch_reference = engine.standalone(batch).uipc;
        let row_outcomes = &outcomes[i * n_resources..(i + 1) * n_resources];
        let ls_cells: Vec<f64> =
            row_outcomes.iter().map(|o| 1.0 - o.ls_uipc / ws_reference).collect();
        let batch_cells: Vec<f64> =
            row_outcomes.iter().map(|o| 1.0 - o.batch_uipc / batch_reference).collect();
        rob_losses.push(batch_cells[0]);
        let mut row = vec![batch.clone()];
        row.extend(ls_cells.iter().map(|v| format!("{:.1}%", v * 100.0)));
        row.extend(batch_cells.iter().map(|v| format!("{:.1}%", v * 100.0)));
        table.row(&row);
    }
    let mut out = table.render();

    let over_15 = rob_losses.iter().filter(|&&v| v > 0.15).count();
    let max = rob_losses.iter().cloned().fold(f64::MIN, f64::max);
    w!(out);
    w!(
        out,
        "Batch co-runners losing more than 15% in the shared ROB: {over_15} of {} (paper: 15 of 29); \
         worst case {:.1}% (paper: 31%).",
        rob_losses.len(),
        max * 100.0
    );
    out
}

/// Figure 5: average slowdown caused by sharing each core resource, for all
/// latency-sensitive services and their batch co-runners.
pub fn figure05(engine: &Engine) -> String {
    let reference = engine.standalone_reference();

    let mut table = TableWriter::new(
        "Figure 5: average slowdown from sharing one resource (LS thread | batch co-runners)",
        &["latency-sensitive", "side", "ROB", "L1-I", "L1-D", "BTB+BP"],
    );

    // Flatten (ls, resource, batch) into one pool-wide cell list.
    let cells: Vec<(String, StudiedResource, String)> = engine
        .ls_names()
        .iter()
        .flat_map(|ls| {
            StudiedResource::ALL.iter().flat_map(move |&r| {
                engine.batch_names().iter().map(move |b| (ls.clone(), r, b.clone()))
            })
        })
        .collect();
    let outcomes = parallel_map(cells.clone(), engine.cfg().workers(), |(ls, resource, batch)| {
        engine.pair(resource, ls, batch)
    });

    let n_batch = engine.batch_names().len() as f64;
    for ls in engine.ls_names() {
        let mut ls_row = vec![ls.clone(), "LS".to_string()];
        let mut batch_row = vec![ls.clone(), "batch".to_string()];
        for resource in StudiedResource::ALL {
            // Cell order is fixed by the `cells` list, so det_sum pins the
            // reduction tree regardless of which worker finished first.
            let mut ls_slow = Vec::new();
            let mut batch_slow = Vec::new();
            for ((cell_ls, cell_resource, cell_batch), outcome) in cells.iter().zip(&outcomes) {
                if cell_ls == ls && *cell_resource == resource {
                    ls_slow.push(1.0 - outcome.ls_uipc / reference[cell_ls]);
                    batch_slow.push(1.0 - outcome.batch_uipc / reference[cell_batch]);
                }
            }
            let ls_sum = det_sum(&ls_slow);
            let batch_sum = det_sum(&batch_slow);
            ls_row.push(format!("{:.1}%", ls_sum / n_batch * 100.0));
            batch_row.push(format!("{:.1}%", batch_sum / n_batch * 100.0));
        }
        table.row(&ls_row);
        table.row(&batch_row);
    }
    let mut out = table.render();
    w!(out);
    w!(out, "Paper: the ROB is the consistent source of batch degradation (19% avg, 31% max);");
    w!(out, "no single resource dominates latency-sensitive slowdown except lbm's L1-D pressure.");
    out
}

/// Figure 6: sensitivity to ROB capacity, normalised to the 192-entry point.
pub fn figure06(engine: &Engine) -> String {
    let rob_sizes: Vec<usize> = vec![16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192];
    let last = rob_sizes.len() - 1;

    // De-duplicate across the whole list (zeusmp is plotted explicitly AND
    // is one of the batch names; `Vec::dedup` would miss the non-adjacent
    // repeat and double-count it in the batch average).
    let mut series: Vec<String> = engine.ls_names().to_vec();
    series.push("zeusmp".to_string());
    for name in engine.batch_names() {
        if !series.contains(name) {
            series.push(name.clone());
        }
    }

    // Flatten (series, rob) into the shared pool; the 192-entry endpoint is
    // the same cell as the stand-alone reference run.
    let cells: Vec<(String, usize)> = series
        .iter()
        .flat_map(|name| rob_sizes.iter().map(move |&rob| (name.clone(), rob)))
        .collect();
    let uipcs = parallel_map(cells, engine.cfg().workers(), |(name, rob)| {
        engine.standalone_with_rob(name, *rob).uipc
    });
    let curves: Vec<(String, Vec<f64>)> = series
        .iter()
        .enumerate()
        .map(|(i, name)| {
            (name.clone(), uipcs[i * rob_sizes.len()..(i + 1) * rob_sizes.len()].to_vec())
        })
        .collect();

    let batch_set: Vec<&(String, Vec<f64>)> =
        curves.iter().filter(|(n, _)| engine.batch_names().contains(n)).collect();
    let batch_avg: Vec<f64> = (0..rob_sizes.len())
        .map(|i| batch_set.iter().map(|(_, c)| c[i]).sum::<f64>() / batch_set.len() as f64)
        .collect();

    let mut header: Vec<String> = vec!["ROB entries".to_string()];
    header.extend(engine.ls_names().iter().cloned());
    header.push("batch (avg)".to_string());
    header.push("zeusmp".to_string());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TableWriter::new(
        "Figure 6: slowdown vs ROB size (normalised to 192 entries; higher = worse)",
        &header_refs,
    );
    let lookup = |name: &str| -> &Vec<f64> {
        &curves.iter().find(|(n, _)| n == name).expect("series present").1
    };
    for (i, rob) in rob_sizes.iter().enumerate() {
        let mut row = vec![rob.to_string()];
        for name in engine.ls_names() {
            let c = lookup(name);
            row.push(format!("{:.1}%", (1.0 - c[i] / c[last]) * 100.0));
        }
        row.push(format!("{:.1}%", (1.0 - batch_avg[i] / batch_avg[last]) * 100.0));
        let z = lookup("zeusmp");
        row.push(format!("{:.1}%", (1.0 - z[i] / z[last]) * 100.0));
        table.row(&row);
    }
    let mut out = table.render();

    // The headline numbers quoted in §III-C.
    let idx_96 = rob_sizes.iter().position(|&r| r == 96).expect("96 in sweep");
    let idx_48 = rob_sizes.iter().position(|&r| r == 48).expect("48 in sweep");
    let batch_loss_96 = 1.0 - batch_avg[idx_96] / batch_avg[last];
    let batch_worst_96 =
        batch_set.iter().map(|(_, c)| 1.0 - c[idx_96] / c[last]).fold(f64::MIN, f64::max);
    let ls_loss_48: Vec<f64> = engine
        .ls_names()
        .iter()
        .map(|n| {
            let c = lookup(n);
            1.0 - c[idx_48] / c[last]
        })
        .collect();
    w!(out);
    w!(
        out,
        "Batch loss at 96 entries: {:.1}% average, {:.1}% worst case (paper: 19% / 31%)",
        batch_loss_96 * 100.0,
        batch_worst_96 * 100.0
    );
    w!(
        out,
        "Latency-sensitive loss at 48 entries: {:.1}%..{:.1}% (paper: within 23%)",
        ls_loss_48.iter().cloned().fold(f64::MAX, f64::min) * 100.0,
        ls_loss_48.iter().cloned().fold(f64::MIN, f64::max) * 100.0
    );
    out
}

/// Figure 7: memory-level parallelism of Web Search versus zeusmp.
pub fn figure07(engine: &Engine) -> String {
    let ws = engine.standalone("web-search");
    let zeusmp = engine.standalone("zeusmp");

    let mut table = TableWriter::new(
        "Figure 7: fraction of time with >= N memory requests in flight",
        &["N (in-flight requests)", "web-search", "zeusmp"],
    );
    for n in 1..=5usize {
        table.row(&[
            format!(">={n}"),
            format!("{:.1}%", ws.mlp.fraction_at_least(n) * 100.0),
            format!("{:.1}%", zeusmp.mlp.fraction_at_least(n) * 100.0),
        ]);
    }
    let mut out = table.render();

    w!(out);
    w!(
        out,
        "Web Search exhibits MLP (>=2 in flight) {:.0}% of the time vs {:.0}% for zeusmp \
         (paper: 9% vs 55%); >=3 in flight: {:.0}% vs {:.0}% (paper: 3% vs 21%).",
        ws.mlp.fraction_at_least(2) * 100.0,
        zeusmp.mlp.fraction_at_least(2) * 100.0,
        ws.mlp.fraction_at_least(3) * 100.0,
        zeusmp.mlp.fraction_at_least(3) * 100.0
    );
    out
}

fn speedups(base: &[PairOutcome], other: &[PairOutcome]) -> (Vec<f64>, Vec<f64>) {
    let mut ls = Vec::new();
    let mut batch = Vec::new();
    for (b, o) in base.iter().zip(other) {
        assert_eq!((&b.ls, &b.batch), (&o.ls, &o.batch), "matrices must be aligned");
        ls.push(o.ls_uipc / b.ls_uipc - 1.0);
        batch.push(o.batch_uipc / b.batch_uipc - 1.0);
    }
    (ls, batch)
}

/// Figure 9: performance change under the Stretch B-mode and Q-mode skews,
/// relative to the baseline equal ROB partitioning.
pub fn figure09(engine: &Engine) -> String {
    let mut out = String::new();
    w!(out, "Figure 9: speedup over the equally partitioned baseline");
    w!(out);
    let baseline = engine.matrix(&EqualPartition);

    let report_skew = |out: &mut String, mode: StretchMode| {
        let result = engine.matrix(&PinnedStretch::new(mode));
        let (ls, batch) = speedups(&baseline, &result);
        w!(
            out,
            "{}",
            format_distribution_row(
                &format!("{mode} (LS)"),
                &DistributionSummary::from_samples(&ls)
            )
        );
        w!(
            out,
            "{}",
            format_distribution_row(
                &format!("{mode} (batch)"),
                &DistributionSummary::from_samples(&batch)
            )
        );
    };

    w!(out, "B-modes (ROB skew LS-batch):");
    for skew in RobSkew::b_mode_sweep() {
        report_skew(&mut out, StretchMode::BatchBoost(skew));
    }
    w!(out);
    w!(out, "Q-modes (ROB skew LS-batch):");
    for skew in RobSkew::q_mode_sweep() {
        report_skew(&mut out, StretchMode::QosBoost(skew));
    }
    w!(out);
    w!(out, "Paper headline: B-mode 56-136 gives batch +13% avg (+30% max) at a 7% avg LS cost;");
    w!(out, "B-mode 32-160 gives +18% avg (+40% max); Q-mode 136-56 gives LS +7% avg (+18% max)");
    w!(out, "while costing batch 21% avg.");
    out
}

/// Figure 10: per-benchmark speedup of batch applications under B-mode
/// 56-136, for each latency-sensitive co-runner, sorted as in the paper.
pub fn figure10(engine: &Engine) -> String {
    let baseline = engine.matrix(&EqualPartition);
    let b_mode =
        engine.matrix(&PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode())));

    let mut out = String::new();
    w!(out, "Figure 10: batch speedup from B-mode 56-136 over the equal-partition baseline");
    w!(out, "(per latency-sensitive co-runner, sorted from largest to smallest)");
    w!(out);

    for ls in engine.ls_names() {
        let mut speedups: Vec<(String, f64)> = baseline
            .iter()
            .zip(&b_mode)
            .filter(|(b, _)| &b.ls == ls)
            .map(|(b, s)| (b.batch.clone(), s.batch_uipc / b.batch_uipc - 1.0))
            .collect();
        speedups.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN speedups"));
        let mut table = TableWriter::new(
            &format!("batch speedups when colocated with {ls}"),
            &["rank", "benchmark", "speedup"],
        );
        for (i, (name, s)) in speedups.iter().enumerate() {
            table.row(&[format!("{}", i + 1), name.clone(), format!("{:+.1}%", s * 100.0)]);
        }
        let _ = write!(out, "{}", table.render());
        let over_15 = speedups.iter().filter(|(_, s)| *s > 0.15).count();
        let over_10 = speedups.iter().filter(|(_, s)| *s > 0.10).count();
        w!(
            out,
            "  -> {over_15} benchmarks gain more than 15%, {over_10} more than 10% \
             (paper: at least 10 over 15%, 12 over 10%)"
        );
        w!(out);
    }
    out
}

/// Figure 11: slowdown of batch applications under a dynamically shared ROB,
/// relative to equal static partitioning.
pub fn figure11(engine: &Engine) -> String {
    let baseline = engine.matrix(&EqualPartition);
    let dynamic = engine.matrix(&DynamicSharing);

    let mut out = String::new();
    w!(out, "Figure 11: batch slowdown under dynamic ROB sharing vs equal partitioning");
    w!(out, "(positive = dynamic sharing is worse for the batch thread)");
    w!(out);

    let mut all_batch = Vec::new();
    let mut all_ls = Vec::new();
    for ls in engine.ls_names() {
        let batch_slow: Vec<f64> = baseline
            .iter()
            .zip(&dynamic)
            .filter(|(b, _)| &b.ls == ls)
            .map(|(b, d)| 1.0 - d.batch_uipc / b.batch_uipc)
            .collect();
        let ls_speed: Vec<f64> = baseline
            .iter()
            .zip(&dynamic)
            .filter(|(b, _)| &b.ls == ls)
            .map(|(b, d)| d.ls_uipc / b.ls_uipc - 1.0)
            .collect();
        w!(
            out,
            "{}",
            format_distribution_row(
                &format!("{ls} co-runners"),
                &DistributionSummary::from_samples(&batch_slow)
            )
        );
        all_batch.extend(batch_slow);
        all_ls.extend(ls_speed);
    }
    w!(out);
    w!(
        out,
        "{}",
        format_distribution_row(
            "ALL batch slowdown",
            &DistributionSummary::from_samples(&all_batch)
        )
    );
    w!(
        out,
        "{}",
        format_distribution_row(
            "ALL latency-sensitive speedup",
            &DistributionSummary::from_samples(&all_ls)
        )
    );
    w!(out);
    w!(out, "Paper: batch loses 8% on average (49% max) under dynamic sharing, while");
    w!(out, "latency-sensitive workloads gain ~4% (11% max); Data Serving co-runners suffer most.");
    out
}

fn per_ls_average(baseline: &[PairOutcome], other: &[PairOutcome], ls: &str) -> (f64, f64) {
    let pairs: Vec<(&PairOutcome, &PairOutcome)> =
        baseline.iter().zip(other).filter(|(b, _)| b.ls == ls).collect();
    let n = pairs.len() as f64;
    let ls_slow = pairs.iter().map(|(b, o)| 1.0 - o.ls_uipc / b.ls_uipc).sum::<f64>() / n;
    let batch_speed = pairs.iter().map(|(b, o)| o.batch_uipc / b.batch_uipc - 1.0).sum::<f64>() / n;
    (ls_slow, batch_speed)
}

/// Figure 12: fetch throttling (1:2 to 1:16) versus Stretch B-mode 56-136,
/// both relative to the equally partitioned baseline.
pub fn figure12(engine: &Engine) -> String {
    let baseline = engine.matrix(&EqualPartition);

    let mut configs: Vec<(String, Vec<PairOutcome>)> = Vec::new();
    for ratio in FETCH_THROTTLING_RATIOS {
        let matrix = engine.matrix(&FetchThrottling::new(ratio));
        configs.push((format!("FT 1:{ratio}"), matrix));
    }
    configs.push((
        "Stretch 56-136".to_string(),
        engine.matrix(&PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode()))),
    ));
    // Not a paper configuration: the hybrid fetch-throttle + ROB-skew policy,
    // included to show what combining the two knobs buys (and that adding a
    // policy to the study is a one-line change here).
    configs.push((
        "Hybrid 1:2+56-136 (extra)".to_string(),
        engine.matrix(&HybridThrottleSkew::recommended()),
    ));

    let mut header: Vec<String> = vec!["configuration".to_string()];
    header.extend(engine.ls_names().iter().cloned());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut slow_table = TableWriter::new(
        "Figure 12 (top): average slowdown of the latency-sensitive thread (lower is better)",
        &header_refs,
    );
    let mut speed_table = TableWriter::new(
        "Figure 12 (bottom): average speedup of the batch thread (higher is better)",
        &header_refs,
    );
    for (name, matrix) in &configs {
        let mut slow_row = vec![name.clone()];
        let mut speed_row = vec![name.clone()];
        for ls in engine.ls_names() {
            let (ls_slow, batch_speed) = per_ls_average(&baseline, matrix, ls);
            slow_row.push(format!("{:.1}%", ls_slow * 100.0));
            speed_row.push(format!("{:+.1}%", batch_speed * 100.0));
        }
        slow_table.row(&slow_row);
        speed_table.row(&speed_row);
    }
    let mut out = slow_table.render();
    w!(out);
    let _ = write!(out, "{}", speed_table.render());
    w!(out);
    w!(out, "Paper: fetch throttling 1:8/1:16 costs latency-sensitive threads 48%/68% while");
    w!(out, "buying batch only 4%/6%; Stretch delivers +13% batch for a 7% LS cost.");
    out
}

fn average_batch_speedup(baseline: &[PairOutcome], other: &[PairOutcome], ls: &str) -> f64 {
    let pairs: Vec<(&PairOutcome, &PairOutcome)> =
        baseline.iter().zip(other).filter(|(b, _)| b.ls == ls).collect();
    pairs.iter().map(|(b, o)| o.batch_uipc / b.batch_uipc - 1.0).sum::<f64>() / pairs.len() as f64
}

/// Figure 13: ideal software scheduling versus Stretch versus both combined.
pub fn figure13(engine: &Engine) -> String {
    let skew = RobSkew::recommended_b_mode();

    let baseline = engine.matrix(&EqualPartition);
    let ideal = engine.matrix(&IdealScheduling::new());
    let stretch_only = engine.matrix(&PinnedStretch::new(StretchMode::BatchBoost(skew)));
    let combined =
        engine.matrix(&IdealScheduling::with_stretch(skew.ls_entries, skew.batch_entries));

    let mut table = TableWriter::new(
        "Figure 13: average batch speedup over the baseline core",
        &[
            "latency-sensitive",
            "ideal software scheduling",
            "Stretch",
            "Stretch + ideal scheduling",
        ],
    );
    let mut sums = [0.0f64; 3];
    for ls in engine.ls_names() {
        let a = average_batch_speedup(&baseline, &ideal, ls);
        let b = average_batch_speedup(&baseline, &stretch_only, ls);
        let c = average_batch_speedup(&baseline, &combined, ls);
        sums[0] += a;
        sums[1] += b;
        sums[2] += c;
        table.row(&[
            ls.clone(),
            format!("{:+.1}%", a * 100.0),
            format!("{:+.1}%", b * 100.0),
            format!("{:+.1}%", c * 100.0),
        ]);
    }
    let n = engine.ls_names().len() as f64;
    table.row(&[
        "Average".to_string(),
        format!("{:+.1}%", sums[0] / n * 100.0),
        format!("{:+.1}%", sums[1] / n * 100.0),
        format!("{:+.1}%", sums[2] / n * 100.0),
    ]);
    let mut out = table.render();
    w!(out);
    w!(out, "Paper: ideal software scheduling +8%, Stretch +13%, combined +21% — the two");
    w!(out, "techniques address different sources of loss and compose additively.");
    out
}

/// Figure 14 and the §VI-D case studies: diurnal load patterns and the
/// resulting 24-hour cluster throughput gains.
pub fn figure14(_engine: &Engine) -> String {
    let mut table = TableWriter::new(
        "Figure 14: diurnal load (fraction of peak) and B-mode engagement (<85% of peak)",
        &["hour", "web-search load", "B-mode", "youtube load", "B-mode"],
    );
    for hour in 0..24 {
        let ws = DiurnalPattern::WebSearch.load_at(hour as f64);
        let yt = DiurnalPattern::YouTube.load_at(hour as f64);
        table.row(&[
            format!("{hour:02}:00"),
            format!("{:.0}%", ws * 100.0),
            if ws < 0.85 { "engaged".into() } else { "-".to_string() },
            format!("{:.0}%", yt * 100.0),
            if yt < 0.85 { "engaged".into() } else { "-".to_string() },
        ]);
    }
    let mut out = table.render();
    w!(out);

    let mut summary = TableWriter::new(
        "Cluster case studies (B-mode 56-136 engaged below 85% of peak load)",
        &["cluster", "hours engaged / day", "24-hour batch throughput gain", "paper"],
    );
    let ws = CaseStudy::web_search().run();
    let yt = CaseStudy::youtube().run();
    summary.row(&[
        "Web Search".to_string(),
        format!("{:.1} h", ws.hours_engaged),
        format!("{:+.1}%", ws.gain() * 100.0),
        "~11 h, +5%".to_string(),
    ]);
    summary.row(&[
        "YouTube".to_string(),
        format!("{:.1} h", yt.hours_engaged),
        format!("{:+.1}%", yt.gain() * 100.0),
        "~17 h, +11%".to_string(),
    ]);
    let _ = write!(out, "{}", summary.render());
    out
}

/// Figure 14 (measured): the §VI-D cluster case studies re-done as a
/// load-balanced fleet simulation — B-mode engagement decided by each
/// server's own measured tail latency through the closed-loop Stretch
/// monitor, not by a load threshold applied by fiat — plus a dispatcher
/// comparison. The analytical accounting of `figure14` is printed alongside
/// as the cross-check; the two land within two percentage points.
pub fn figure14_measured(engine: &Engine) -> String {
    let scale =
        if engine.cfg().is_quick() { FleetScale::quick(42) } else { FleetScale::standard(42) };
    let studies = [("Web Search", CaseStudy::web_search()), ("YouTube", CaseStudy::youtube())];
    let default_balancer = LoadBalancer::LeastLoaded;

    // One job per distinct fleet cell: both clusters under the default
    // dispatcher, plus the full balancer sweep for the Web Search cluster.
    // All cells run through the engine's pool and result cache; the shared
    // (Web Search, least-loaded) cell is computed once.
    let mut jobs: Vec<(CaseStudy, LoadBalancer)> =
        studies.iter().map(|(_, study)| (*study, default_balancer)).collect();
    for balancer in LoadBalancer::ALL {
        if balancer != default_balancer {
            jobs.push((studies[0].1, balancer));
        }
    }
    let reports = parallel_map(jobs.clone(), engine.cfg().workers(), |(study, balancer)| {
        engine.fleet_study(study, *balancer, scale)
    });
    // Look cells up by (study, balancer) rather than by position, so the
    // job-construction order above can change without mislabelling rows.
    let report_for = |study: &CaseStudy, balancer: LoadBalancer| -> &cluster_sim::FleetReport {
        jobs.iter()
            .zip(&reports)
            .find(|((s, b), _)| s == study && *b == balancer)
            .map(|(_, report)| report)
            .expect("fleet cell was scheduled")
    };

    let mut table = TableWriter::new(
        &format!(
            "Figure 14 (measured): {} servers, {} requests/server-interval, {} dispatch",
            scale.servers, scale.requests_per_server, default_balancer
        ),
        &[
            "cluster",
            "hours engaged",
            "analytical",
            "24-hour gain",
            "analytical",
            "paper",
            "fleet p99",
            "QoS violations",
        ],
    );
    for (name, study) in &studies {
        let measured = report_for(study, default_balancer);
        let analytical = study.run();
        table.row(&[
            (*name).to_string(),
            format!("{:.1} h", measured.hours_engaged),
            format!("{:.1} h", analytical.hours_engaged),
            format!("{:+.1}%", measured.gain() * 100.0),
            format!("{:+.1}%", analytical.gain() * 100.0),
            if *name == "Web Search" { "+5%" } else { "+11%" }.to_string(),
            format!("{:.0} ms", measured.p99_ms),
            format!("{:.1}%", measured.violation_fraction * 100.0),
        ]);
    }
    let mut out = table.render();
    w!(out);

    let mut balancers = TableWriter::new(
        "Dispatcher comparison (Web Search cluster)",
        &["balancer", "hours engaged", "24-hour gain", "fleet p50", "fleet p99", "QoS violations"],
    );
    for balancer in LoadBalancer::ALL {
        let report = report_for(&studies[0].1, balancer);
        balancers.row(&[
            balancer.to_string(),
            format!("{:.1} h", report.hours_engaged),
            format!("{:+.1}%", report.gain() * 100.0),
            format!("{:.0} ms", report.p50_ms),
            format!("{:.0} ms", report.p99_ms),
            format!("{:.1}%", report.violation_fraction * 100.0),
        ]);
    }
    let _ = write!(out, "{}", balancers.render());
    w!(out);
    w!(out, "Engagement is decided per server by its own measured tail latency (thresholds");
    w!(out, "calibrated on the fleet at the paper's 85%-of-peak rule); the analytical columns");
    w!(out, "apply the load threshold directly. Queue-aware dispatchers cut the fleet tail");
    w!(out, "and QoS violations relative to round-robin at the same offered load.");
    out
}

/// Figure 15 (extension): the two policy layers composed on one server.
/// A 2-core SMT4 machine is offered the paper's "1 LS + 3 batch" population;
/// every [`AllocationPolicy`] (which thread lands on which core) is crossed
/// with every core-level partitioning (baseline equal shares vs Stretch
/// B-mode), and each whole-server run is one cached engine cell.
pub fn figure15_allocation(engine: &Engine) -> String {
    let spec = ServerSpec::new(2, 4);
    let batch_pool = engine.batch_names();
    // Three batch co-runners drawn from the engine's batch list, cycling so
    // the figure also renders under a reduced --matrix sub-study.
    let batches: Vec<String> = (0..3).map(|i| batch_pool[i % batch_pool.len()].clone()).collect();
    let allocations: [(&str, &dyn AllocationPolicy); 3] =
        [("greedy", &Greedy), ("round-robin", &RoundRobin), ("symbiosis-aware", &SymbiosisAware)];
    let b_mode = PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode()));
    let colocations: [(&str, &dyn ColocationPolicy); 2] =
        [("baseline equal", &EqualPartition), ("Stretch B-mode", &b_mode)];

    let jobs: Vec<(String, usize, usize)> = engine
        .ls_names()
        .iter()
        .flat_map(|ls| {
            (0..allocations.len()).flat_map(move |a| {
                let ls = ls.clone();
                (0..colocations.len()).map(move |c| (ls.clone(), a, c))
            })
        })
        .collect();
    let outcomes = parallel_map(jobs.clone(), engine.cfg().workers(), |(ls, a, c)| {
        engine.server(spec, allocations[*a].1, colocations[*c].1, ls, &batches)
    });

    let placement_label = |outcome: &ServerOutcome| -> String {
        outcome
            .cores
            .iter()
            .map(|core| {
                if core.is_empty() {
                    "-".to_string()
                } else {
                    core.iter()
                        .map(|&t| if t == 0 { "LS".to_string() } else { format!("B{t}") })
                        .collect::<Vec<_>>()
                        .join("+")
                }
            })
            .collect::<Vec<_>>()
            .join(" | ")
    };

    let mut table = TableWriter::new(
        &format!(
            "Figure 15: allocation x partitioning on {} cores x SMT{} (1 LS + {} batch)",
            spec.cores,
            spec.threads_per_core,
            batches.len()
        ),
        &["LS service", "allocation", "partitioning", "placement", "LS retained", "batch thrpt"],
    );
    for ((ls, a, c), outcome) in jobs.iter().zip(&outcomes) {
        let standalone = engine.standalone(ls).uipc;
        table.row(&[
            ls.clone(),
            allocations[*a].0.to_string(),
            colocations[*c].0.to_string(),
            placement_label(outcome),
            format!("{:.1}%", outcome.ls_uipc() / standalone * 100.0),
            format!("{:.3} uIPC", outcome.batch_throughput()),
        ]);
    }
    let mut out = table.render();
    w!(out);
    w!(out, "Greedy spreads the service onto its own core and packs the batch jobs together;");
    w!(out, "round-robin deals threads across cores so the service always shares; the");
    w!(out, "symbiosis-aware allocator pairs the fastest and slowest batch jobs with the");
    w!(out, "service. The partitioning column then chooses how each occupied core splits its");
    w!(out, "ROB/LSQ between its resident threads (static shares: an isolated service still");
    w!(out, "holds only its partition). Each row is one whole-server engine cell, keyed by");
    w!(out, "allocation identity, partitioning identity and the chosen placement.");
    out
}

/// Tables I, II and III: workload specifications and simulated processor
/// parameters. With `as_json` the tables are emitted as JSON documents for
/// plotting scripts instead of fixed-width text.
pub fn tables(_engine: &Engine, as_json: bool) -> String {
    use workloads::{batch, latency_sensitive};

    let mut out = String::new();
    let emit = |out: &mut String, table: &TableWriter| {
        if as_json {
            w!(out, "{}", json::render(table));
        } else {
            let _ = write!(out, "{}", table.render());
        }
    };

    // Table I: latency-sensitive workloads and their QoS targets.
    let mut t1 = TableWriter::new(
        "Table I: latency-sensitive workloads and QoS targets",
        &["workload", "QoS target", "tail metric", "service median (ms)", "CPU fraction"],
    );
    for s in ServiceSpec::all() {
        t1.row(&[
            s.name.clone(),
            format!("{} ms", s.qos_target_ms),
            format!("{:?}", s.tail_metric),
            format!("{}", s.service_median_ms),
            format!("{:.0}%", s.cpu_fraction * 100.0),
        ]);
    }
    emit(&mut out, &t1);
    w!(out);

    // Table II: simulated processor parameters.
    let cfg = CoreConfig::default();
    let mut t2 =
        TableWriter::new("Table II: simulated processor parameters", &["parameter", "value"]);
    t2.row(&[
        "Fetch width".into(),
        format!(
            "{} instructions, up to {} blocks, {} branch",
            cfg.fetch_width, cfg.fetch_blocks_per_cycle, cfg.fetch_branches_per_cycle
        ),
    ]);
    t2.row(&[
        "L1-I".into(),
        format!(
            "{} KB, {}-way, {} banks",
            cfg.l1i.capacity_bytes / 1024,
            cfg.l1i.ways,
            cfg.l1i.banks
        ),
    ]);
    t2.row(&[
        "Branch predictor".into(),
        format!(
            "hybrid ({}K gShare + {}K bimodal), {}-entry BTB",
            cfg.branch.gshare_entries / 1024,
            cfg.branch.bimodal_entries / 1024,
            cfg.branch.btb_entries
        ),
    ]);
    t2.row(&["Pipeline flush".into(), format!("{} cycles", cfg.pipeline_flush_cycles)]);
    t2.row(&[
        "ROB".into(),
        format!("{} entries total, {} per thread", cfg.rob_capacity, cfg.rob_capacity / 2),
    ]);
    t2.row(&[
        "LSQ".into(),
        format!("{} entries total, {} per thread", cfg.lsq_capacity, cfg.lsq_capacity / 2),
    ]);
    t2.row(&[
        "L1-D".into(),
        format!(
            "{} KB, {}-way, {} MSHRs per thread, stride prefetcher ({} PCs)",
            cfg.l1d.capacity_bytes / 1024,
            cfg.l1d.ways,
            cfg.mshrs_per_thread,
            cfg.prefetcher_pc_slots
        ),
    ]);
    t2.row(&[
        "Functional units".into(),
        format!(
            "{} int ALU + {} mul, {} FPU, {} LSU",
            cfg.fus.int_alu, cfg.fus.int_mul, cfg.fus.fpu, cfg.fus.lsu
        ),
    ]);
    t2.row(&[
        "Dispatch/commit width".into(),
        format!("{} / {}", cfg.dispatch_width, cfg.commit_width),
    ]);
    t2.row(&[
        "LLC".into(),
        format!(
            "{} MB, {}-way, {}-cycle average access",
            cfg.uncore.llc_capacity_bytes / (1024 * 1024),
            cfg.uncore.llc_ways,
            cfg.uncore.llc_latency
        ),
    ]);
    t2.row(&[
        "Memory".into(),
        format!(
            "{} ns ({} cycles at {} GHz)",
            cfg.uncore.mem_latency_ns,
            cfg.uncore.mem_latency_cycles(),
            cfg.uncore.freq_ghz
        ),
    ]);
    emit(&mut out, &t2);
    w!(out);

    // Table III: workload profiles used for the microarchitectural studies.
    let mut t3 = TableWriter::new(
        "Table III: workload profiles (synthetic substitutes)",
        &[
            "workload",
            "class",
            "code footprint",
            "data footprint",
            "dependent loads",
            "stride frac",
        ],
    );
    for p in latency_sensitive::all_profiles().into_iter().chain(batch::all_profiles()) {
        t3.row(&[
            p.name.clone(),
            format!("{}", p.class),
            format!("{} KB", p.code_footprint_bytes / 1024),
            format!("{} MB", p.data_footprint_bytes / (1024 * 1024)),
            format!("{:.0}%", p.dependent_load_frac * 100.0),
            format!("{:.0}%", p.stride_frac * 100.0),
        ]);
    }
    emit(&mut out, &t3);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExperimentConfig;

    #[test]
    fn registry_covers_every_binary() {
        let names: Vec<&str> = all().iter().map(|f| f.name).collect();
        assert_eq!(names.len(), 16);
        for expected in [
            "figure01",
            "figure02",
            "figure03",
            "figure04",
            "figure05",
            "figure06",
            "figure07",
            "figure09",
            "figure10",
            "figure11",
            "figure12",
            "figure13",
            "figure14",
            "figure14_measured",
            "figure15_allocation",
            "tables",
        ] {
            assert!(names.contains(&expected), "{expected} missing from registry");
        }
        assert!(by_name("figure03").is_some());
        assert!(by_name("figure08").is_none(), "the paper has no figure 8 evaluation plot");
    }

    #[test]
    fn figure14_and_tables_render_without_simulating() {
        let engine = Engine::new(ExperimentConfig::quick());
        let fig14 = figure14(&engine);
        assert!(fig14.contains("Figure 14"));
        assert!(fig14.contains("Web Search"));
        let t = tables(&engine, false);
        assert!(t.contains("Table I"));
        assert!(t.contains("Table II"));
        assert!(t.contains("Table III"));
        let tj = tables(&engine, true);
        assert!(tj.contains("\"title\""));
        assert_eq!(engine.sim_runs(), 0, "static figures must not simulate");
    }
}
