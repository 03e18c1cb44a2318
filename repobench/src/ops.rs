//! The three workloads, each one timed operation over the public API.
//!
//! * `figures-quick` — every figure rendered cold through
//!   `figures::render_many` on the quick 1x2 sub-matrix, with a fresh
//!   result store in an empty directory;
//! * `fleet-datacenter` — the 10k-server racked web-search day, sharded;
//! * `fleet-study` — both §VI-D studies as flat least-loaded fleets at
//!   standard scale, each day run single-threaded.

use std::path::Path;
use std::time::Instant;

use cluster_sim::{
    CaseStudy, FleetReport, FleetScale, FleetTopology, LoadBalancer, TailAccumulation,
};
use stretch_bench::figures::{self, FigureSpec};
use stretch_bench::{Engine, ExperimentConfig};

use crate::check::{fleet_digest, text_digest};
use crate::span::Tracer;

/// The workload names, in the order the documentation lists them.
pub const WORKLOADS: [&str; 3] = ["figures-quick", "fleet-datacenter", "fleet-study"];

/// Delay site wrapped around every flat-fleet calibration call
/// (`CaseStudy::fleet` here, `measured_peak_rps` in the traced profile).
pub const SITE_FLAT_PEAK: &str = "peak_bisect.flat";
/// Delay site wrapped around the racked-fleet calibration call.
pub const SITE_RACKED_PEAK: &str = "peak_bisect.racked";

/// What one operation measured and produced.
pub struct OpSample {
    /// The whole operation, set-up included.
    pub wall_s: f64,
    /// Host time before the first simulated cycle or request.
    pub setup_s: f64,
    /// Host time of the simulated days (0 for `figures-quick`).
    pub day_s: f64,
    /// Simulated fleet requests.
    pub requests: u64,
    /// `(operation, output digest)` for each operation.
    pub digests: Vec<(String, u64)>,
    /// Model outputs to print beside the paper's numbers.
    pub notes: Vec<String>,
}

/// Number of checked operations in one run of `workload`.
pub fn ops_per_run(workload: &str) -> u64 {
    match workload {
        "figures-quick" => figures::all().len() as u64,
        "fleet-datacenter" => 1,
        _ => 2,
    }
}

/// The quick experiment configuration at `seed` with `workers` threads.
pub fn quick_config(seed: u64, workers: usize) -> ExperimentConfig {
    ExperimentConfig { seed, parallelism: workers, ..ExperimentConfig::quick() }
}

/// A figures engine on the quick 1x2 sub-matrix with a store in `dir`.
pub fn figures_engine(seed: u64, workers: usize, dir: &Path) -> Engine {
    Engine::new(quick_config(seed, workers))
        .with_sub_matrix(1, 2)
        .with_store(dir)
        .expect("the result store directory is creatable")
}

/// Runs one operation of `workload`. With a tracer, the operation records
/// `op`, `op.setup` and `op.run` spans.
pub fn run_op(
    workload: &str,
    seed: u64,
    workers: usize,
    scratch: &Path,
    mut tracer: Option<&mut Tracer>,
) -> OpSample {
    let root = tracer.as_mut().map(|t| t.open("op"));
    let sample = match workload {
        "figures-quick" => figures_op(seed, workers, scratch, &mut tracer),
        "fleet-datacenter" => datacenter_op(seed, workers, &mut tracer),
        "fleet-study" => study_op(seed, &mut tracer),
        other => panic!("unknown workload {other}"),
    };
    if let (Some(t), Some(id)) = (tracer, root) {
        t.close(id);
    }
    sample
}

/// Times `f` as the phase `name`, inside a span when tracing.
fn phase<R>(tracer: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let id = tracer.as_mut().map(|t| t.open(name));
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
        t.close(id);
    }
    (out, secs)
}

fn figures_op(
    seed: u64,
    workers: usize,
    scratch: &Path,
    tracer: &mut Option<&mut Tracer>,
) -> OpSample {
    let dir = scratch.join("figures-store");
    let _ = std::fs::remove_dir_all(&dir);
    let specs: Vec<&FigureSpec> = figures::all().iter().collect();
    let (engine, setup_s) = phase(tracer, "op.setup", || figures_engine(seed, workers, &dir));
    let (rendered, run_s) =
        phase(tracer, "op.run", || figures::render_many(&engine, &specs, workers));
    let requests = figure_fleet_requests(&engine);
    let _ = std::fs::remove_dir_all(&dir);
    OpSample {
        wall_s: setup_s + run_s,
        setup_s,
        day_s: 0.0,
        requests,
        digests: specs
            .iter()
            .zip(&rendered)
            .map(|(s, r)| (s.name.to_string(), text_digest(r)))
            .collect(),
        notes: vec![
            "figures-quick runs the quick length: 3K warm-up instructions per thread, so the \
             modelled caches start nearly empty and DRAM-wait cycles dominate"
                .to_string(),
        ],
    }
}

/// Simulated requests in the fleet cells `figure14_measured` rendered: both
/// studies under least-loaded dispatch plus the web-search balancer sweep,
/// at quick scale. Read back from the engine's memo after timing; the
/// request must not simulate again.
fn figure_fleet_requests(engine: &Engine) -> u64 {
    let runs = engine.sim_runs();
    let scale = FleetScale::quick(42);
    let mut requests =
        engine.fleet_study(&CaseStudy::youtube(), LoadBalancer::LeastLoaded, scale).requests;
    for balancer in LoadBalancer::ALL {
        requests += engine.fleet_study(&CaseStudy::web_search(), balancer, scale).requests;
    }
    assert_eq!(
        engine.sim_runs(),
        runs,
        "figure14_measured no longer renders the quick fleet cells"
    );
    requests as u64
}

fn gain_note(what: &str, report: &FleetReport, paper: &str) -> String {
    format!(
        "{what}: measured 24-hour batch gain {:+.2}% over {:.1} h engaged (paper: {paper}); \
         the model is unvalidated against hardware, as the repository holds no hardware \
         measurements, so no error figure is given",
        report.gain() * 100.0,
        report.hours_engaged
    )
}

fn datacenter_op(seed: u64, workers: usize, tracer: &mut Option<&mut Tracer>) -> OpSample {
    let (fleet, setup_s) = phase(tracer, "op.setup", || {
        crate::delay_point(SITE_RACKED_PEAK);
        datacenter_fleet(seed)
    });
    let (report, day_s) = phase(tracer, "op.run", || fleet.run_with_workers(workers));
    OpSample {
        wall_s: setup_s + day_s,
        setup_s,
        day_s,
        requests: report.requests as u64,
        digests: vec![("fleet-datacenter".to_string(), fleet_digest(&report))],
        notes: vec![gain_note("fleet-datacenter (web search)", &report, "+5%")],
    }
}

/// The 10k-server racked web-search fleet, calibrated.
pub fn datacenter_fleet(seed: u64) -> cluster_sim::Fleet {
    CaseStudy::web_search().fleet_with(
        LoadBalancer::PowerOfTwoChoices,
        FleetScale::datacenter(seed),
        FleetTopology::racked(125, LoadBalancer::PowerOfTwoChoices),
        TailAccumulation::binned_default(),
        1,
    )
}

/// The two §VI-D studies with their digest names and paper gains.
pub fn studies() -> [(&'static str, CaseStudy, &'static str); 2] {
    [("ws", CaseStudy::web_search(), "+5%"), ("yt", CaseStudy::youtube(), "+11%")]
}

fn study_op(seed: u64, tracer: &mut Option<&mut Tracer>) -> OpSample {
    let mut sample = OpSample {
        wall_s: 0.0,
        setup_s: 0.0,
        day_s: 0.0,
        requests: 0,
        digests: Vec::new(),
        notes: Vec::new(),
    };
    for (tag, study, paper) in studies() {
        let (fleet, setup_s) = phase(tracer, "op.setup", || {
            crate::delay_point(SITE_FLAT_PEAK);
            study.fleet(LoadBalancer::LeastLoaded, FleetScale::standard(seed))
        });
        let (report, day_s) = phase(tracer, "op.run", || fleet.run());
        sample.setup_s += setup_s;
        sample.day_s += day_s;
        sample.requests += report.requests as u64;
        sample.digests.push((format!("fleet-study.{tag}"), fleet_digest(&report)));
        sample.notes.push(gain_note(&format!("fleet-study.{tag}"), &report, paper));
    }
    sample.wall_s = sample.setup_s + sample.day_s;
    sample
}
