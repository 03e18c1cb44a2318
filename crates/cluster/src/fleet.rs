//! A measured, load-balanced datacenter fleet (§VI-D, done by simulation
//! instead of accounting).
//!
//! [`crate::CaseStudy`] reproduces the paper's cluster numbers analytically:
//! a diurnal curve, a load threshold and a hand-fed B-mode speedup. This
//! module *measures* them instead. A [`Fleet`] is N servers — each an SMT
//! core pair whose mode is picked by its own [`stretch::SoftwareMonitor`] —
//! fed by one diurnal-modulated open-loop arrival stream that a pluggable
//! [`LoadBalancer`] spreads across the machines. The servers' queues are
//! one [`sim_qos::ServerQueues`] per shard, the type [`sim_qos::ServerSim`]
//! runs a one-server instance of (FCFS over the service's worker threads,
//! log-normal service times whose CPU-bound part stretches with the
//! engaged mode's delivered performance), and queues persist across control
//! intervals on a continuous clock, so tails near saturation reflect real
//! backlog build-up rather than a freshly reset queue. Each control
//! interval every server computes its own tail latency from its own
//! requests and hands it to its monitor
//! ([`stretch::SoftwareMonitor::observe_tail_latency`]), so B-mode
//! engagement is a *measured* decision with hysteresis, not a load
//! threshold applied by fiat.
//!
//! The engagement thresholds are calibrated against the fleet itself
//! ([`calibrated_monitor_with_peak`]): short pinned-mode runs at the paper's
//! 85%-of-peak engagement load measure the tail-to-target ratio servers
//! actually show there — once under the baseline mode's delivered
//! performance (the engage threshold) and once stretched (the disengage
//! threshold). Calibrating on the fleet rather than on a lone server makes
//! the thresholds account for whatever smoothing the load balancer
//! provides. The analytical [`crate::CaseStudy`] stays available as a
//! cross-check, and `tests/fleet.rs` pins the two within two percentage
//! points of each other.
//!
//! Everything is deterministic: arrivals, balancer choices and every
//! server's service times come from independent [`sim_model::SimRng`]
//! streams forked from the fleet seed ([`server_seed`]), so a fixed-seed
//! fleet run is bit-identical across processes and servers never share a
//! random stream.
//!
//! The peak search ([`measured_peak_rps`]) uses 13 verdicts, each probe on
//! fresh queues from the same probe seed, so it draws that seed's
//! randomness once and replays it at every rate: each interval's arrival
//! draws, drawn up front, and each server's service-time factors, kept as a
//! probe first needs them. [`bisect_peak_rps`] runs its probes two at a
//! time on two lanes of the [`sim_model::parallel_map`] pool, and each lane
//! keeps its own copy of the factors; the threshold calibration's two runs
//! run side by side on the pool too. A probe stops as soon as its pass/fail
//! verdict is settled. One dispatch loop serves the day, the calibration
//! runs and the replayed probes: it is generic over where its requests come
//! from, so no request pays a dynamic call.
//!
//! A [`FleetConfig`] holds what a run varies: size, service, diurnal
//! pattern, racks and balancer, tail retention, days, measurement budget,
//! monitor thresholds, performance table and seed. Everything else is one
//! value for every fleet: the [`INTERVAL_HOURS`] control interval, bursty
//! arrivals, B-mode-only 56-136 provisioning and 2 ms tail bins up to 2 s.
//!
//! # Fleet at scale: sharding, racks, skip-ahead
//!
//! A fleet is a cluster of `racks` racks: the cluster tier splits the
//! offered load evenly across racks (by server count) and the balancer
//! dispatches *within* each rack, so racks never exchange queue state. Each
//! rack is then one shard of [`Fleet::run_with_workers`]: shards simulate
//! concurrently on a [`sim_model::parallel_fold`] pool, each from its own
//! [`rack_seed`]-derived RNG streams, and each finished shard folds into the
//! running report in shard-index order, through the canonical reducers
//! ([`sim_stats::det_merge`]) and bit-exact integer histogram merges — so
//! the report is bit-identical for every worker count, including 1. A flat
//! fleet is one rack: exactly the historical single-shard run (shard 0
//! reuses the fleet seed unchanged). Peak measurement and threshold
//! calibration run on a single rack (the fleet's dispatch unit) rather than
//! the whole cluster, which keeps 10k-server construction cheap.
//!
//! [`TailAccumulation::Binned`] keeps day- and fleet-level tails in
//! fixed-resolution [`sim_stats::LatencyHistogram`] bins instead of
//! raw-sample vectors, so memory does not grow with the request count, and
//! fleet memory is what a run records, not bin range × shards × intervals.
//! A histogram stores counts only over the bins it has recorded (a
//! web-search tail touches about 25 of the 1,001). A shard reduces
//! each server's day tail to its [`ServerSummary`] before it returns, and
//! the running report absorbs the shard and drops it, so at most the
//! shards in flight (about one per worker) hold per-interval tails. The
//! default 10k-server, 125-rack `fleet` run peaks at about 22 MB RSS at
//! `--days 1` and at `--days 3` alike.
//!
//! [`TailAccumulation::Exact`] holds each measured sojourn once, 8 bytes
//! apiece. A shard keeps one sojourn log, reserved up front for all of its
//! sojourns: interval-major, the servers in index order inside each
//! interval, with each server-interval's run marked by where it ends. A
//! server's day p99 gathers its runs into one reused scratch buffer before
//! anything reorders the log. The merge appends each shard's log to one log
//! reserved up front for the run and drops the shard's (a one-rack fleet's
//! lone log moves in whole). An interval's fleet p99 selects in place on its
//! slice of the log, or, when several racks hold it, on a gather of their
//! slices; the day's p50/p95/p99 select in place over the whole log. The
//! default `fleet` day with exact tails (19.2M sojourns, 8 bytes each)
//! peaks at about 155 MB.
//!
//! Dispatch does each piece of work once per request. A shard's
//! [`sim_qos::ServerQueues`] stores worker-availability times worker-major,
//! so [`LoadBalancer::LeastLoaded`] sums every server's backlog in one
//! sweep over the worker rows (an idle server sums to exactly zero, so the
//! sweep's first minimum is the first idle server when there is one), and
//! its per-server *skip-ahead watermark* lets an idle server — one whose
//! last worker completion is not after the incoming arrival — answer a
//! power-of-two probe in O(1), reading no worker. Each sojourn is recorded
//! into its server's interval buffer, which the shard's dispatch state
//! reuses every interval; from there it is copied once, into the shard's
//! sojourn log or into its day and interval histograms. The server's
//! interval tail, which its monitor reads, selects in place on that buffer,
//! and every exact tail goes through the linear-time selection of
//! [`sim_stats::percentile`](mod@sim_stats::percentile).

use crate::diurnal::{day_steps, DiurnalPattern, INTERVAL_HOURS};
use crate::topology::TailAccumulation;
use sim_model::{parallel_fold, parallel_map, CanonicalKey, KeyEncoder, SimRng};
use sim_qos::{
    bisect_peak_rps, ArrivalClock, ArrivalDraw, ArrivalDraws, ArrivalGenerator, ArrivalProcess,
    ServerQueues, ServiceSpec,
};
use sim_stats::percentile::percentiles_in_place;
use sim_stats::{det_merge, det_sum, percentile, LatencyHistogram};
use std::ops::Range;
use stretch::{MonitorConfig, PerformanceTable, RobSkew, SoftwareMonitor, StretchConfig};

/// How the fleet's front end spreads arriving requests over the servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalancer {
    /// Cycle through the servers in order, ignoring their state.
    RoundRobin,
    /// Send each request to the server with the least queued work, the
    /// lowest index on ties (an idealised omniscient dispatcher): one
    /// worker-major sweep over every server's workers
    /// ([`sim_qos::ServerQueues::least_loaded`]).
    LeastLoaded,
    /// Sample two distinct servers uniformly and pick the less loaded — the
    /// classic "power of two choices" dispatcher, nearly as good as
    /// least-loaded at O(1) state inspection.
    PowerOfTwoChoices,
}

impl LoadBalancer {
    /// All balancers, in documentation order.
    pub const ALL: [LoadBalancer; 3] =
        [LoadBalancer::RoundRobin, LoadBalancer::LeastLoaded, LoadBalancer::PowerOfTwoChoices];

    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            LoadBalancer::RoundRobin => "round-robin",
            LoadBalancer::LeastLoaded => "least-loaded",
            LoadBalancer::PowerOfTwoChoices => "power-of-two-choices",
        }
    }
}

impl std::fmt::Display for LoadBalancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl CanonicalKey for LoadBalancer {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.tag(match self {
            LoadBalancer::RoundRobin => 0,
            LoadBalancer::LeastLoaded => 1,
            LoadBalancer::PowerOfTwoChoices => 2,
        });
    }
}

/// Scale knobs for a fleet run: how many machines and how many measured
/// requests per server per control interval (the measurement budget — the
/// simulated slice of each interval, exactly as [`sim_qos::SimParams::quick`] is a
/// slice of a single-server run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetScale {
    /// Number of servers in the fleet.
    pub servers: usize,
    /// Measured requests per server per control interval.
    pub requests_per_server: usize,
    /// Fleet seed; every RNG stream in the run forks from it.
    pub seed: u64,
}

impl FleetScale {
    /// CI/test scale: 8 servers, 150 requests per server-interval.
    pub fn quick(seed: u64) -> FleetScale {
        FleetScale { servers: 8, requests_per_server: 150, seed }
    }

    /// Figure scale: 24 servers, 400 requests per server-interval.
    pub fn standard(seed: u64) -> FleetScale {
        FleetScale { servers: 24, requests_per_server: 400, seed }
    }

    /// Datacenter scale: 10 000 servers, 20 requests per server-interval.
    /// Meant to be paired with many racks (so the run shards) and
    /// [`TailAccumulation::Binned`] (so memory stays bounded).
    pub fn datacenter(seed: u64) -> FleetScale {
        FleetScale { servers: 10_000, requests_per_server: 20, seed }
    }
}

impl CanonicalKey for FleetScale {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.usize(self.servers).usize(self.requests_per_server).u64(self.seed);
    }
}

/// Full configuration of a fleet run: what a run varies. The rest is fixed
/// for every fleet: each server's monitor acts once per
/// [`INTERVAL_HOURS`] control interval, arrivals come in
/// [`ArrivalProcess::bursty`] bursts at the rate the diurnal pattern sets
/// for the interval, every core provisions B-mode 56-136 and no Q-mode
/// ([`StretchConfig::b_mode_only`]), and binned tails use 2 ms bins up to
/// 2 s.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of servers.
    pub servers: usize,
    /// The latency-sensitive service every server runs.
    pub service: ServiceSpec,
    /// Diurnal load pattern modulating the fleet-wide arrival rate.
    pub pattern: DiurnalPattern,
    /// Number of racks; must divide `servers` evenly. The cluster tier
    /// splits the offered load evenly across the racks, and each rack is
    /// one shard of [`Fleet::run_with_workers`]. A flat fleet is one rack.
    pub racks: usize,
    /// Dispatcher spreading each rack's requests over its servers.
    pub balancer: LoadBalancer,
    /// How day- and fleet-level sojourn tails are retained.
    pub tails: TailAccumulation,
    /// Number of simulated days (each day replays the diurnal pattern).
    pub days: usize,
    /// Measured requests per server per interval.
    pub requests_per_server: usize,
    /// Per-server software-monitor tuning.
    pub monitor: MonitorConfig,
    /// Per-mode delivered performance and batch speedup.
    pub table: PerformanceTable,
    /// Fleet seed.
    pub seed: u64,
}

impl FleetConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.servers == 0 {
            return Err("a fleet needs at least one server".into());
        }
        if self.racks == 0 {
            return Err("a racked topology needs at least one rack".into());
        }
        if self.racks > self.servers {
            return Err(format!(
                "{} racks cannot be populated from {} servers",
                self.racks, self.servers
            ));
        }
        if !self.servers.is_multiple_of(self.racks) {
            return Err(format!(
                "{} servers do not split evenly over {} racks",
                self.servers, self.racks
            ));
        }
        if self.days == 0 {
            return Err("a fleet run covers at least one day".into());
        }
        self.service.validate()?;
        self.monitor.validate()?;
        self.pattern.validate()?;
        if self.requests_per_server < 20 {
            return Err(format!(
                "{} requests per server-interval cannot resolve a tail percentile (need >= 20)",
                self.requests_per_server
            ));
        }
        for (what, perf) in [
            ("baseline", self.table.baseline),
            ("B-mode", self.table.b_mode),
            ("Q-mode", self.table.q_mode),
        ] {
            if !(perf.ls_performance > 0.0 && perf.ls_performance <= 1.0) {
                return Err(format!(
                    "{what} LS performance {} must be in (0, 1]",
                    perf.ls_performance
                ));
            }
            if !(perf.batch_speedup > 0.0 && perf.batch_speedup.is_finite()) {
                return Err(format!(
                    "{what} batch speedup {} must be positive and finite",
                    perf.batch_speedup
                ));
            }
        }
        Ok(())
    }

    /// Number of control intervals over the whole run: `days` ×
    /// [`day_steps`].
    pub fn total_intervals(&self) -> usize {
        self.days * day_steps()
    }
}

impl CanonicalKey for FleetConfig {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.usize(self.servers)
            .field(&self.service)
            .field(&self.pattern)
            .usize(self.racks)
            .field(&self.balancer)
            .field(&self.tails)
            .usize(self.days)
            .usize(self.requests_per_server)
            .field(&self.monitor)
            .field(&self.table)
            .u64(self.seed);
    }
}

/// The seed of one server's private service-time stream. Derived from the
/// fleet seed and the server index only, so adding servers to a fleet never
/// perturbs the streams of the existing ones and no two servers share one.
pub fn server_seed(fleet_seed: u64, server: usize) -> u64 {
    // A dedicated root (fleet seed xor a fixed tag) forked once per server;
    // forks are functions of (root state, stream id) only, and the stream id
    // keeps them pairwise distinct.
    SimRng::new(fleet_seed ^ 0x5e72_76f1_ee75_ca1e).fork(server as u64 + 1).next_u64()
}

/// The seed of one rack's (= one shard's) private RNG root — arrival
/// stream, balancer draws and the [`server_seed`] roots of its servers all
/// derive from it. Rack 0 reuses the fleet seed *unchanged*, so a one-rack
/// (flat) fleet is bit-identical to the historical single-shard run.
/// Further racks fork from a dedicated tagged root, so their streams are
/// independent of rack 0's and of each other.
pub fn rack_seed(fleet_seed: u64, rack: usize) -> u64 {
    if rack == 0 {
        fleet_seed
    } else {
        SimRng::new(fleet_seed ^ 0x7ac4_5eed_11ac_0b1d).fork(rack as u64).next_u64()
    }
}

/// The per-server peak rate (requests/second), measured *on the fleet
/// itself* at its real operating point — every core colocated, the
/// baseline mode's delivered performance. [`bisect_peak_rps`] searches
/// between 5% and 100% of that performance's no-queueing capacity. A probe
/// runs 6 pinned-mode intervals on fresh queues, through the fleet's own
/// load balancer and measurement budget, and passes when the median
/// server-interval tail over the last 4 of them is at or under the target.
/// This mirrors how [`sim_qos::ServerSim::find_peak_load_rps`] establishes
/// a lone server's peak. The result does not depend on `cfg.monitor` (the
/// runs are pinned-mode), so one measurement serves both threshold
/// calibration and the day's run — [`Fleet::with_peak`] accepts it
/// precomputed.
///
/// Every probe replays one tape of random numbers from the probe seed's
/// streams: all 6 intervals' arrival draws, drawn once before the search
/// and read by both of its lanes, and each server's service-time factors,
/// drawn lazily in the order the server takes requests (how many it takes
/// differs from probe to probe) and replayed from the first by every probe.
/// Each lane keeps its own copy of the factors, the same values drawn from
/// the same streams. The arrival clock multiplies each draw by the probed
/// rate's mean gap and each factor is multiplied by the service median, so
/// every probe sees the inputs a live run at its rate draws, bit for bit;
/// the balancer RNG restarts from the same state in every probe. The search
/// uses 13 verdicts, two lanes at a time (see [`bisect_peak_rps`]), and
/// each is the verdict a one-probe-at-a-time search reaches at the same
/// rate. A probe also stops as soon as its verdict is settled: once more of
/// its measured tails are at or under the target than over it by more than
/// the server-intervals still to run, the median passes whatever those add
/// (and fails in the mirror case). The median of N tails lies between ranks
/// ⌊(N−1)/2⌋ and ⌈(N−1)/2⌉, so either bound decides it.
///
/// Most shapes pass every probe, so their peak is the top of the bracket,
/// `capacity × (1 − 0.95 · 2⁻¹²)`; some seeds reject a rate inside it
/// (YouTube under least-loaded dispatch at `FleetScale::quick(10)` peaks at
/// 0.951 of capacity). Calibrating on the fleet matters twice over: a
/// queue-aware balancer pools the servers' capacity (so the fleet peak can
/// sit well above `servers ×` the single-server peak), and the capacity is
/// that of the colocated baseline mode, not of a dedicated core.
///
/// The measurement runs on *one rack* (the fleet's actual dispatch unit —
/// the cluster tier only ever offers a rack its even share of the load),
/// which keeps 10k-server construction cheap; for a one-rack fleet it is
/// the whole fleet. Server-intervals that measured zero requests are
/// skipped — a starved server has no tail, not a perfect 0 ms one. When even 5% of a
/// server's capacity misses the target, the result is that 5% floor: the
/// day's run still needs a positive rate.
///
/// # Panics
///
/// Panics if `cfg` is invalid.
pub fn measured_peak_rps(cfg: &FleetConfig) -> f64 {
    cfg.validate().expect("invalid fleet configuration");
    let cfg = &calibration_config(cfg);
    let target_ms = cfg.service.qos_target_ms;
    let baseline_perf = cfg.table.baseline.ls_performance.clamp(0.05, 1.0);
    let seed = cfg.seed ^ PEAK_PROBE_TAG;
    let arrivals = probe_arrivals(cfg, seed);
    let mut lanes = std::array::from_fn(|_| FactorTape::new(cfg, seed));
    let peak =
        bisect_peak_rps(&cfg.service, baseline_perf, &mut lanes, |factors, per_server_rps| {
            let rate = per_server_rps * cfg.servers as f64;
            let mut tape = ProbeTape { arrivals: &arrivals, factors, taken: vec![0; cfg.servers] };
            let mut verdict = None;
            let tails = pinned_tails(
                cfg,
                seed,
                &mut tape,
                baseline_perf,
                rate,
                PROBE_INTERVALS,
                |tails, remaining| {
                    verdict = settled_verdict(tails, target_ms, remaining);
                    verdict.is_some()
                },
            );
            verdict.unwrap_or_else(|| {
                percentile(&tails, 50.0).expect("peak calibration produced samples") <= target_ms
            })
        });
    match peak {
        Ok(rps) | Err(rps) => rps,
    }
}

/// The pinned intervals a peak probe runs: 2 of warm-up, 4 measured.
const PROBE_INTERVALS: u64 = 6;

/// The tag the peak probes' seed is `cfg.seed` xor'ed with.
const PEAK_PROBE_TAG: u64 = 0x9ea4;

/// Whether the median of a probe's tails is at or under `target_ms`, once
/// `remaining` more tails can no longer change that: `Some(true)` when the
/// tails at or under the target outnumber those over it by more than
/// `remaining` (both median ranks are then at or under it), `Some(false)`
/// in the mirror case (the lower rank is over it), `None` otherwise.
fn settled_verdict(tails: &[f64], target_ms: f64, remaining: usize) -> Option<bool> {
    let within = tails.iter().filter(|&&tail| tail <= target_ms).count();
    let over = tails.len() - within;
    if within > over + remaining {
        Some(true)
    } else if over > within + remaining {
        Some(false)
    } else {
        None
    }
}

/// The configuration peak measurement and threshold calibration run on:
/// the fleet's dispatch unit, one rack of it — same per-server load, same
/// balancer, same measurement budget as any rack of the real run sees. A
/// one-rack fleet calibrates on itself.
fn calibration_config(cfg: &FleetConfig) -> FleetConfig {
    FleetConfig { servers: cfg.servers / cfg.racks, racks: 1, ..cfg.clone() }
}

/// Dispatch state shared by every interval of one shard of one fleet run:
/// the shard's [`ServerQueues`] (queues persist across intervals), the
/// balancer's round-robin cursor and RNG and the continuous clock — plus
/// the buffers every interval reuses, so an interval allocates nothing per
/// server. The requests themselves come from [`RequestStreams`].
struct DispatchState {
    queues: ServerQueues,
    rr_next: usize,
    balancer_rng: SimRng,
    clock_ms: f64,
    /// Each server's sojourn times (always exact, never NaN) over the last
    /// interval [`run_interval`] simulated; cleared as the next one starts.
    samples: Vec<Vec<f64>>,
}

impl DispatchState {
    /// Fresh state for one shard of `servers` machines under shard seed
    /// `seed`.
    fn new(cfg: &FleetConfig, seed: u64, servers: usize) -> DispatchState {
        let (_, balancer_rng) = shard_roots(seed);
        DispatchState {
            queues: ServerQueues::new(servers, cfg.service.workers),
            rr_next: 0,
            balancer_rng,
            clock_ms: 0.0,
            samples: vec![Vec::new(); servers],
        }
    }

    /// Server `s`'s `p`-th percentile sojourn over the last interval, or
    /// `None` when it measured no request (a starved server-interval).
    /// Selects in the server's interval buffer, which the next interval
    /// clears anyway.
    fn server_tail(&mut self, s: usize, p: f64) -> Option<f64> {
        percentiles_in_place(&mut self.samples[s], [p]).map(|[tail]| tail)
    }
}

/// The shape of every fleet's arrival stream. Each interval runs it at the
/// rate the diurnal pattern sets (see [`RequestStreams::interval`]).
const ARRIVALS: ArrivalProcess = ArrivalProcess::bursty(100.0);

/// The arrival-stream root and the balancer RNG of the shard seeded `seed`.
fn shard_roots(seed: u64) -> (SimRng, SimRng) {
    let mut root = SimRng::new(seed);
    let arrival_root = root.fork(1);
    (arrival_root, root.fork(2))
}

/// One interval's requests: their arrival times and the service-time
/// factor of each request a server takes. [`run_interval`] is generic over
/// it, so live streams and the peak search's tape share one dispatch loop,
/// compiled once for each.
trait RequestSource {
    /// The next arrival, in ms after the interval starts.
    fn next_arrival_ms(&mut self) -> f64;
    /// The log-normal factor ([`SimRng::log_normal_factor`]) of the next
    /// request `server` takes.
    fn service_factor(&mut self, server: usize) -> f64;
}

/// A run's randomness, interval by interval.
trait RequestStreams {
    /// Interval `t`'s requests at `rate_rps`. Intervals are taken in
    /// order, starting from 0.
    fn interval(&mut self, cfg: &FleetConfig, t: u64, rate_rps: f64) -> impl RequestSource + '_;
}

/// A shard's live random streams: the arrival-stream root each interval
/// forks its own stream from, and every server's service-time stream.
/// Service streams are keyed by the shard seed and the shard-*local* index
/// — for shard 0 of a run (and any flat fleet) this is exactly the
/// historical per-server derivation.
struct LiveStreams {
    arrival_root: SimRng,
    service_rngs: Vec<SimRng>,
}

impl LiveStreams {
    fn new(seed: u64, servers: usize) -> LiveStreams {
        let (arrival_root, _) = shard_roots(seed);
        let service_rngs = (0..servers).map(|s| SimRng::new(server_seed(seed, s))).collect();
        LiveStreams { arrival_root, service_rngs }
    }
}

impl RequestStreams for LiveStreams {
    fn interval(&mut self, cfg: &FleetConfig, t: u64, rate_rps: f64) -> impl RequestSource + '_ {
        LiveInterval {
            arrivals: ArrivalGenerator::new(
                ARRIVALS.with_rate(rate_rps),
                self.arrival_root.fork(t),
            ),
            service_rngs: &mut self.service_rngs,
            sigma: cfg.service.service_sigma,
        }
    }
}

/// One interval of [`LiveStreams`], drawn as it is dispatched.
struct LiveInterval<'a> {
    arrivals: ArrivalGenerator,
    service_rngs: &'a mut [SimRng],
    sigma: f64,
}

impl RequestSource for LiveInterval<'_> {
    #[inline]
    fn next_arrival_ms(&mut self) -> f64 {
        self.arrivals.next_arrival_ms()
    }

    #[inline]
    fn service_factor(&mut self, server: usize) -> f64 {
        self.service_rngs[server].log_normal_factor(self.sigma)
    }
}

/// Every peak probe interval's arrival draws under the probe seed `seed`,
/// drawn once for all probes and both lanes (see [`measured_peak_rps`]).
fn probe_arrivals(cfg: &FleetConfig, seed: u64) -> Vec<Vec<ArrivalDraw>> {
    let (mut arrival_root, _) = shard_roots(seed);
    let requests = cfg.servers * cfg.requests_per_server;
    (0..PROBE_INTERVALS)
        .map(|t| {
            let mut draws = ArrivalDraws::new(ARRIVALS, arrival_root.fork(t));
            (0..requests).map(|_| draws.next_draw()).collect()
        })
        .collect()
}

/// One peak-search lane's service-time factors: each server's, in the
/// order it takes requests, drawn from the probe seed's service streams
/// the first time a probe needs them and replayed by every later probe.
struct FactorTape {
    service_rngs: Vec<SimRng>,
    factors: Vec<Vec<f64>>,
    sigma: f64,
}

impl FactorTape {
    fn new(cfg: &FleetConfig, seed: u64) -> FactorTape {
        FactorTape {
            service_rngs: LiveStreams::new(seed, cfg.servers).service_rngs,
            factors: vec![Vec::new(); cfg.servers],
            sigma: cfg.service.service_sigma,
        }
    }
}

/// One probe's replay of the peak search's common random numbers: the
/// arrival draws every lane shares, its lane's [`FactorTape`] and how many
/// requests each server has taken so far in the probe.
struct ProbeTape<'a> {
    arrivals: &'a [Vec<ArrivalDraw>],
    factors: &'a mut FactorTape,
    taken: Vec<usize>,
}

impl RequestStreams for ProbeTape<'_> {
    fn interval(&mut self, _: &FleetConfig, t: u64, rate_rps: f64) -> impl RequestSource + '_ {
        TapeInterval {
            clock: ArrivalClock::new(ARRIVALS.with_rate(rate_rps)),
            arrivals: self.arrivals[t as usize].iter(),
            factors: &mut *self.factors,
            taken: &mut self.taken,
        }
    }
}

/// One interval of a [`ProbeTape`], replayed at one rate. A server whose
/// factors run out draws the next from its stream and keeps it.
struct TapeInterval<'a> {
    clock: ArrivalClock,
    arrivals: std::slice::Iter<'a, ArrivalDraw>,
    factors: &'a mut FactorTape,
    taken: &'a mut [usize],
}

impl RequestSource for TapeInterval<'_> {
    #[inline]
    fn next_arrival_ms(&mut self) -> f64 {
        let draw = self.arrivals.next().expect("the tape holds every arrival of the interval");
        self.clock.advance(*draw)
    }

    #[inline]
    fn service_factor(&mut self, server: usize) -> f64 {
        let tape = &mut *self.factors;
        let factors = &mut tape.factors[server];
        let next = self.taken[server];
        self.taken[server] += 1;
        if next == factors.len() {
            factors.push(tape.service_rngs[server].log_normal_factor(tape.sigma));
        }
        factors[next]
    }
}

/// Sojourn times stored once, as consecutive runs: run `i` is
/// `values[ends[i - 1]..ends[i]]`, the first starting at 0. A shard's log
/// holds one run per server-interval, interval-major with the servers in
/// index order inside each interval; the merged log of a run holds one run
/// per shard-interval, shard-major. Every exact tail is a percentile over
/// whole runs, and a percentile depends only on which values it covers, so
/// selecting in place inside one run moves no other tail; only the day's
/// selection over the whole log, read last, mixes runs.
#[derive(Debug, Default)]
struct SojournLog {
    values: Vec<f64>,
    ends: Vec<usize>,
}

impl SojournLog {
    /// An empty log with room for `values` sojourns in `runs` runs.
    fn with_capacity(values: usize, runs: usize) -> SojournLog {
        SojournLog { values: Vec::with_capacity(values), ends: Vec::with_capacity(runs) }
    }

    /// Appends `values` as the next run.
    fn push_run(&mut self, values: &[f64]) {
        self.values.extend_from_slice(values);
        self.ends.push(self.values.len());
    }

    /// Where run `i` sits in `values`.
    fn run(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }

    /// Copies runs `first`, `first + stride`, … into `into`, replacing what
    /// it held.
    fn gather(&self, first: usize, stride: usize, into: &mut Vec<f64>) {
        into.clear();
        for i in (first..self.ends.len()).step_by(stride) {
            into.extend_from_slice(&self.values[self.run(i)]);
        }
    }

    /// The same values with every `k` consecutive runs joined into one.
    fn join_runs(self, k: usize) -> SojournLog {
        let ends = self.ends.iter().skip(k - 1).step_by(k).copied().collect();
        SojournLog { values: self.values, ends }
    }

    /// Appends `other`'s runs after this log's. An empty log with no room
    /// reserved takes `other` whole, copying nothing.
    fn append(&mut self, other: SojournLog) {
        if self.ends.is_empty() && self.values.capacity() == 0 {
            *self = other;
            return;
        }
        let base = self.values.len();
        self.values.extend_from_slice(&other.values);
        self.ends.extend(other.ends.iter().map(|end| base + end));
    }
}

/// Bin width of a binned tail, in ms.
const TAIL_BIN_MS: f64 = 2.0;

/// Upper edge of a binned tail's regular bins, in ms: 1,000 bins of
/// [`TAIL_BIN_MS`], with longer sojourns in one catch-all bin above it.
const TAIL_MAX_MS: f64 = 2000.0;

/// A shard's sojourns over its whole run, kept as the run's
/// [`TailAccumulation`] says.
enum ShardTails {
    /// Every sojourn once, in a log reserved up front for all of them: run
    /// `t · n + s` holds server `s`'s sojourns of interval `t`.
    Exact(SojournLog),
    /// Each server's day histogram and each interval's histogram.
    Binned { servers: Vec<LatencyHistogram>, intervals: Vec<LatencyHistogram> },
}

impl ShardTails {
    /// Empty tails for a shard of `servers` machines.
    fn new(cfg: &FleetConfig, servers: usize) -> ShardTails {
        let steps = cfg.total_intervals();
        match cfg.tails {
            TailAccumulation::Exact => ShardTails::Exact(SojournLog::with_capacity(
                servers * cfg.requests_per_server * steps,
                servers * steps,
            )),
            TailAccumulation::Binned => {
                let empty = LatencyHistogram::new(TAIL_BIN_MS, TAIL_MAX_MS);
                ShardTails::Binned {
                    servers: vec![empty.clone(); servers],
                    intervals: vec![empty; steps],
                }
            }
        }
    }

    /// Records interval `t`'s sojourns, `samples[s]` holding server `s`'s.
    /// Intervals are recorded in order, starting from 0.
    fn record_interval(&mut self, t: usize, samples: &[Vec<f64>]) {
        match self {
            ShardTails::Exact(log) => samples.iter().for_each(|run| log.push_run(run)),
            ShardTails::Binned { servers, intervals } => {
                for (day, run) in servers.iter_mut().zip(samples) {
                    for &v in run {
                        day.record(v);
                        intervals[t].record(v);
                    }
                }
            }
        }
    }

    /// Server `s`'s day p99 (0.0 when it measured nothing) and request
    /// count, for a shard of `servers` machines; an exact p99 selects in its
    /// runs, gathered into `scratch`.
    fn server_day(&self, s: usize, servers: usize, scratch: &mut Vec<f64>) -> (f64, usize) {
        match self {
            ShardTails::Exact(log) => {
                log.gather(s, servers, scratch);
                (percentiles_in_place(scratch, [99.0]).map_or(0.0, |[p99]| p99), scratch.len())
            }
            ShardTails::Binned { servers, .. } => {
                let day = &servers[s];
                (day.percentile(99.0).unwrap_or(0.0), day.len())
            }
        }
    }

    /// What the merge takes from a shard of `servers` machines: its
    /// interval tails, an exact log's runs joined one per interval.
    fn into_day_tails(self, servers: usize) -> DayTails {
        match self {
            ShardTails::Exact(log) => DayTails::Exact(log.join_runs(servers)),
            ShardTails::Binned { intervals, .. } => DayTails::Binned(intervals),
        }
    }
}

/// The interval tails of one shard or of the running merge, which together
/// make up the day's fleet tail.
enum DayTails {
    /// Every sojourn once: run `k · T + t` holds shard `k`'s sojourns of
    /// interval `t`, for `T` intervals.
    Exact(SojournLog),
    /// One histogram per interval.
    Binned(Vec<LatencyHistogram>),
}

impl DayTails {
    /// Nothing merged yet, for a run of `shards` shards. Several shards'
    /// exact logs append to one log reserved up front for every sojourn of
    /// the run, each log dropped once appended; a lone shard's log moves in.
    fn new(cfg: &FleetConfig, shards: usize) -> DayTails {
        match cfg.tails {
            TailAccumulation::Exact if shards > 1 => {
                let steps = cfg.total_intervals();
                DayTails::Exact(SojournLog::with_capacity(
                    cfg.servers * cfg.requests_per_server * steps,
                    shards * steps,
                ))
            }
            TailAccumulation::Exact => DayTails::Exact(SojournLog::default()),
            TailAccumulation::Binned => DayTails::Binned(Vec::new()),
        }
    }

    /// Folds in the next shard's interval tails. Exact logs concatenate;
    /// histograms add integer bin counts, and the first shard's move in.
    fn absorb(&mut self, shard: DayTails) {
        match (self, shard) {
            (DayTails::Exact(log), DayTails::Exact(part)) => log.append(part),
            (DayTails::Binned(merged), DayTails::Binned(part)) if merged.is_empty() => {
                *merged = part;
            }
            (DayTails::Binned(merged), DayTails::Binned(part)) => {
                merged.iter_mut().zip(&part).for_each(|(a, b)| a.merge(b));
            }
            _ => panic!("mismatched tail accumulation variants"),
        }
    }

    /// Interval `t`'s p99 out of `steps` intervals, 0.0 when empty. An exact
    /// p99 selects in the log itself when one shard holds the interval, and
    /// otherwise in `scratch`, which gathers every shard's run of it.
    fn interval_p99(&mut self, t: usize, steps: usize, scratch: &mut Vec<f64>) -> f64 {
        match self {
            DayTails::Exact(log) => {
                let values = if log.ends.len() == steps {
                    let run = log.run(t);
                    &mut log.values[run]
                } else {
                    log.gather(t, steps, scratch);
                    &mut scratch[..]
                };
                percentiles_in_place(values, [99.0]).map_or(0.0, |[p99]| p99)
            }
            DayTails::Binned(intervals) => intervals[t].percentile(99.0).unwrap_or(0.0),
        }
    }

    /// The day's p50, p95 and p99 (0.0 each when nothing was measured) and
    /// its sojourn count. An exact day selects in place over the whole log.
    fn day(self) -> ([f64; 3], usize) {
        const PS: [f64; 3] = [50.0, 95.0, 99.0];
        match self {
            DayTails::Exact(mut log) => {
                let requests = log.values.len();
                (percentiles_in_place(&mut log.values, PS).unwrap_or([0.0; 3]), requests)
            }
            DayTails::Binned(intervals) => {
                let day = intervals
                    .into_iter()
                    .reduce(|mut day, interval| {
                        day.merge(&interval);
                        day
                    })
                    .expect("a run has at least one interval");
                (PS.map(|p| day.percentile(p).unwrap_or(0.0)), day.len())
            }
        }
    }
}

/// Simulates one control interval's measurement slice for one shard:
/// `shard servers × requests_per_server` arrivals from `requests`,
/// dispatched through the fleet's balancer onto the shard's persistent
/// per-server queues, where server `s` serves a request in `medians_ms[s]`
/// times the request's service factor. Leaves each server's sojourn times in
/// `state.samples` (always exact: the monitor path needs exact
/// per-interval tails and they are transient). A NaN sojourn, which only a
/// non-finite service time could produce, is dropped, so no tail counts it.
///
/// Per-server sample counts are surfaced through `state.samples` (`len()`):
/// under a queue-aware balancer the per-server interval count is random and
/// can be zero, and callers must treat such server-intervals as *unmeasured*
/// rather than substituting a tail.
fn run_interval(
    cfg: &FleetConfig,
    state: &mut DispatchState,
    medians_ms: &[f64],
    requests: &mut impl RequestSource,
) {
    let n = state.samples.len();
    let balancer = cfg.balancer;
    state.samples.iter_mut().for_each(Vec::clear);
    let mut last_arrival = state.clock_ms;
    for _ in 0..n * cfg.requests_per_server {
        let arrival = state.clock_ms + requests.next_arrival_ms();
        last_arrival = arrival;
        let s = match balancer {
            LoadBalancer::RoundRobin => {
                let s = state.rr_next;
                state.rr_next = (state.rr_next + 1) % n;
                s
            }
            LoadBalancer::LeastLoaded => state.queues.least_loaded(arrival),
            LoadBalancer::PowerOfTwoChoices => {
                let a = state.balancer_rng.below(n as u64) as usize;
                let b = if n > 1 {
                    let mut b = state.balancer_rng.below(n as u64 - 1) as usize;
                    if b >= a {
                        b += 1;
                    }
                    b
                } else {
                    a
                };
                if state.queues.backlog(a, arrival) <= state.queues.backlog(b, arrival) {
                    a
                } else {
                    b
                }
            }
        };
        let service_ms = medians_ms[s] * requests.service_factor(s);
        let sojourn = state.queues.admit(s, arrival, service_ms);
        if !sojourn.is_nan() {
            state.samples[s].push(sojourn);
        }
    }
    state.clock_ms = last_arrival;
}

/// Per-server tails (ms) of a pinned-mode run on fresh queues: every server
/// at delivered performance `perf`, `intervals` control intervals at
/// `rate_rps` through the configured balancer, its RNG rooted at `seed`
/// and the requests taken from `streams`. The first two intervals are
/// discarded as queue warm-up, and server-intervals that measured nothing
/// are skipped: a starved server contributes no evidence, and a substituted
/// 0.0 would drag a calibration median toward "all slack". After each
/// measured interval `settled` sees the tails so far and the number of
/// server-intervals still to run; the run stops once it returns true.
fn pinned_tails(
    cfg: &FleetConfig,
    seed: u64,
    streams: &mut impl RequestStreams,
    perf: f64,
    rate_rps: f64,
    intervals: u64,
    mut settled: impl FnMut(&[f64], usize) -> bool,
) -> Vec<f64> {
    let n = cfg.servers;
    let mut state = DispatchState::new(cfg, seed, n);
    let spec = &cfg.service;
    let medians_ms = vec![spec.service_median_ms * spec.slowdown(perf.clamp(0.05, 1.0)); n];
    let metric = spec.tail_metric.percentile();
    let mut tails = Vec::new();
    for t in 0..intervals {
        let mut requests = streams.interval(cfg, t, rate_rps);
        run_interval(cfg, &mut state, &medians_ms, &mut requests);
        if t >= 2 {
            tails.extend((0..n).filter_map(|s| state.server_tail(s, metric)));
            if settled(&tails, n * (intervals - 1 - t) as usize) {
                break;
            }
        }
    }
    tails
}

/// Calibrates tail-latency monitor thresholds so the measured control loop
/// mirrors the paper's load rule "engage B-mode below `engage_below_load` of
/// peak" — by measurement, on the fleet itself. Two short pinned-mode runs
/// at exactly that load, side by side on the [`sim_model::parallel_map`]
/// pool, record the tail-to-target ratio every server shows per interval:
/// under the baseline mode's delivered performance (its *median* becomes
/// the engage threshold) and under B-mode performance (the disengage
/// threshold). Because the calibration runs through the same
/// balancer, budget and queues as the real day, the thresholds
/// automatically absorb the smoothing a queue-aware dispatcher provides.
///
/// The two thresholds are read off the calibration distribution
/// asymmetrically on purpose. Engagement is protected by hysteresis (two
/// consecutive slack observations), so its threshold can sit at the median.
/// Disengagement fires on a *single* pressure sample — the paper wants the
/// monitor to back off promptly when QoS is at risk — so its threshold is
/// the 90th percentile of the stretched-mode distribution: high enough that
/// ordinary measurement noise at sub-threshold load does not flap a server
/// out of B-mode, low enough that genuinely rising load still disengages
/// within an interval or two.
///
/// The `monitor` field of `cfg` is ignored (that is what is being derived).
/// `peak_rps` is the per-server peak from [`measured_peak_rps`], passed in
/// so callers that also construct the fleet run the bisection only once.
///
/// # Panics
///
/// Panics if `engage_below_load` is not in `(0, 1]`, the peak is not
/// positive, or `cfg` is invalid.
pub fn calibrated_monitor_with_peak(
    cfg: &FleetConfig,
    engage_below_load: f64,
    peak_rps: f64,
) -> MonitorConfig {
    assert!(
        engage_below_load > 0.0 && engage_below_load <= 1.0,
        "engagement load {engage_below_load} must be a fraction of peak"
    );
    assert!(peak_rps > 0.0, "peak rate must be positive");
    cfg.validate().expect("invalid fleet configuration");
    // Like the peak bisection, calibration runs on the fleet's dispatch
    // unit, one rack.
    let cfg = &calibration_config(cfg);
    let rate = engage_below_load * cfg.servers as f64 * peak_rps;
    // The baseline and stretched runs are independent, so they run side by
    // side on the pool, the baseline's result first.
    let runs = vec![
        (cfg.table.baseline.ls_performance, 0xca1b_0001),
        (cfg.table.b_mode.ls_performance, 0xca1b_0002),
    ];
    let ratios = parallel_map(runs, 2, |&(perf, tag): &(f64, u64)| {
        let seed = cfg.seed ^ tag;
        let mut streams = LiveStreams::new(seed, cfg.servers);
        let tails = pinned_tails(cfg, seed, &mut streams, perf, rate, 8, |_, _| false);
        tails.iter().map(|tail| tail / cfg.service.qos_target_ms).collect()
    });
    let [baseline, stretched]: [Vec<f64>; 2] =
        ratios.try_into().expect("two runs map to two results");
    let engage_below =
        percentile(&baseline, 50.0).expect("calibration produced samples").clamp(0.05, 1.40);
    let disengage_above = percentile(&stretched, 90.0)
        .expect("calibration produced samples")
        .clamp(engage_below + 0.02, 1.45);
    MonitorConfig { engage_below, disengage_above, engage_after: 2, violations_before_throttle: 4 }
}

/// Per-interval fleet telemetry.
///
/// Small-sample contract: `requests_per_server` is a *fleet-wide average*
/// measurement budget, not a per-server guarantee — under a queue-aware
/// balancer the per-server interval count is random and can be zero.
/// `measured_servers` counts the servers whose interval actually resolved
/// a tail; the remaining `servers - measured_servers` were starved
/// (unmeasured), contributed no tail sample and fed their monitor nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetIntervalReport {
    /// Hour of day at the interval start.
    pub hour: f64,
    /// Offered load (fraction of fleet peak).
    pub load: f64,
    /// Servers whose monitor had B-mode engaged during the interval.
    pub engaged_servers: usize,
    /// Servers that measured at least one request this interval (only these
    /// contribute tail evidence; see the small-sample contract above).
    pub measured_servers: usize,
    /// Fleet-wide 99th-percentile sojourn time over the interval (ms).
    /// Under [`TailAccumulation::Binned`] this is conservative to within
    /// one bin resolution.
    pub p99_ms: f64,
    /// Fleet batch throughput during the interval, relative to baseline.
    pub batch_throughput: f64,
}

/// Per-server summary over the whole run.
///
/// Small-sample contract: tail fields summarise *measured* requests only.
/// A server can sit idle for whole intervals (`starved_intervals` counts
/// them); those intervals produce no tail sample, no QoS violation and no
/// monitor observation — the monitor simply holds its previous mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSummary {
    /// Intervals this server spent in B-mode.
    pub engaged_intervals: usize,
    /// Intervals in which this server measured zero requests (unmeasured:
    /// excluded from tails, violations and monitor feeding).
    pub starved_intervals: usize,
    /// The server's own p99 sojourn time over the run (ms); conservative
    /// to one bin under [`TailAccumulation::Binned`].
    pub p99_ms: f64,
    /// Requests this server processed (measured only).
    pub requests: usize,
    /// Mode changes its monitor decided.
    pub mode_changes: u64,
    /// CPI²-style co-runner throttling escalations.
    pub throttle_events: u64,
}

/// Result of a fleet run (`days` × 24 hours).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-interval telemetry, in time order.
    pub intervals: Vec<FleetIntervalReport>,
    /// Per-server summaries, in server order.
    pub servers: Vec<ServerSummary>,
    /// Mean batch throughput relative to baseline over all server-intervals.
    pub average_batch_throughput: f64,
    /// Fraction of server-intervals with B-mode engaged.
    pub fraction_engaged: f64,
    /// Average hours per day each server spent in B-mode.
    pub hours_engaged: f64,
    /// Fraction of *measured* server-intervals whose tail violated the
    /// target (starved server-intervals carry no tail evidence and are
    /// excluded from both numerator and denominator).
    pub violation_fraction: f64,
    /// Fleet-wide median sojourn time over the day (ms).
    pub p50_ms: f64,
    /// Fleet-wide 95th-percentile sojourn time over the day (ms).
    pub p95_ms: f64,
    /// Fleet-wide 99th-percentile sojourn time over the day (ms).
    pub p99_ms: f64,
    /// Measured requests across the fleet and day.
    pub requests: usize,
}

impl FleetReport {
    /// The 24-hour batch throughput gain, e.g. 0.05 for +5%.
    pub fn gain(&self) -> f64 {
        self.average_batch_throughput - 1.0
    }
}

/// The fleet simulator. Construction measures the per-server peak rate on
/// the fleet at its colocated baseline operating point (see
/// [`measured_peak_rps`]); [`Fleet::run`] replays a 24-hour day.
#[derive(Debug, Clone)]
pub struct Fleet {
    cfg: FleetConfig,
    peak_rps: f64,
}

impl Fleet {
    /// Builds a fleet, validating the configuration and measuring the
    /// per-server peak rate (as [`measured_peak_rps`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: FleetConfig) -> Fleet {
        let peak_rps = measured_peak_rps(&cfg);
        Fleet { cfg, peak_rps }
    }

    /// Builds a fleet around an already-measured per-server peak (from
    /// [`measured_peak_rps`]), skipping the bisection — the peak does not
    /// depend on `cfg.monitor`, so callers that calibrate thresholds first
    /// reuse one measurement for both.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the peak is not positive.
    pub fn with_peak(cfg: FleetConfig, peak_rps: f64) -> Fleet {
        cfg.validate().expect("invalid fleet configuration");
        assert!(peak_rps > 0.0, "peak rate must be positive");
        Fleet { cfg, peak_rps }
    }

    /// The configuration this fleet runs.
    pub fn cfg(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Per-server peak arrival rate (requests/second), measured at the
    /// colocated baseline operating point ([`measured_peak_rps`]); the
    /// fleet peak is `servers` times this.
    pub fn peak_rps(&self) -> f64 {
        self.peak_rps
    }

    /// Runs the fleet simulation single-threaded. Exactly
    /// [`Fleet::run_with_workers`] with one worker — same bits.
    pub fn run(&self) -> FleetReport {
        self.run_with_workers(1)
    }

    /// Runs the fleet simulation with its shards distributed over `workers`
    /// OS threads.
    ///
    /// The shard unit is the rack (a flat fleet is one shard, so extra
    /// workers simply idle). The report is a deterministic function of the
    /// configuration alone: shards simulate from independent
    /// [`rack_seed`]-derived streams, and each folds into the running
    /// report as soon as every earlier shard has, in shard-index order,
    /// through the canonical reducers — so every worker count, including 1,
    /// produces a bit-identical [`FleetReport`].
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn run_with_workers(&self, workers: usize) -> FleetReport {
        let cfg = &self.cfg;
        let peak_rps = self.peak_rps;
        let plans = shard_plans(cfg);
        let merge = FleetMerge::new(cfg, plans.len());
        parallel_fold(
            plans,
            workers,
            merge,
            |plan| run_shard_day(cfg, peak_rps, plan),
            |merge, shard| merge.fold_shard(shard),
        )
        .into_report(cfg)
    }
}

/// One contiguous shard (rack) of a fleet run: its size and the seed its
/// RNG streams derive from.
struct ShardPlan {
    servers: usize,
    seed: u64,
}

/// The shards of a fleet run, in shard-index (= rack, = server) order.
fn shard_plans(cfg: &FleetConfig) -> Vec<ShardPlan> {
    let servers = cfg.servers / cfg.racks;
    (0..cfg.racks).map(|r| ShardPlan { servers, seed: rack_seed(cfg.seed, r) }).collect()
}

/// One shard's partial results for one control interval.
struct ShardInterval {
    engaged: usize,
    measured_servers: usize,
    violations: usize,
    /// Left-to-right sum of the shard's per-server batch speedups — a
    /// per-shard partial for [`det_merge`].
    speedup_sum: f64,
}

/// Everything one shard contributes to the run: its intervals, its
/// servers' summaries, in shard-local order (which is global order, shards
/// being contiguous), and its interval tails.
struct ShardDay {
    intervals: Vec<ShardInterval>,
    servers: Vec<ServerSummary>,
    tails: DayTails,
}

/// Simulates one shard's whole run. Only ever called from inside the
/// `parallel_fold` map closure of [`Fleet::run_with_workers`]: float
/// accumulation here is shard-sequential by construction, and every
/// cross-shard combination happens in [`FleetMerge`] through the canonical
/// reducers. Each server's day tail is reduced to its [`ServerSummary`]
/// before the shard returns; an exact one is read before anything reorders
/// the shard's log.
fn run_shard_day(cfg: &FleetConfig, peak_rps: f64, plan: &ShardPlan) -> ShardDay {
    let n = plan.servers;
    let spec = &cfg.service;
    let steps = cfg.total_intervals();
    let metric_percentile = spec.tail_metric.percentile();

    let mut state = DispatchState::new(cfg, plan.seed, n);
    let mut streams = LiveStreams::new(plan.seed, n);
    let stretch = StretchConfig::b_mode_only(RobSkew::recommended_b_mode());
    let mut monitors: Vec<SoftwareMonitor> =
        (0..n).map(|_| SoftwareMonitor::new(stretch, cfg.monitor)).collect();

    let mut tails = ShardTails::new(cfg, n);
    let mut engaged_counts = vec![0usize; n];
    let mut starved_counts = vec![0usize; n];
    let mut intervals = Vec::with_capacity(steps);
    let mut modes = Vec::with_capacity(n);
    let mut medians_ms = Vec::with_capacity(n);

    for t in 0..steps {
        let hour = (t as f64 * INTERVAL_HOURS) % 24.0;
        let load = cfg.pattern.load_at(hour);
        let rate = (load * n as f64 * peak_rps).max(1e-3);

        // Mode for the interval is whatever each monitor decided from
        // the *previous* interval's measurement (control acts on
        // history, as on real hardware).
        modes.clear();
        modes.extend(monitors.iter().map(SoftwareMonitor::mode));
        medians_ms.clear();
        medians_ms.extend(modes.iter().map(|m| {
            spec.service_median_ms
                * spec.slowdown(cfg.table.for_mode(*m).ls_performance.clamp(0.05, 1.0))
        }));
        let engaged = modes.iter().filter(|m| m.is_batch_boost()).count();
        for (s, m) in modes.iter().enumerate() {
            if m.is_batch_boost() {
                engaged_counts[s] += 1;
            }
        }
        let speedup_sum = modes.iter().map(|m| cfg.table.for_mode(*m).batch_speedup).sum::<f64>();

        let mut requests = streams.interval(cfg, t as u64, rate);
        run_interval(cfg, &mut state, &medians_ms, &mut requests);
        tails.record_interval(t, &state.samples);

        // Every server observes its own tail from its own requests and
        // feeds its monitor — *if* it measured any. A server-interval with
        // zero requests is unmeasured: no tail, no violation, no
        // observation (the monitor holds its mode), rather than a
        // fabricated perfect 0 ms tail.
        let mut violations = 0usize;
        let mut measured_servers = 0usize;
        for (s, monitor) in monitors.iter_mut().enumerate() {
            match state.server_tail(s, metric_percentile) {
                Some(tail) => {
                    measured_servers += 1;
                    if tail > spec.qos_target_ms {
                        violations += 1;
                    }
                    let _ = monitor.observe_tail_latency(tail, spec.qos_target_ms);
                }
                None => starved_counts[s] += 1,
            }
        }

        intervals.push(ShardInterval { engaged, measured_servers, violations, speedup_sum });
    }

    let mut scratch = Vec::new();
    let servers = (0..n)
        .map(|s| {
            let (p99_ms, requests) = tails.server_day(s, n, &mut scratch);
            ServerSummary {
                engaged_intervals: engaged_counts[s],
                starved_intervals: starved_counts[s],
                p99_ms,
                requests,
                mode_changes: monitors[s].mode_changes(),
                throttle_events: monitors[s].throttle_events(),
            }
        })
        .collect();
    ShardDay { intervals, servers, tails: tails.into_day_tails(n) }
}

/// One control interval of the running merge.
struct IntervalMerge {
    engaged: usize,
    measured_servers: usize,
    violations: usize,
    /// The folded shards' speedup partials, in shard-index order.
    speedup_partials: Vec<f64>,
}

/// The running merge of [`Fleet::run_with_workers`]: shards fold in as
/// soon as every earlier shard has, in shard-index order, and are dropped.
/// Integer counters add, float partials wait for [`det_merge`] (one `f64`
/// per shard-interval), and interval tails merge bit-exactly — so the
/// report never depends on worker count or completion order, and nothing
/// here holds a histogram or a sojourn log per shard.
struct FleetMerge {
    intervals: Vec<IntervalMerge>,
    servers: Vec<ServerSummary>,
    tails: DayTails,
}

impl FleetMerge {
    fn new(cfg: &FleetConfig, shards: usize) -> FleetMerge {
        let intervals = (0..cfg.total_intervals())
            .map(|_| IntervalMerge {
                engaged: 0,
                measured_servers: 0,
                violations: 0,
                speedup_partials: Vec::with_capacity(shards),
            })
            .collect();
        FleetMerge {
            intervals,
            servers: Vec::with_capacity(cfg.servers),
            tails: DayTails::new(cfg, shards),
        }
    }

    /// Folds in the next shard. It comes by value, so where nothing is
    /// merged yet (always, for the first shard) its histograms move in
    /// instead of being copied, and so does a lone shard's sojourn log.
    fn fold_shard(&mut self, shard: ShardDay) {
        for (merged, part) in self.intervals.iter_mut().zip(shard.intervals) {
            merged.engaged += part.engaged;
            merged.measured_servers += part.measured_servers;
            merged.violations += part.violations;
            merged.speedup_partials.push(part.speedup_sum);
        }
        self.servers.extend(shard.servers);
        self.tails.absorb(shard.tails);
    }

    /// The fleet report once every shard is folded in: float partials go
    /// through the canonical reducers ([`det_merge`] across shards,
    /// [`det_sum`] across intervals), each interval's p99 is read, and then
    /// the fleet tail over every interval's sojourns.
    fn into_report(self, cfg: &FleetConfig) -> FleetReport {
        let n = cfg.servers;
        let steps = cfg.total_intervals();
        let mut intervals = Vec::with_capacity(steps);
        let mut throughputs = Vec::with_capacity(steps);
        let mut engaged_total = 0usize;
        let mut violations_total = 0usize;
        let mut measured_total = 0usize;
        let mut scratch = Vec::new();
        let mut tails = self.tails;
        for (t, merged) in self.intervals.into_iter().enumerate() {
            let hour = (t as f64 * INTERVAL_HOURS) % 24.0;
            let batch_throughput = det_merge(&merged.speedup_partials) / n as f64;
            throughputs.push(batch_throughput);
            engaged_total += merged.engaged;
            violations_total += merged.violations;
            measured_total += merged.measured_servers;
            let p99_ms = tails.interval_p99(t, steps, &mut scratch);
            intervals.push(FleetIntervalReport {
                hour,
                load: cfg.pattern.load_at(hour),
                engaged_servers: merged.engaged,
                measured_servers: merged.measured_servers,
                p99_ms,
                batch_throughput,
            });
        }

        let server_intervals = (n * steps) as f64;
        let ([p50_ms, p95_ms, p99_ms], requests) = tails.day();
        FleetReport {
            intervals,
            servers: self.servers,
            average_batch_throughput: det_sum(&throughputs) / steps as f64,
            fraction_engaged: engaged_total as f64 / server_intervals,
            hours_engaged: engaged_total as f64 / n as f64 * INTERVAL_HOURS / cfg.days as f64,
            violation_fraction: if measured_total == 0 {
                0.0
            } else {
                violations_total as f64 / measured_total as f64
            },
            p50_ms,
            p95_ms,
            p99_ms,
            requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CaseStudy, FleetTopology};

    fn quick_fleet(balancer: LoadBalancer) -> FleetConfig {
        CaseStudy::web_search().fleet_config(balancer, FleetScale::quick(7))
    }

    #[test]
    fn fixed_seed_runs_are_bit_identical() {
        let cfg = quick_fleet(LoadBalancer::PowerOfTwoChoices);
        let a = Fleet::new(cfg.clone()).run();
        let b = Fleet::new(cfg).run();
        assert_eq!(a, b, "same seed and config must reproduce the identical report");
        assert_eq!(a.p99_ms.to_bits(), b.p99_ms.to_bits());
    }

    #[test]
    fn server_seeds_are_pairwise_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for s in 0..64 {
            assert!(seen.insert(server_seed(42, s)), "server {s} repeats another server's seed");
        }
        // Stable across calls and independent of fleet size by construction.
        assert_eq!(server_seed(42, 3), server_seed(42, 3));
        assert_ne!(server_seed(42, 3), server_seed(43, 3));
    }

    #[test]
    fn engagement_tracks_the_diurnal_trough() {
        let report = Fleet::new(quick_fleet(LoadBalancer::LeastLoaded)).run();
        // Night intervals (deep trough) must be almost fully engaged, the
        // daily peak (almost) fully disengaged. Skip the first two intervals:
        // the monitors start in Baseline and need the hysteresis streak.
        let trough: Vec<f64> = report
            .intervals
            .iter()
            .skip(2)
            .filter(|iv| iv.load < 0.6)
            .map(|iv| iv.engaged_servers as f64 / report.servers.len() as f64)
            .collect();
        let trough_avg = trough.iter().sum::<f64>() / trough.len() as f64;
        assert!(trough_avg > 0.8, "trough engagement {trough_avg:.2} should be near 1");
        let peak: Vec<f64> = report
            .intervals
            .iter()
            .filter(|iv| iv.load > 0.97)
            .map(|iv| iv.engaged_servers as f64 / report.servers.len() as f64)
            .collect();
        let peak_avg = peak.iter().sum::<f64>() / peak.len() as f64;
        assert!(peak_avg < 0.1, "peak engagement {peak_avg:.2} should be near 0");
        assert!(report.gain() > 0.0, "a diurnal day must buy some batch throughput");
    }

    #[test]
    fn every_balancer_produces_a_sane_measured_day() {
        for balancer in LoadBalancer::ALL {
            let report = Fleet::new(quick_fleet(balancer)).run();
            assert_eq!(report.intervals.len(), 96);
            assert_eq!(report.servers.len(), 8);
            assert!(report.requests > 0);
            assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);
            assert!(
                report.gain() > 0.0 && report.gain() < 0.11,
                "{balancer}: gain {:.3} outside the plausible band",
                report.gain()
            );
            for s in &report.servers {
                assert!(s.requests > 0, "{balancer}: an idle server got no traffic");
            }
        }
    }

    #[test]
    fn better_balancers_tame_the_tail() {
        // Round-robin ignores queue state, so its fleet-wide p99 must not
        // beat the queue-aware dispatchers.
        let rr = Fleet::new(quick_fleet(LoadBalancer::RoundRobin)).run();
        let ll = Fleet::new(quick_fleet(LoadBalancer::LeastLoaded)).run();
        let p2c = Fleet::new(quick_fleet(LoadBalancer::PowerOfTwoChoices)).run();
        assert!(
            ll.p99_ms <= rr.p99_ms,
            "least-loaded p99 {:.1} must not exceed round-robin {:.1}",
            ll.p99_ms,
            rr.p99_ms
        );
        assert!(
            p2c.p99_ms <= rr.p99_ms * 1.05,
            "power-of-two p99 {:.1} should be near least-loaded, not round-robin {:.1}",
            p2c.p99_ms,
            rr.p99_ms
        );
    }

    #[test]
    fn interval_count_and_engagement_accounting_are_consistent() {
        let report = Fleet::new(quick_fleet(LoadBalancer::LeastLoaded)).run();
        let engaged_total: usize = report.intervals.iter().map(|iv| iv.engaged_servers).sum();
        let per_server_total: usize = report.servers.iter().map(|s| s.engaged_intervals).sum();
        assert_eq!(engaged_total, per_server_total);
        let expected_fraction =
            engaged_total as f64 / (report.intervals.len() * report.servers.len()) as f64;
        assert!((report.fraction_engaged - expected_fraction).abs() < 1e-12);
        assert!((report.hours_engaged - report.fraction_engaged * 24.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid fleet configuration")]
    fn zero_servers_rejected() {
        let mut cfg = quick_fleet(LoadBalancer::RoundRobin);
        cfg.servers = 0;
        let _ = Fleet::new(cfg);
    }

    #[test]
    #[should_panic(expected = "invalid fleet configuration")]
    fn peak_measurement_rejects_an_invalid_config() {
        let mut cfg = quick_fleet(LoadBalancer::RoundRobin);
        cfg.requests_per_server = 0;
        let _ = measured_peak_rps(&cfg);
    }

    #[test]
    fn hopeless_target_keeps_the_floor_as_peak() {
        let mut cfg = quick_fleet(LoadBalancer::RoundRobin);
        // Valid (above the median) but unmeetable: the tail of the service
        // times alone exceeds it, before any queueing.
        cfg.service.qos_target_ms = cfg.service.service_median_ms * 1.01;
        let perf = cfg.table.baseline.ls_performance.clamp(0.05, 1.0);
        let capacity_rps = cfg.service.workers as f64 * 1000.0 / cfg.service.mean_service_ms(perf);
        assert_eq!(measured_peak_rps(&cfg), capacity_rps * 0.05);
    }

    #[test]
    fn peak_search_can_reject_a_rate_inside_the_bracket() {
        // A probe judges 4 intervals on fresh queues, so near capacity its
        // verdict depends on the seed: seed 10 rejects a rate below the
        // bracket top, seed 42 accepts every probe and peaks at the top.
        let bracket_top = |fleet: &Fleet| {
            let cfg = fleet.cfg();
            let perf = cfg.table.baseline.ls_performance.clamp(0.05, 1.0);
            bisect_peak_rps(&cfg.service, perf, &mut [(), ()], |(), _| true)
                .expect("every probe passes")
        };
        let study = CaseStudy::youtube();
        let rejected = study.fleet(LoadBalancer::LeastLoaded, FleetScale::quick(10));
        let top = bracket_top(&rejected);
        assert!(
            rejected.peak_rps() < top,
            "seed 10 should peak below the bracket top ({} vs {top})",
            rejected.peak_rps()
        );
        let accepted = study.fleet(LoadBalancer::LeastLoaded, FleetScale::quick(42));
        assert_eq!(accepted.peak_rps().to_bits(), bracket_top(&accepted).to_bits());
    }

    /// The peak search as it was before the tape and the lanes: one probe at
    /// a time, each drawing live streams and running all 6 intervals before
    /// it takes the median.
    fn live_full_length_peak_rps(cfg: &FleetConfig) -> f64 {
        let cfg = &calibration_config(cfg);
        let perf = cfg.table.baseline.ls_performance.clamp(0.05, 1.0);
        let seed = cfg.seed ^ PEAK_PROBE_TAG;
        let meets = |per_server_rps: f64| {
            let rate = per_server_rps * cfg.servers as f64;
            let mut streams = LiveStreams::new(seed, cfg.servers);
            let tails =
                pinned_tails(cfg, seed, &mut streams, perf, rate, PROBE_INTERVALS, |_, _| false);
            percentile(&tails, 50.0).expect("samples") <= cfg.service.qos_target_ms
        };
        let capacity_rps = cfg.service.workers as f64 * 1000.0 / cfg.service.mean_service_ms(perf);
        let (mut lo, mut hi) = (capacity_rps * 0.05, capacity_rps);
        if !meets(lo) {
            return lo;
        }
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            if meets(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    #[test]
    fn replayed_early_stopping_peak_search_equals_the_live_full_length_one() {
        // Seeds whose search rejects a rate inside the bracket under every
        // balancer, so probes fail as well as pass, plus seed 42, where
        // every probe passes. Only the peak is compared, so one calibrated
        // config per study serves every seed and balancer.
        let bracket_top = |cfg: &FleetConfig| {
            let perf = cfg.table.baseline.ls_performance.clamp(0.05, 1.0);
            bisect_peak_rps(&cfg.service, perf, &mut [(), ()], |(), _| true)
                .expect("every probe passes")
        };
        let cases = [
            (CaseStudy::web_search(), vec![10, 42]),
            (CaseStudy::youtube(), vec![10, 25, 39, 57, 42]),
        ];
        for (study, seeds) in cases {
            let base = study.fleet_config(LoadBalancer::RoundRobin, FleetScale::quick(42));
            for seed in seeds {
                for balancer in LoadBalancer::ALL {
                    let cfg = FleetConfig { seed, balancer, ..base.clone() };
                    let peak = measured_peak_rps(&cfg);
                    let live = live_full_length_peak_rps(&cfg);
                    let shape = format!("{} seed {seed} {balancer}", cfg.service.name);
                    assert_eq!(peak.to_bits(), live.to_bits(), "{shape}");
                    assert_eq!(
                        peak < bracket_top(&cfg),
                        seed != 42,
                        "{shape}: peak {peak} against the bracket top"
                    );
                }
            }
        }
        // One racked shape with binned tails: the search runs on one rack.
        let base =
            CaseStudy::youtube().fleet_config(LoadBalancer::RoundRobin, FleetScale::quick(42));
        let cfg = FleetConfig {
            seed: 10,
            racks: 2,
            balancer: LoadBalancer::LeastLoaded,
            tails: TailAccumulation::Binned,
            ..base
        };
        assert_eq!(measured_peak_rps(&cfg).to_bits(), live_full_length_peak_rps(&cfg).to_bits());
    }

    #[test]
    fn a_settled_verdict_is_the_median_verdict_whatever_the_rest_adds() {
        // Random tails around a target of 1.0 (ties included), random
        // counts still to run and random values for them: wherever
        // `settled_verdict` decides, the median of everything agrees.
        let mut rng = SimRng::new(0x5e77_71ed);
        let value = |rng: &mut SimRng| match rng.below(4) {
            0 => 1.0,
            _ => 2.0 * rng.uniform_f64(),
        };
        let mut decided = [0usize; 2];
        for _ in 0..4000 {
            let tails: Vec<f64> = (0..rng.below(24)).map(|_| value(&mut rng)).collect();
            let remaining = rng.below(12) as usize;
            let Some(verdict) = settled_verdict(&tails, 1.0, remaining) else { continue };
            decided[usize::from(verdict)] += 1;
            let mut all = tails.clone();
            all.extend((0..rng.below(remaining as u64 + 1)).map(|_| value(&mut rng)));
            let median = percentile(&all, 50.0).expect("a decided verdict has tails");
            assert_eq!(median <= 1.0, verdict, "tails {tails:?}, then {all:?}");
        }
        assert!(decided.iter().all(|&n| n > 100), "both verdicts must be exercised: {decided:?}");
    }

    #[test]
    fn rack_validation_requires_even_split() {
        let base = quick_fleet(LoadBalancer::PowerOfTwoChoices);
        let validate = |servers, racks| FleetConfig { servers, racks, ..base.clone() }.validate();
        assert_eq!(validate(1, 1), Ok(()));
        assert_eq!(validate(8, 4), Ok(()));
        assert_eq!(validate(6, 4), Err("6 servers do not split evenly over 4 racks".into()));
        assert_eq!(validate(2, 4), Err("4 racks cannot be populated from 2 servers".into()));
        assert_eq!(validate(8, 0), Err("a racked topology needs at least one rack".into()));
    }

    #[test]
    #[should_panic(expected = "cannot resolve a tail percentile")]
    fn starved_measurement_budget_rejected() {
        let mut cfg = quick_fleet(LoadBalancer::RoundRobin);
        cfg.requests_per_server = 5;
        cfg.validate().map_err(|e| panic!("invalid fleet configuration: {e}")).unwrap();
    }

    #[test]
    fn calibrated_thresholds_are_ordered_and_in_range() {
        let cfg = quick_fleet(LoadBalancer::RoundRobin);
        let MonitorConfig { engage_below, disengage_above, .. } = cfg.monitor;
        assert!(engage_below > 0.0);
        assert!(engage_below < disengage_above);
        assert!(disengage_above <= 1.45);
    }

    fn digest(cfg: &FleetConfig) -> String {
        let mut enc = KeyEncoder::new();
        cfg.encode_key(&mut enc);
        enc.digest()
    }

    #[test]
    fn fleet_config_canonical_keys_separate_every_knob() {
        let base = quick_fleet(LoadBalancer::LeastLoaded);
        // The destructuring is exhaustive and every binding is used below,
        // so a new field fails to build here until it has a variant.
        let FleetConfig {
            servers,
            service,
            pattern,
            racks,
            balancer,
            tails,
            days,
            requests_per_server,
            monitor,
            table,
            seed,
        } = base.clone();
        assert_eq!(
            (pattern, balancer, tails),
            (DiurnalPattern::WebSearch, LoadBalancer::LeastLoaded, TailAccumulation::Exact)
        );
        let mut b_mode_speedup = table;
        b_mode_speedup.b_mode.batch_speedup += 0.01;
        let variants = [
            base.clone(),
            FleetConfig { servers: servers + 1, ..base.clone() },
            FleetConfig {
                service: ServiceSpec { workers: service.workers + 1, ..service },
                ..base.clone()
            },
            FleetConfig { pattern: DiurnalPattern::YouTube, ..base.clone() },
            FleetConfig { racks: racks + 1, ..base.clone() },
            FleetConfig { balancer: LoadBalancer::RoundRobin, ..base.clone() },
            FleetConfig { tails: TailAccumulation::Binned, ..base.clone() },
            FleetConfig { days: days + 1, ..base.clone() },
            FleetConfig { requests_per_server: requests_per_server + 1, ..base.clone() },
            FleetConfig {
                monitor: MonitorConfig { engage_after: monitor.engage_after + 1, ..monitor },
                ..base.clone()
            },
            FleetConfig { table: b_mode_speedup, ..base.clone() },
            FleetConfig { seed: seed ^ 1, ..base.clone() },
        ];
        let digests: Vec<String> = variants.iter().map(digest).collect();
        for (i, a) in digests.iter().enumerate() {
            for (j, b) in digests.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "variants {i} and {j} must have distinct cache identities");
            }
        }
        assert_eq!(digest(&base), digests[0], "identity must be stable");
    }

    #[test]
    fn a_flat_fleet_and_its_one_rack_twin_are_one_config() {
        let study = CaseStudy::web_search();
        for balancer in LoadBalancer::ALL {
            let lower = |topology| {
                study
                    .fleet_with(
                        balancer,
                        FleetScale::quick(7),
                        topology,
                        TailAccumulation::Exact,
                        1,
                    )
                    .cfg()
                    .clone()
            };
            let flat = lower(FleetTopology::Flat);
            let one_rack = lower(FleetTopology::racked(1, balancer));
            assert_eq!(flat, one_rack, "{balancer}");
            assert_eq!(digest(&flat), digest(&one_rack), "{balancer}");
        }
    }
}
