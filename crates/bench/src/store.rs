//! Content-addressed persistent result store.
//!
//! Every simulation result the experiment [`Engine`](crate::engine::Engine)
//! produces is stored under a 128-bit digest of *what was simulated*: the
//! canonical byte encoding ([`sim_model::KeyEncoder`]) of the core
//! configuration, core setup, workload pairing, base seed and simulation
//! length (plus a versioned kind tag). Identical requests — within one
//! process or across invocations — therefore resolve to the same entry, and
//! any change to any key component produces a different digest, so stale
//! results can never be served for a changed experiment.
//!
//! Entries are one JSON file per digest (`<digest>.json`) inside the store
//! directory, written atomically (temp file + rename) so a crashed run never
//! leaves a truncated entry behind; unreadable entries are treated as misses
//! and recomputed. Wipe the cache by deleting the directory (or via
//! [`ResultStore::wipe`]).
//!
//! Persistence goes through the explicit [`JsonCodec`] conversion trait,
//! one `to_json`/`from_json` pair per stored type, on the vendored
//! `serde_json` value tree. Round-trips are bit-exact for `f64` because the
//! serialiser prints shortest-representation floats and the parser restores
//! the identical bits — a warm-cache figure run renders byte-identical
//! tables. That includes `-0.0`, `±∞` and NaN, which the shim writes as
//! `-0`, `Infinity`/`-Infinity` and `NaN`/`-NaN` (see `vendor/README.md`),
//! so such a cell decodes on a warm run instead of being simulated again.

use cluster_sim::{FleetIntervalReport, FleetReport, ServerSummary};
use cpu_sim::ThreadRunResult;
use serde_json::Value;
use sim_qos::{LoadPoint, SlackPoint};
use sim_stats::Histogram;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::engine::{ServerOutcome, SmtOutcome};

/// Explicit JSON conversion for store payloads: each payload type spells
/// out its encoding.
pub trait JsonCodec: Sized {
    /// Encodes `self` as a JSON value.
    fn to_json(&self) -> Value;
    /// Decodes a value produced by [`JsonCodec::to_json`]; `None` marks a
    /// malformed or incompatible entry (treated as a cache miss).
    fn from_json(value: &Value) -> Option<Self>;
}

/// Builds a JSON object from `(key, value)` pairs.
fn obj(fields: Vec<(&str, Value)>) -> Value {
    let mut map = serde_json::Map::new();
    for (k, v) in fields {
        map.insert(k.to_string(), v);
    }
    Value::Object(map)
}

impl JsonCodec for f64 {
    fn to_json(&self) -> Value {
        Value::from(*self)
    }
    fn from_json(value: &Value) -> Option<f64> {
        value.as_f64()
    }
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(JsonCodec::to_json).collect())
    }
    fn from_json(value: &Value) -> Option<Vec<T>> {
        value.as_array()?.iter().map(T::from_json).collect()
    }
}

impl JsonCodec for String {
    fn to_json(&self) -> Value {
        Value::from(self.as_str())
    }
    fn from_json(value: &Value) -> Option<String> {
        value.as_str().map(str::to_string)
    }
}

impl JsonCodec for usize {
    fn to_json(&self) -> Value {
        Value::from(*self as u64)
    }
    fn from_json(value: &Value) -> Option<usize> {
        usize::try_from(value.as_u64()?).ok()
    }
}

impl JsonCodec for SmtOutcome {
    fn to_json(&self) -> Value {
        obj(vec![("names", self.names.to_json()), ("uipcs", self.uipcs.to_json())])
    }
    fn from_json(value: &Value) -> Option<SmtOutcome> {
        Some(SmtOutcome {
            names: Vec::from_json(value.get("names")?)?,
            uipcs: Vec::from_json(value.get("uipcs")?)?,
        })
    }
}

impl JsonCodec for ServerOutcome {
    fn to_json(&self) -> Value {
        obj(vec![
            ("names", self.names.to_json()),
            ("cores", self.cores.to_json()),
            ("uipcs", self.uipcs.to_json()),
        ])
    }
    fn from_json(value: &Value) -> Option<ServerOutcome> {
        Some(ServerOutcome {
            names: Vec::from_json(value.get("names")?)?,
            cores: Vec::from_json(value.get("cores")?)?,
            uipcs: Vec::from_json(value.get("uipcs")?)?,
        })
    }
}

impl JsonCodec for Histogram {
    fn to_json(&self) -> Value {
        let counts: Vec<Value> = (0..self.bins()).map(|b| Value::from(self.count(b))).collect();
        obj(vec![("counts", Value::Array(counts))])
    }
    fn from_json(value: &Value) -> Option<Histogram> {
        let counts = value.get("counts")?.as_array()?;
        if counts.len() < 2 {
            return None;
        }
        let mut h = Histogram::new(counts.len() - 1);
        for (bin, count) in counts.iter().enumerate() {
            let count = count.as_u64()?;
            if count > 0 {
                h.record_weighted(bin, count);
            }
        }
        Some(h)
    }
}

impl JsonCodec for ThreadRunResult {
    fn to_json(&self) -> Value {
        obj(vec![
            ("name", Value::from(self.name.as_str())),
            ("uipc", Value::from(self.uipc)),
            ("committed", Value::from(self.committed)),
            ("cycles", Value::from(self.cycles)),
            ("mlp", self.mlp.to_json()),
        ])
    }
    fn from_json(value: &Value) -> Option<ThreadRunResult> {
        Some(ThreadRunResult {
            name: value.get("name")?.as_str()?.to_string(),
            uipc: value.get("uipc")?.as_f64()?,
            committed: value.get("committed")?.as_u64()?,
            cycles: value.get("cycles")?.as_u64()?,
            mlp: Histogram::from_json(value.get("mlp")?)?,
        })
    }
}

impl JsonCodec for LoadPoint {
    fn to_json(&self) -> Value {
        obj(vec![
            ("load", Value::from(self.load)),
            ("mean_ms", Value::from(self.latency.mean_ms)),
            ("p95_ms", Value::from(self.latency.p95_ms)),
            ("p99_ms", Value::from(self.latency.p99_ms)),
            ("p995_ms", Value::from(self.latency.p995_ms)),
            ("max_ms", Value::from(self.latency.max_ms)),
            ("requests", Value::from(self.latency.requests)),
        ])
    }
    fn from_json(value: &Value) -> Option<LoadPoint> {
        Some(LoadPoint {
            load: value.get("load")?.as_f64()?,
            latency: sim_qos::LatencySummary {
                mean_ms: value.get("mean_ms")?.as_f64()?,
                p95_ms: value.get("p95_ms")?.as_f64()?,
                p99_ms: value.get("p99_ms")?.as_f64()?,
                p995_ms: value.get("p995_ms")?.as_f64()?,
                max_ms: value.get("max_ms")?.as_f64()?,
                requests: value.get("requests")?.as_u64()? as usize,
            },
        })
    }
}

impl JsonCodec for SlackPoint {
    fn to_json(&self) -> Value {
        obj(vec![
            ("load", Value::from(self.load)),
            ("required_performance", Value::from(self.required_performance)),
            ("feasible", Value::from(self.feasible)),
        ])
    }
    fn from_json(value: &Value) -> Option<SlackPoint> {
        Some(SlackPoint {
            load: value.get("load")?.as_f64()?,
            required_performance: value.get("required_performance")?.as_f64()?,
            feasible: value.get("feasible")?.as_bool()?,
        })
    }
}

impl JsonCodec for FleetIntervalReport {
    fn to_json(&self) -> Value {
        obj(vec![
            ("hour", Value::from(self.hour)),
            ("load", Value::from(self.load)),
            ("engaged_servers", Value::from(self.engaged_servers)),
            ("measured_servers", Value::from(self.measured_servers)),
            ("p99_ms", Value::from(self.p99_ms)),
            ("batch_throughput", Value::from(self.batch_throughput)),
        ])
    }
    fn from_json(value: &Value) -> Option<FleetIntervalReport> {
        Some(FleetIntervalReport {
            hour: value.get("hour")?.as_f64()?,
            load: value.get("load")?.as_f64()?,
            engaged_servers: value.get("engaged_servers")?.as_u64()? as usize,
            measured_servers: value.get("measured_servers")?.as_u64()? as usize,
            p99_ms: value.get("p99_ms")?.as_f64()?,
            batch_throughput: value.get("batch_throughput")?.as_f64()?,
        })
    }
}

impl JsonCodec for ServerSummary {
    fn to_json(&self) -> Value {
        obj(vec![
            ("engaged_intervals", Value::from(self.engaged_intervals)),
            ("starved_intervals", Value::from(self.starved_intervals)),
            ("p99_ms", Value::from(self.p99_ms)),
            ("requests", Value::from(self.requests)),
            ("mode_changes", Value::from(self.mode_changes)),
            ("throttle_events", Value::from(self.throttle_events)),
        ])
    }
    fn from_json(value: &Value) -> Option<ServerSummary> {
        Some(ServerSummary {
            engaged_intervals: value.get("engaged_intervals")?.as_u64()? as usize,
            starved_intervals: value.get("starved_intervals")?.as_u64()? as usize,
            p99_ms: value.get("p99_ms")?.as_f64()?,
            requests: value.get("requests")?.as_u64()? as usize,
            mode_changes: value.get("mode_changes")?.as_u64()?,
            throttle_events: value.get("throttle_events")?.as_u64()?,
        })
    }
}

impl JsonCodec for FleetReport {
    fn to_json(&self) -> Value {
        obj(vec![
            ("intervals", self.intervals.to_json()),
            ("servers", self.servers.to_json()),
            ("average_batch_throughput", Value::from(self.average_batch_throughput)),
            ("fraction_engaged", Value::from(self.fraction_engaged)),
            ("hours_engaged", Value::from(self.hours_engaged)),
            ("violation_fraction", Value::from(self.violation_fraction)),
            ("p50_ms", Value::from(self.p50_ms)),
            ("p95_ms", Value::from(self.p95_ms)),
            ("p99_ms", Value::from(self.p99_ms)),
            ("requests", Value::from(self.requests)),
        ])
    }
    fn from_json(value: &Value) -> Option<FleetReport> {
        Some(FleetReport {
            intervals: Vec::from_json(value.get("intervals")?)?,
            servers: Vec::from_json(value.get("servers")?)?,
            average_batch_throughput: value.get("average_batch_throughput")?.as_f64()?,
            fraction_engaged: value.get("fraction_engaged")?.as_f64()?,
            hours_engaged: value.get("hours_engaged")?.as_f64()?,
            violation_fraction: value.get("violation_fraction")?.as_f64()?,
            p50_ms: value.get("p50_ms")?.as_f64()?,
            p95_ms: value.get("p95_ms")?.as_f64()?,
            p99_ms: value.get("p99_ms")?.as_f64()?,
            requests: value.get("requests")?.as_u64()? as usize,
        })
    }
}

/// An on-disk, content-addressed store of experiment results.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, digest: &str) -> PathBuf {
        self.dir.join(format!("{digest}.json"))
    }

    /// Loads the payload stored under `digest`, or `None` when absent or
    /// unreadable (both are treated as misses by the engine).
    pub fn load(&self, digest: &str) -> Option<Value> {
        let text = fs::read_to_string(self.entry_path(digest)).ok()?;
        let doc = serde_json::from_str(&text).ok()?;
        doc.get("value").cloned()
    }

    /// Stores `value` under `digest`. `what` is a human-readable description
    /// kept alongside the payload so `ls`-ing the cache stays debuggable.
    ///
    /// The write is atomic (unique temp file + rename), so concurrent
    /// writers of the same digest race benignly: both write identical
    /// content and the loser's rename simply replaces it.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the entry cannot be written.
    pub fn save(&self, digest: &str, what: &str, value: &Value) -> io::Result<()> {
        let doc = obj(vec![
            ("key", Value::from(digest)),
            ("what", Value::from(what)),
            ("value", value.clone()),
        ]);
        let text = serde_json::to_string_pretty(&doc).expect("Value rendering is infallible");
        let tmp = self.dir.join(format!(
            "{digest}.tmp.{}.{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::write(&tmp, text)?;
        fs::rename(&tmp, self.entry_path(digest))
    }

    /// Number of entries currently stored.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be read.
    pub fn entries(&self) -> io::Result<usize> {
        let mut n = 0;
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json") {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Deletes every entry, returning how many were removed.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be read or
    /// an entry cannot be removed.
    pub fn wipe(&self) -> io::Result<usize> {
        let mut n = 0;
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json") {
                fs::remove_file(&path)?;
                n += 1;
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ResultStore {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("stretch-store-test-{tag}-{}-{unique}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(dir).expect("temp store")
    }

    #[test]
    fn save_load_round_trips_pair_outcomes() {
        // The Engine stores a pair as a two-slot `smt/v1` cell.
        let store = temp_store("pair");
        let outcome = SmtOutcome {
            names: vec!["web-search".to_string(), "zeusmp".to_string()],
            uipcs: vec![1.2345678901234567, 0.9876543210987654],
        };
        store
            .save("abc123", "smt web-search x zeusmp", &outcome.to_json())
            .expect("a fresh temp store is writable");
        let loaded = SmtOutcome::from_json(&store.load("abc123").expect("present"))
            .expect("a saved outcome decodes back");
        assert_eq!(loaded, outcome);
        assert_eq!(loaded.uipcs[0].to_bits(), outcome.uipcs[0].to_bits(), "f64 must be bit-exact");
        assert_eq!(store.entries().expect("the store directory is listable"), 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn smt_and_server_outcomes_round_trip() {
        let smt = SmtOutcome {
            names: vec!["web-search".to_string(), "zeusmp".to_string(), "gcc".to_string()],
            uipcs: vec![0.7182818284590452, 0.3141592653589793, 0.5772156649015329],
        };
        let restored =
            SmtOutcome::from_json(&smt.to_json()).expect("an encoded outcome decodes back");
        assert_eq!(restored, smt);
        assert_eq!(restored.uipcs[0].to_bits(), smt.uipcs[0].to_bits(), "f64 must be bit-exact");

        let server = ServerOutcome {
            names: smt.names.clone(),
            cores: vec![vec![0], vec![1, 2]],
            uipcs: smt.uipcs.clone(),
        };
        let restored =
            ServerOutcome::from_json(&server.to_json()).expect("an encoded outcome decodes back");
        assert_eq!(restored, server);
        // A malformed placement is a miss, not a panic.
        assert!(ServerOutcome::from_json(&obj(vec![("names", Value::Null)])).is_none());
    }

    #[test]
    fn negative_zero_and_non_finite_floats_survive_the_store() {
        // One value per codec that carries f64 fields, filled with what a
        // lossy writer breaks: -0.0 printed through an integer reads back as
        // +0.0, and ±∞ or NaN printed as `null` does not decode at all (the
        // cell would be simulated again on every warm run).
        fn round_trip<T: JsonCodec>(store: &ResultStore, value: &T) -> T {
            store.save("cell", "awkward floats", &value.to_json()).expect("writable");
            T::from_json(&store.load("cell").expect("present")).expect("decodes")
        }
        fn bits(values: &[f64]) -> Vec<u64> {
            values.iter().map(|v| v.to_bits()).collect()
        }
        let store = temp_store("awkward");
        let awkward = [-0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN];
        let [zero, inf, neg_inf, nan, neg_nan] = awkward;

        for x in awkward {
            assert_eq!(round_trip(&store, &x).to_bits(), x.to_bits(), "{x:?}");
        }
        assert_eq!(bits(&round_trip(&store, &awkward.to_vec())), bits(&awkward));

        let names = vec!["web-search".to_string(), "zeusmp".to_string()];
        let smt = SmtOutcome { names: names.clone(), uipcs: vec![zero, neg_nan] };
        assert_eq!(bits(&round_trip(&store, &smt).uipcs), bits(&smt.uipcs));
        let server = ServerOutcome { names, cores: vec![vec![0], vec![1]], uipcs: vec![inf, zero] };
        assert_eq!(bits(&round_trip(&store, &server).uipcs), bits(&server.uipcs));

        let run = ThreadRunResult {
            name: "zeusmp".to_string(),
            uipc: neg_nan,
            committed: 0,
            cycles: 0,
            mlp: Histogram::new(2),
        };
        assert_eq!(round_trip(&store, &run).uipc.to_bits(), run.uipc.to_bits());

        let point = LoadPoint {
            load: zero,
            latency: sim_qos::LatencySummary {
                mean_ms: nan,
                p95_ms: inf,
                p99_ms: neg_inf,
                p995_ms: neg_nan,
                max_ms: zero,
                requests: 0,
            },
        };
        let p = round_trip(&store, &point);
        let floats = |p: &LoadPoint| {
            let l = &p.latency;
            bits(&[p.load, l.mean_ms, l.p95_ms, l.p99_ms, l.p995_ms, l.max_ms])
        };
        assert_eq!(floats(&p), floats(&point));

        let slack = SlackPoint { load: zero, required_performance: inf, feasible: false };
        let s = round_trip(&store, &slack);
        assert_eq!(bits(&[s.load, s.required_performance]), bits(&[zero, inf]));

        // FleetReport carries the FleetIntervalReport and ServerSummary codecs.
        let report = FleetReport {
            intervals: vec![FleetIntervalReport {
                hour: zero,
                load: nan,
                engaged_servers: 0,
                measured_servers: 0,
                p99_ms: inf,
                batch_throughput: neg_nan,
            }],
            servers: vec![ServerSummary {
                engaged_intervals: 0,
                starved_intervals: 96,
                p99_ms: neg_inf,
                requests: 0,
                mode_changes: 0,
                throttle_events: 0,
            }],
            average_batch_throughput: neg_nan,
            fraction_engaged: zero,
            hours_engaged: zero,
            violation_fraction: nan,
            p50_ms: inf,
            p95_ms: neg_inf,
            p99_ms: nan,
            requests: 0,
        };
        let floats = |r: &FleetReport| {
            let (i, s) = (&r.intervals[0], &r.servers[0]);
            bits(&[
                i.hour,
                i.load,
                i.p99_ms,
                i.batch_throughput,
                s.p99_ms,
                r.average_batch_throughput,
                r.fraction_engaged,
                r.hours_engaged,
                r.violation_fraction,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms,
            ])
        };
        assert_eq!(floats(&round_trip(&store, &report)), floats(&report));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_and_corrupt_entries_are_misses() {
        let store = temp_store("corrupt");
        assert!(store.load("nope").is_none());
        fs::write(store.entry_path("bad"), "{not json").expect("the temp store dir is writable");
        assert!(store.load("bad").is_none());
        fs::write(store.entry_path("novalue"), "{\"key\":\"novalue\"}")
            .expect("the temp store dir is writable");
        assert!(store.load("novalue").is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn wipe_empties_the_store() {
        let store = temp_store("wipe");
        store.save("a", "x", &Value::from(1.0)).expect("a fresh temp store is writable");
        store.save("b", "y", &Value::from(2.0)).expect("a fresh temp store is writable");
        assert_eq!(store.entries().expect("the store directory is listable"), 2);
        assert_eq!(store.wipe().expect("wiping an existing store succeeds"), 2);
        assert_eq!(store.entries().expect("the store directory is listable"), 0);
        assert!(store.load("a").is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn histogram_codec_preserves_census() {
        let mut h = Histogram::new(6);
        h.record_weighted(0, 1000);
        h.record_weighted(2, 50);
        h.record_weighted(9, 3); // catch-all bin
        let restored =
            Histogram::from_json(&h.to_json()).expect("an encoded histogram decodes back");
        assert_eq!(restored, h);
        assert_eq!(restored.total(), h.total());
        assert_eq!(restored.fraction_at_least(2), h.fraction_at_least(2));
    }

    #[test]
    fn thread_run_result_round_trips() {
        let mut mlp = Histogram::new(4);
        mlp.record_weighted(1, 17);
        let r = ThreadRunResult {
            name: "zeusmp".to_string(),
            uipc: 1.5,
            committed: 100_000,
            cycles: 66_667,
            mlp,
        };
        let restored =
            ThreadRunResult::from_json(&r.to_json()).expect("an encoded run result decodes back");
        assert_eq!(restored.name, r.name);
        assert_eq!(restored.uipc.to_bits(), r.uipc.to_bits());
        assert_eq!(restored.committed, r.committed);
        assert_eq!(restored.cycles, r.cycles);
        assert_eq!(restored.mlp, r.mlp);
    }

    #[test]
    fn slack_point_codec_keeps_the_feasibility_flag() {
        let p = SlackPoint { load: 0.9, required_performance: 1.0, feasible: false };
        let restored =
            SlackPoint::from_json(&p.to_json()).expect("an encoded slack point decodes back");
        assert_eq!(restored, p);
        assert!(!restored.feasible);
    }

    #[test]
    fn fleet_report_codec_round_trips_bit_exactly() {
        let report = FleetReport {
            intervals: vec![FleetIntervalReport {
                hour: 0.25,
                load: 0.424242424242,
                engaged_servers: 7,
                measured_servers: 15,
                p99_ms: 81.52007759784479,
                batch_throughput: 1.0962499999999,
            }],
            servers: vec![ServerSummary {
                engaged_intervals: 39,
                starved_intervals: 3,
                p99_ms: 77.123456789,
                requests: 14_400,
                mode_changes: 4,
                throttle_events: 1,
            }],
            average_batch_throughput: 1.044973958333333,
            fraction_engaged: 0.408854166666,
            hours_engaged: 9.8125,
            violation_fraction: 0.0182291666,
            p50_ms: 16.25,
            p95_ms: 55.5,
            p99_ms: 81.52007759784479,
            requests: 115_200,
        };
        let restored = FleetReport::from_json(&report.to_json()).expect("decodes");
        assert_eq!(restored, report);
        assert_eq!(restored.p99_ms.to_bits(), report.p99_ms.to_bits());
        assert_eq!(
            restored.intervals[0].batch_throughput.to_bits(),
            report.intervals[0].batch_throughput.to_bits()
        );
        assert_eq!(restored.servers[0].mode_changes, 4);
    }
}
