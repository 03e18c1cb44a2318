//! Output checking and failure accounting.
//!
//! Every operation — one rendered figure, one simulated fleet day — hashes
//! its output. At the default seed the hash must equal the digest pinned
//! below; at any other seed every repetition within the run must reproduce
//! the first one's digest. A panic, a digest mismatch or a failed assertion
//! counts as a failed operation.

use std::collections::BTreeMap;

use cluster_sim::FleetReport;

/// The seed the pinned digests were taken at.
pub const DEFAULT_SEED: u64 = 42;

/// Output digests at [`DEFAULT_SEED`]: each figure's rendered bytes at the
/// quick 1x2 sub-matrix, and each fleet day's full `FleetReport`.
const PINNED: [(&str, u64); 19] = [
    ("figure01", 0xefa8_e311_c4b4_b7ab),
    ("figure02", 0xcef6_5cdf_0876_d422),
    ("figure03", 0x2fd0_3462_48b5_19eb),
    ("figure04", 0x4e65_ca3a_bbc4_19ef),
    ("figure05", 0xf7b0_59bf_bdc0_66ea),
    ("figure06", 0xf4f3_e697_c286_a65e),
    ("figure07", 0x00fe_ff91_08a5_6144),
    ("figure09", 0xe5d6_b193_0dd3_8ec9),
    ("figure10", 0x72fa_280a_49ba_b8d0),
    ("figure11", 0x10eb_39fc_2e59_c6da),
    ("figure12", 0x5806_3e1a_212d_e4cd),
    ("figure13", 0x0be9_0e51_ce05_9933),
    ("figure14", 0xf92f_143d_a74a_96c6),
    ("figure14_measured", 0xbdc9_dd4f_f354_56cf),
    ("figure15_allocation", 0xf6f9_339a_7ea7_2494),
    ("tables", 0x7518_62cd_4f90_d6a3),
    ("fleet-datacenter", 0x6434_e3eb_aa6c_0d62),
    ("fleet-study.ws", 0xaecd_b555_e038_569d),
    ("fleet-study.yt", 0x2994_205f_def7_b5e9),
];

/// FNV-1a over bytes.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Fnv {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a figure's rendered text.
pub fn text_digest(text: &str) -> u64 {
    Fnv::new().bytes(text.as_bytes()).finish()
}

/// Digest of every field of a fleet report, floats by their bits.
pub fn fleet_digest(r: &FleetReport) -> u64 {
    let mut h = Fnv::new();
    for i in &r.intervals {
        h.f64(i.hour).f64(i.load).u64(i.engaged_servers as u64).u64(i.measured_servers as u64);
        h.f64(i.p99_ms).f64(i.batch_throughput);
    }
    for s in &r.servers {
        h.u64(s.engaged_intervals as u64).u64(s.starved_intervals as u64).f64(s.p99_ms);
        h.u64(s.requests as u64).u64(s.mode_changes).u64(s.throttle_events);
    }
    h.f64(r.average_batch_throughput).f64(r.fraction_engaged).f64(r.hours_engaged);
    h.f64(r.violation_fraction).f64(r.p50_ms).f64(r.p95_ms).f64(r.p99_ms);
    h.u64(r.requests as u64).finish()
}

/// Counts attempted and failed operations and remembers expected digests.
pub struct Checker {
    expected: BTreeMap<String, u64>,
    seen: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checker {
    pub fn new(seed: u64) -> Checker {
        let expected = if seed == DEFAULT_SEED {
            PINNED.iter().map(|&(name, d)| (name.to_string(), d)).collect()
        } else {
            BTreeMap::new()
        };
        Checker { expected, seen: BTreeMap::new(), attempted: 0, failed: 0, errors: Vec::new() }
    }

    /// One operation finished with output digest `digest`.
    pub fn op(&mut self, name: &str, digest: u64) {
        self.attempted += 1;
        self.seen.entry(name.to_string()).or_insert(digest);
        let expected = *self.expected.entry(name.to_string()).or_insert(digest);
        if expected != digest {
            self.fail(format!("{name}: digest {digest:#018x}, expected {expected:#018x}"));
        }
    }

    /// `count` operations were attempted but died (a panic).
    pub fn panicked(&mut self, what: &str, count: u64) {
        self.attempted += count;
        self.failed += count - 1;
        self.fail(format!("{what}: panicked"));
    }

    /// One checked invariant (a replay matching the engine, a warm render
    /// simulating nothing), counted as an operation of its own.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.errors.push(message);
    }

    /// The first digest seen for each operation, for comparing two builds
    /// at a seed with no pinned values.
    pub fn digests(&self) -> impl Iterator<Item = (&String, &u64)> {
        self.seen.iter()
    }
}
