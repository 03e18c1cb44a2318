//! In-memory wall-clock spans recorded around calls into the simulator's
//! public API. Spans nest (each records its parent), are kept in memory for
//! the whole run and are written out as JSON once the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
struct Span {
    name: String,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

/// A span recorder. `open`/`close` must pair up like brackets.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_s = self.now();
        self.spans.push(Span {
            name: name.into(),
            start_s,
            end_s: f64::NAN,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_s = self.now();
    }

    /// Records `f` as one leaf span; returns its result and duration in
    /// seconds.
    pub fn leaf<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(name);
        let out = f();
        self.close(id);
        (out, self.spans[id].end_s - self.spans[id].start_s)
    }

    fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Self time of the last span called `name`: its duration minus the
    /// time its direct children cover. Children of one span run one after
    /// another, so their durations add up without overlap.
    pub fn self_time(&self, name: &str) -> Option<f64> {
        let i = self.find(name)?;
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(i)).map(|s| s.end_s - s.start_s).sum();
        Some(self.spans[i].end_s - self.spans[i].start_s - children)
    }

    /// Writes every span as JSON: `{"spans": [{name, start_s, end_s, parent}]}`
    /// with times in seconds since the tracer was created.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
                s.name, s.start_s, s.end_s
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}
