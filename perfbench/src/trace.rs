//! In-memory spans for the traced run.
//!
//! A span records one call into a layer: its name, layer, start and end
//! (nanoseconds since the run's epoch), the span that caused it, and the
//! id shared by every span of one request. Spans stay in memory while
//! the workload runs and are written out as JSON lines when it ends.
//!
//! A layer's self time is the sum, over its spans, of each span's
//! duration minus its children's durations. Children are subtracted by
//! duration rather than by interval overlap because some are replays:
//! the daemon's internal stages of a wire round trip are re-executed in
//! process after the round trip, so they are children in the call tree
//! without lying inside the parent's interval.

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every layer the benchmark attributes time to (crate names, plus the
/// load generator).
pub const LAYERS: [&str; 9] = [
    "serve",
    "core",
    "solver",
    "algorithms",
    "exact",
    "heuristics",
    "sim",
    "multicrit",
    "loadgen",
];

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer; buffers of several threads share an epoch
/// and are merged when the workload ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        duration: Duration,
    ) -> usize {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a new span and returns its result and the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, layer, parent, request, start, start.elapsed());
        (out, id)
    }

    /// Opens a span to be closed with [`Tracer::end`]; for spans whose
    /// children are recorded while it is open.
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let now = Instant::now();
        self.record(name, layer, parent, request, now, Duration::ZERO)
    }

    pub fn end(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        self.spans[id].end_ns = now;
    }

    pub fn duration(&self, id: usize) -> Duration {
        Duration::from_nanos(self.spans[id].duration_ns())
    }

    /// Appends another buffer's spans, re-basing its parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in milliseconds; every layer of [`LAYERS`]
    /// is present (zero when it recorded nothing).
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = span.duration_ns().saturating_sub(children);
            *out.entry(span.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Value::Object(vec![
                ("id".into(), Value::Int(id as i128)),
                ("name".into(), Value::String(span.name.into())),
                ("layer".into(), Value::String(span.layer.into())),
                ("start_ns".into(), Value::Int(span.start_ns as i128)),
                ("end_ns".into(), Value::Int(span.end_ns as i128)),
                (
                    "parent".into(),
                    span.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                ),
                ("request".into(), Value::Int(span.request as i128)),
            ]);
            let text = serde_json::to_string(&line).map_err(std::io::Error::other)?;
            writeln!(out, "{text}")?;
        }
        out.flush()
    }
}
