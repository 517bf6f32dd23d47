//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions and
//! kept in memory; [`Tracer::write_jsonl`] writes them out once the run
//! ends. A layer's self time is its span's duration minus the durations of
//! its direct children.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span. Times are offsets from the tracer's creation.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// Operation (request) the span belongs to.
    pub req: u64,
    /// Measured inside the program and read from its report (or by a
    /// separate call), rather than timed around a call by the tracer.
    pub derived: bool,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }
}

impl Tracer {
    /// Starts operation `req`: spans opened from now on carry its id.
    pub fn set_req(&mut self, req: u64) {
        self.req = req;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            req: self.req,
            derived: false,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Records a child of `parent` whose duration was measured elsewhere;
    /// it is placed at the start of its parent.
    pub fn derived(&mut self, parent: usize, name: &'static str, dur: Duration) -> usize {
        let start = self.spans[parent].start;
        self.spans.push(Span {
            name,
            start,
            end: start + dur,
            parent: Some(parent),
            req: self.spans[parent].req,
            derived: true,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (summed self time, number of spans).
    pub fn self_times(&self) -> BTreeMap<&'static str, (Duration, usize)> {
        let mut child_sum = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, (Duration, usize)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_sum) {
            let e = out.entry(s.name).or_default();
            e.0 += s.duration().saturating_sub(*c);
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"derived\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.req,
                s.derived
            )?;
        }
        w.flush()
    }
}
