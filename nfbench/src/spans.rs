//! In-memory spans around the benchmark's calls into the host, written out
//! when the run ends.
//!
//! A span has a name, a start and an end, the span that encloses it, the
//! generator pass (burst) it belongs to, and the count of packets that
//! crossed its boundary. Self time is a span's duration minus the time its
//! child spans cover. Every span is folded into per-name totals; the first
//! [`RAW_SPAN_CAP`] are also kept verbatim for the trace file.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept verbatim for the trace file; later ones only feed totals.
const RAW_SPAN_CAP: usize = 200_000;

/// One closed span.
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the verbatim list, if kept.
    pub parent: Option<usize>,
    /// The generator pass the span belongs to.
    pub burst: u64,
    /// Packets that crossed the boundary.
    pub count: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Default)]
pub struct Totals {
    /// Spans closed.
    pub spans: u64,
    /// Packets counted across them.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus child-covered time.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Slot reserved in the verbatim list (if under the cap).
    index: Option<usize>,
}

/// A stack-disciplined span recorder.
pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

/// Handle of an open span; spans close in reverse opening order.
#[must_use]
pub struct SpanToken(usize);

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn enter(&mut self, name: &'static str, burst: u64) -> SpanToken {
        let start_ns = self.now_ns();
        let index = (self.spans.len() < RAW_SPAN_CAP).then(|| {
            let parent = self.open.last().and_then(|o| o.index);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                burst,
                count: 0,
            });
            self.spans.len() - 1
        });
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            index,
        });
        SpanToken(self.open.len())
    }

    /// Closes the innermost span, recording `count` packets.
    pub fn exit(&mut self, token: SpanToken, count: u64) {
        assert_eq!(token.0, self.open.len(), "spans close innermost first");
        let open = self.open.pop().expect("a span is open");
        let end_ns = self.now_ns();
        let duration = end_ns - open.start_ns;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(index) = open.index {
            let span = &mut self.spans[index];
            span.end_ns = end_ns;
            span.count = count;
        }
        let totals = self.totals.entry(open.name).or_default();
        totals.spans += 1;
        totals.count += count;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(open.child_ns);
    }

    /// Totals of spans named `name`.
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Writes the verbatim spans and the per-name totals as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"burst\":{},\"count\":{}}}",
                span.name, span.start_ns, span.end_ns, span.burst, span.count
            )?;
        }
        for (name, t) in &self.totals {
            writeln!(
                out,
                "{{\"totals\":\"{name}\",\"spans\":{},\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.spans, t.count, t.total_ns, t.self_ns
            )?;
        }
        out.flush()
    }
}
