//! In-memory spans recorded by the harness around its calls into each
//! layer of the engine. Nothing here reaches into the program: a span is
//! opened and closed by the benchmark on either side of a public call.
//!
//! A span's name is `<layer>.<call>`; its layer is the part before the
//! first dot. Spans of one request share `req`, the engine's
//! `Ticket::request_id` (the id the flight recorder uses), or 0 where the
//! call mints none (writes, replays). Each client thread keeps its own
//! log, so recording takes no lock; the logs are merged and written out
//! once the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span log. Disabled logs record nothing, so the untraced
/// run pays one branch per call site.
pub struct SpanLog {
    /// Origin of span times; `None` disables the log.
    epoch: Option<Instant>,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A log for thread `thread` whose times count from `epoch` (`None`
    /// for a disabled log). All logs of a run share one epoch.
    pub fn new(epoch: Option<Instant>, thread: usize) -> SpanLog {
        SpanLog {
            epoch,
            next: ((thread as u64) + 1) << 40,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.epoch.is_some()
    }

    /// Reserve an id, so a parent can be named before it is recorded.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if let Some(epoch) = self.epoch {
            let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent,
                name,
                req,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Record a span with a fresh id.
    pub fn leaf(
        &mut self,
        parent: u64,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.id();
        self.record(id, parent, name, req, start, end);
    }
}

fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, in milliseconds: each span's duration minus the
/// part of its interval that its children cover (children of one span are
/// sequential calls of one thread, so they do not overlap each other).
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    let bounds: HashMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let (a, b) = (s.start_ns.max(ps), s.end_ns.min(pe));
            *covered.entry(s.parent).or_default() += b.saturating_sub(a);
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let own = dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        *out.entry(layer(s.name).to_string()).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Write the spans as one JSON document.
pub fn write(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"schema\":\"servebench.spans/v1\",{header},\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",\n")?;
        }
        write!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    w.write_all(b"]}\n")?;
    w.flush()
}
