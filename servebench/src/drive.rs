//! The traffic loops. Every request is timed on the client, around the
//! engine's public calls only: `Engine::submit_tagged` and `Ticket::wait`
//! for reads, `Engine::mutate` for writes.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use graphbig_engine::{Engine, Mutation, Query, QueryResponse, QueryStatus};
use graphbig_workloads::CostClass;

use crate::gen::{Crowd, Op};
use crate::trace::{Span, SpanLog};

/// One client operation as the client saw it.
#[derive(Debug)]
pub struct Record {
    pub op: Op,
    pub class: CostClass,
    /// From when the operation was due to when the client observed its
    /// completion, in microseconds.
    pub latency_us: f64,
    /// Time spent inside the submitting call.
    pub submit_us: f64,
    /// Engine-reported queue and execution time (reads only).
    pub queue_us: u64,
    pub exec_us: u64,
    /// From when the operation was due to when its submission started.
    pub lag_us: f64,
    /// Digest of a completed read's output.
    pub digest: Option<u64>,
    /// Completed (reads) or applied (writes).
    pub ok: bool,
}

/// What one measured pass produced.
#[derive(Default)]
pub struct Pass {
    pub records: Vec<Record>,
    /// Seconds the engine had work outstanding: the whole phase for a
    /// closed loop, the sum of wave durations for waves.
    pub busy_s: f64,
    pub spans: Vec<Span>,
    /// Distinct delta-seqs over a non-empty overlay at which a heavy read
    /// (traversal or analytics) was submitted. Traced passes only.
    pub new_seq_reads: u64,
    /// Largest overlay seen after a write. Traced passes only.
    pub overlay_edges_max: u64,
    pub overlay_bytes_max: u64,
    pub waves: usize,
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// State the closed-loop clients share while tracing.
#[derive(Default)]
struct Shared {
    seqs: Mutex<BTreeSet<u64>>,
    overlay_edges: AtomicU64,
    overlay_bytes: AtomicU64,
}

/// Closed loop: each client sends the next op of the shared list as soon
/// as its previous one completes, until `seconds` have passed.
pub fn closed_loop(
    engine: &Engine,
    ops: &[Op],
    clients: usize,
    seconds: f64,
    trace: Option<Instant>,
) -> Pass {
    let cursor = AtomicUsize::new(0);
    let shared = Shared::default();
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Record>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (cursor, shared) = (&cursor, &shared);
                s.spawn(move || {
                    let mut log = SpanLog::new(trace, c);
                    let mut out = Vec::new();
                    while start.elapsed() < limit {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let op = *ops.get(i).expect("op list sized for the run");
                        out.push(match op {
                            Op::Read(q) => read(engine, q, i as u64, &mut log, shared),
                            Op::Write(m) => write(engine, m, &mut log, shared),
                        });
                    }
                    (out, log.spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut pass = Pass {
        busy_s: start.elapsed().as_secs_f64(),
        new_seq_reads: shared.seqs.lock().expect("seq set lock").len() as u64,
        overlay_edges_max: shared.overlay_edges.load(Ordering::Relaxed),
        overlay_bytes_max: shared.overlay_bytes.load(Ordering::Relaxed),
        ..Pass::default()
    };
    for (records, spans) in per_client {
        pass.records.extend(records);
        pass.spans.extend(spans);
    }
    pass
}

fn read(engine: &Engine, q: Query, tag: u64, log: &mut SpanLog, shared: &Shared) -> Record {
    let class = q.class();
    if log.on() && class != CostClass::Point {
        let ov = engine.overlay();
        if !ov.is_empty() {
            shared.seqs.lock().expect("seq set lock").insert(ov.seq());
        }
    }
    let root = log.id();
    let t0 = Instant::now();
    let submitted = engine.submit_tagged(q, None, tag);
    let t1 = Instant::now();
    let mut rec = Record {
        op: Op::Read(q),
        class,
        latency_us: us(t1 - t0),
        submit_us: us(t1 - t0),
        queue_us: 0,
        exec_us: 0,
        lag_us: 0.0,
        digest: None,
        ok: false,
    };
    let Ok(ticket) = submitted else {
        log.record(root, 0, "client.read", 0, t0, t1);
        log.leaf(root, "engine.submit_tagged", 0, t0, t1);
        return rec;
    };
    let req = ticket.request_id();
    let response = ticket.wait();
    let t2 = Instant::now();
    rec.latency_us = us(t2 - t0);
    rec.queue_us = response.queue_us;
    rec.exec_us = response.exec_us;
    rec.digest = digest(&response);
    rec.ok = rec.digest.is_some();
    let t3 = Instant::now();
    log.record(root, 0, "client.read", req, t0, t3);
    log.leaf(root, "engine.submit_tagged", req, t0, t1);
    log.leaf(root, "engine.wait", req, t1, t2);
    rec
}

fn write(engine: &Engine, m: Mutation, log: &mut SpanLog, shared: &Shared) -> Record {
    let root = log.id();
    let t0 = Instant::now();
    let applied = engine.mutate(&[m]);
    let t1 = Instant::now();
    if log.on() {
        let ov = engine.overlay();
        shared
            .overlay_edges
            .fetch_max(ov.overlay_edges() as u64, Ordering::Relaxed);
        shared
            .overlay_bytes
            .fetch_max(ov.byte_size() as u64, Ordering::Relaxed);
    }
    log.record(root, 0, "client.write", 0, t0, Instant::now());
    log.leaf(root, "delta.mutate", 0, t0, t1);
    Record {
        op: Op::Write(m),
        class: CostClass::Write,
        latency_us: us(t1 - t0),
        submit_us: us(t1 - t0),
        queue_us: 0,
        exec_us: 0,
        lag_us: 0.0,
        digest: None,
        ok: applied.is_ok(),
    }
}

fn digest(response: &QueryResponse) -> Option<u64> {
    match &response.status {
        QueryStatus::Completed(o) => Some(o.digest()),
        _ => None,
    }
}

/// A wave request between submission and observation.
struct InFlight {
    q: Query,
    submitted: Instant,
    submit_end: Instant,
    observed: Instant,
    response: Option<QueryResponse>,
}

/// Waves: every request of a wave is due at the wave's start and is timed
/// from it; the next wave starts once the previous one has drained. One
/// client sends each wave lane by lane: it submits the wave's point
/// lookups and waits on them, then submits its traversals and waits on
/// them, each lane in submission order. Lookups that arrived together with
/// the traversals would wait or not depending on whether an executor took
/// a traversal batch in the wave's first microseconds, a race that varies
/// between runs far more than a change under test would. The traversals'
/// wait for the lookups counts in their latency and in the generator lag.
/// `Ticket::wait` blocks, so a ticket is observed only once the client
/// reaches it: an observed time can only be later than the true
/// completion, never earlier.
pub fn waves(engine: &Engine, crowd: &mut Crowd, seconds: f64, trace: Option<Instant>) -> Pass {
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut log = SpanLog::new(trace, 0);
    let mut pass = Pass::default();
    while start.elapsed() < limit {
        let wave = crowd.wave();
        let tag_base = (pass.waves as u64) << 32;
        let due = Instant::now();
        let mut flights: Vec<InFlight> = Vec::with_capacity(wave.len());
        let mut start = 0;
        while start < wave.len() {
            let class = wave[start].class();
            let end = start
                + wave[start..]
                    .iter()
                    .take_while(|q| q.class() == class)
                    .count();
            let mut tickets = Vec::with_capacity(end - start);
            for (i, &q) in wave.iter().enumerate().take(end).skip(start) {
                let t0 = Instant::now();
                let submitted = engine.submit_tagged(q, None, tag_base | i as u64);
                tickets.push((q, t0, Instant::now(), submitted.ok()));
            }
            for (q, submitted, submit_end, ticket) in tickets {
                let root = log.id();
                let (req, response, wait_start, observed) = match ticket {
                    Some(t) => {
                        let req = t.request_id();
                        let w = Instant::now();
                        let r = t.wait();
                        (req, Some(r), w, Instant::now())
                    }
                    None => (0, None, submit_end, submit_end),
                };
                log.record(root, 0, "client.read", req, due, observed);
                log.leaf(root, "engine.submit_tagged", req, submitted, submit_end);
                if response.is_some() {
                    log.leaf(root, "engine.wait", req, wait_start, observed);
                }
                flights.push(InFlight {
                    q,
                    submitted,
                    submit_end,
                    observed,
                    response,
                });
            }
            start = end;
        }
        let drained = flights.iter().map(|f| f.observed).max().unwrap_or(due);
        pass.busy_s += (drained - due).as_secs_f64();
        // Digest outside the timed window: the outputs were held until the
        // wave drained so that hashing never delays observing a ticket.
        for f in flights {
            let r = f.response.as_ref();
            let d = r.and_then(digest);
            pass.records.push(Record {
                op: Op::Read(f.q),
                class: f.q.class(),
                latency_us: us(f.observed - due),
                submit_us: us(f.submit_end - f.submitted),
                queue_us: r.map_or(0, |r| r.queue_us),
                exec_us: r.map_or(0, |r| r.exec_us),
                lag_us: us(f.submitted - due),
                digest: d,
                ok: d.is_some(),
            });
        }
        pass.waves += 1;
    }
    pass.spans = log.spans;
    pass
}
