//! servebench: the serving benchmark for `graphbig-engine`.
//!
//! ```text
//! servebench --workload <read_mix|write_mix|flash_crowd> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Stands up an `Engine` on LDBC-64k, drives one seeded workload through
//! the engine's public calls for `--seconds`, times every call on the
//! client, and checks every output. The last line of standard output is
//! one JSON object: `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer metrics of a traced pass (plus an untraced reference pass
//! that prices the tracing). The lines before it record the environment
//! and a per-class summary. See README.md beside this crate.

mod drive;
mod gen;
mod layers;
mod trace;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use graphbig_datagen::Dataset;
use graphbig_engine::traffic::{live_engine_digest, sequential_digests};
use graphbig_engine::{
    Engine, EngineConfig, EpochSnapshot, MutationBuffer, Query, QueryStatus, ShardedGraph,
};
use graphbig_framework::csr::Csr;
use graphbig_telemetry::metrics::Registry;
use graphbig_workloads::{CostClass, Workload};

use drive::Pass;
use gen::Op;
use trace::SpanLog;

/// LDBC-64k: the serving dataset of every workload.
const VERTICES: usize = 1 << 16;
/// Timed set-ups per run; `setup_s` is their median. One set-up varies by
/// up to 40% from the next in the same process; the median of 9 spread
/// 8% across processes, against 15% for 5. One untimed warm-up set-up
/// goes first: the process's first set-up pays its first page faults and
/// allocator growth, and ran 20-40% slower than the rest.
const SETUP_REPS: usize = 9;
/// Reads per class sent through the buffered overlay on `write_mix`:
/// point lookups, traversals, and one of each analytics kernel.
const OVERLAY_READS: [(CostClass, usize); 3] = [
    (CostClass::Point, 32),
    (CostClass::Traversal, 4),
    (CostClass::Analytics, 3),
];
/// Tag of the overlay reads, above every traffic tag.
const OVERLAY_TAG: u64 = 1 << 62;
/// Upper bound on closed-loop requests per second of run; the op list is
/// generated up front and must never run out.
const OPS_PER_SECOND: f64 = 5_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReadMix,
    WriteMix,
    FlashCrowd,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::ReadMix, Kind::WriteMix, Kind::FlashCrowd];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReadMix => "read_mix",
            Kind::WriteMix => "write_mix",
            Kind::FlashCrowd => "flash_crowd",
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: servebench --workload <read_mix|write_mix|flash_crowd> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut args = Args {
            kind: Kind::ReadMix,
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut workload = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Kind::ALL
                            .into_iter()
                            .find(|k| k.name() == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value for --trace: {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        args.kind = workload.ok_or("--workload is required")?;
        if !(args.seconds > 0.0 && args.seconds <= 600.0) {
            return Err(format!(
                "--seconds must be in (0, 600], got {}",
                args.seconds
            ));
        }
        Ok(args)
    }
}

/// Metrics in print order: name, value, unit. A value is NaN when it has
/// no samples.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, ..)| n == name).map_or(0.0, |m| m.1)
    }

    /// End-to-end metrics must be measured: a NaN (no samples) or a
    /// non-positive value fails the run instead of reading as a gain.
    fn require_measured(&self) -> Result<(), String> {
        let bad: Vec<&str> = self
            .0
            .iter()
            .filter(|(_, v, _)| !(v.is_finite() && *v > 0.0))
            .map(|(n, ..)| n.as_str())
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "end-to-end metrics without samples: {}",
                bad.join(", ")
            ))
        }
    }

    /// A per-layer metric whose layer the workload does not exercise has
    /// no samples and prints as 0.
    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The `q`-quantile of `v`, linearly interpolated between order
/// statistics; NaN for an empty sample.
pub fn pct(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let h = (s.len() - 1) as f64 * q;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (h - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    pct(v, 0.5)
}

/// One stood-up engine with the seconds each set-up stage took.
struct Setup {
    engine: Engine,
    reg: Registry,
    generate_s: f64,
    csr_s: f64,
    new_s: f64,
}

fn setup(cfg: &EngineConfig) -> Setup {
    let t0 = Instant::now();
    let graph = Dataset::Ldbc.generate_with_vertices(VERTICES);
    let t1 = Instant::now();
    let csr = Csr::from_graph(&graph);
    let t2 = Instant::now();
    let reg = Registry::new();
    let engine = Engine::with_registry(cfg.clone(), csr, &reg);
    let t3 = Instant::now();
    drop(graph);
    Setup {
        engine,
        reg,
        generate_s: (t1 - t0).as_secs_f64(),
        csr_s: (t2 - t1).as_secs_f64(),
        new_s: (t3 - t2).as_secs_f64(),
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Drive one pass of the workload against `engine`.
fn run_pass(
    engine: &Engine,
    base: &EpochSnapshot,
    args: &Args,
    clients: usize,
    trace: Option<Instant>,
) -> Pass {
    match args.kind {
        Kind::ReadMix | Kind::WriteMix => {
            let count = (args.seconds * OPS_PER_SECOND) as usize + 10_000;
            let ops =
                gen::closed_loop_ops(base.graph(), args.seed, args.kind == Kind::WriteMix, count);
            drive::closed_loop(engine, &ops, clients, args.seconds, trace)
        }
        Kind::FlashCrowd => {
            let mut crowd = gen::Crowd::new(base.graph(), args.seed);
            drive::waves(engine, &mut crowd, args.seconds, trace)
        }
    }
}

/// The oracle's memo key. `run_service` ignores the source of the
/// whole-graph kernels, so one sequential run answers all of their
/// requests; traversal-rooted kernels and point lookups keep their source.
fn oracle_key(q: Query) -> Query {
    match q {
        Query::Run { workload, .. } if !matches!(workload, Workload::Bfs | Workload::SPath) => {
            Query::Run {
                workload,
                source: 0,
            }
        }
        q => q,
    }
}

/// Every completed read must match a sequential run of the same query on
/// the base snapshot. `memo` carries oracle digests across passes.
fn verify_reads(
    pass: &Pass,
    engine: &Engine,
    base: &EpochSnapshot,
    memo: &mut HashMap<Query, Option<u64>>,
) -> Result<usize, String> {
    let mut missing: Vec<Query> = Vec::new();
    for r in pass.records.iter().filter(|r| r.digest.is_some()) {
        if let Op::Read(q) = r.op {
            let key = oracle_key(q);
            if let std::collections::hash_map::Entry::Vacant(e) = memo.entry(key) {
                e.insert(None);
                missing.push(key);
            }
        }
    }
    let digests = sequential_digests(base.graph(), engine.pool(), &missing);
    memo.extend(missing.into_iter().zip(digests));
    let mut checked = 0;
    for r in &pass.records {
        if let (Op::Read(q), Some(got)) = (r.op, r.digest) {
            match memo[&oracle_key(q)] {
                Some(want) if want == got => checked += 1,
                want => {
                    return Err(format!(
                        "read {q:?}: engine digest {got:#018x}, sequential oracle {want:?}"
                    ))
                }
            }
        }
    }
    Ok(checked)
}

/// Reads through the delta overlay: with the writes still buffered, a
/// sample of the pass's own reads (distinct oracle keys, up to a cap per
/// class, one per analytics kernel) is sent through the engine once more
/// and must match a sequential run on the replayed overlay, materialized.
fn verify_overlay_reads(
    pass: &Pass,
    engine: &Engine,
    replayed: &ShardedGraph,
) -> Result<(), String> {
    let mut sample: Vec<Query> = Vec::new();
    for r in &pass.records {
        if let Op::Read(q) = r.op {
            let key = oracle_key(q);
            let cap = OVERLAY_READS
                .iter()
                .find(|(c, _)| *c == q.class())
                .map_or(0, |&(_, cap)| cap);
            let taken = sample.iter().filter(|s| s.class() == q.class()).count();
            let kernel = |s: &Query| match (*s, key) {
                (Query::Run { workload: a, .. }, Query::Run { workload: b, .. }) => a == b,
                _ => false,
            };
            let seen = sample.contains(&key)
                || (q.class() == CostClass::Analytics && sample.iter().any(kernel));
            if taken < cap && !seen {
                sample.push(key);
            }
        }
    }
    let want = sequential_digests(replayed, engine.pool(), &sample);
    for (i, (&q, want)) in sample.iter().zip(want).enumerate() {
        let got = match engine.submit_tagged(q, None, OVERLAY_TAG | i as u64) {
            Ok(ticket) => match ticket.wait().status {
                QueryStatus::Completed(o) => Some(o.digest()),
                status => return Err(format!("overlay read {q:?} ended {status:?}")),
            },
            Err(e) => return Err(format!("overlay read {q:?} rejected: {e:?}")),
        };
        if got != want {
            return Err(format!(
                "overlay read {q:?}: engine digest {got:?}, sequential oracle on the replay {want:?}"
            ));
        }
    }
    Ok(())
}

/// The live graph must equal a sequential `MutationBuffer` replay of the
/// applied writes over the base, both with the overlay still buffered and
/// after `Engine::compact`; while the overlay is buffered, reads through it
/// must match the replay too. Returns the compaction's milliseconds.
fn verify_writes(
    pass: &Pass,
    engine: &Engine,
    base: &EpochSnapshot,
    log: &mut SpanLog,
) -> Result<f64, String> {
    let buffer = MutationBuffer::new(base.epoch(), base.graph().num_vertices() as u32);
    for r in pass.records.iter().filter(|r| r.ok) {
        if let Op::Write(m) = r.op {
            buffer.apply(base.graph(), &[m]);
        }
    }
    let replayed = buffer.current();
    let want = replayed.live_digest(base.graph());
    let mid = live_engine_digest(engine);
    if mid != want {
        return Err(format!(
            "live graph {mid:#018x} (mid-overlay) != sequential replay {want:#018x}"
        ));
    }
    if !replayed.is_empty() {
        verify_overlay_reads(
            pass,
            engine,
            &replayed.materialize(base.graph(), base.graph().shards().len()),
        )?;
    }
    let t0 = Instant::now();
    engine.compact();
    let t1 = Instant::now();
    log.leaf(0, "delta.compact", 0, t0, t1);
    let folded = live_engine_digest(engine);
    if folded != want {
        return Err(format!(
            "live graph {folded:#018x} (compacted) != sequential replay {want:#018x}"
        ));
    }
    Ok((t1 - t0).as_nanos() as f64 / 1e6)
}

/// Gates every pass: no operation may fail (the queue admits a whole
/// wave and no request carries a deadline); reads are checked against the
/// sequential oracle (on the workloads whose reads all see the base
/// snapshot), and writes against the sequential replay.
fn verify(
    args: &Args,
    pass: &Pass,
    engine: &Engine,
    base: &EpochSnapshot,
    memo: &mut HashMap<Query, Option<u64>>,
    log: &mut SpanLog,
    errors: &mut Vec<String>,
) -> f64 {
    let failed = pass.records.iter().filter(|r| !r.ok).count();
    if failed > 0 {
        errors.push(format!(
            "{failed} of {} operations failed (rejected, or ended other than completed)",
            pass.records.len()
        ));
    }
    if args.kind != Kind::WriteMix {
        if let Err(e) = verify_reads(pass, engine, base, memo) {
            errors.push(e);
        }
    }
    verify_writes(pass, engine, base, log).unwrap_or_else(|e| {
        errors.push(e);
        0.0
    })
}

/// Client-observed latencies of a class's completed operations, in ms.
pub fn class_ms(pass: &Pass, class: CostClass) -> Vec<f64> {
    pass.records
        .iter()
        .filter(|r| r.ok && r.class == class)
        .map(|r| r.latency_us / 1e3)
        .collect()
}

fn throughput(pass: &Pass) -> f64 {
    pass.records.iter().filter(|r| r.ok).count() as f64 / pass.busy_s.max(1e-9)
}

/// A per-class line: samples, failures, and client-observed percentiles,
/// each percentile with the number of samples beyond it.
fn summary(pass: &Pass) -> String {
    let classes: Vec<String> = CostClass::ALL
        .iter()
        .map(|&c| {
            let all = pass.records.iter().filter(|r| r.class == c).count();
            let v = class_ms(pass, c);
            let qs: Vec<String> = [0.25, 0.50, 0.75, 0.90, 0.95, 0.99]
                .iter()
                .map(|&q| {
                    let beyond = ((1.0 - q) * v.len() as f64).floor() as usize;
                    let ms = pct(&v, q);
                    let ms = if ms.is_finite() {
                        format!("{ms:?}")
                    } else {
                        "null".to_string()
                    };
                    format!(
                        "\"p{:.0}\": {{\"ms\": {ms}, \"beyond\": {beyond}}}",
                        q * 100.0
                    )
                })
                .collect();
            format!(
                "\"{}\": {{\"attempted\": {all}, \"completed\": {}, {}}}",
                c.name(),
                v.len(),
                qs.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"summary\": {{\"busy_s\": {:?}, \"throughput_rps\": {:?}, \"waves\": {}, {}}}}}",
        pass.busy_s,
        throughput(pass),
        pass.waves,
        classes.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = nproc.min(2);
    let cfg = EngineConfig {
        pool_threads: nproc,
        queue_capacity: gen::WAVE,
        ..EngineConfig::default()
    };

    // Set up once untimed, then several times timed, and keep the last
    // engine (the last two when tracing: the traced pass and its untraced
    // reference each get a fresh engine).
    let keep = if args.trace { 2 } else { 1 };
    let mut setups: Vec<Setup> = vec![setup(&cfg)];
    let (mut total, mut generate, mut csr, mut new) = (vec![], vec![], vec![], vec![]);
    for _ in 0..SETUP_REPS {
        if setups.len() == keep {
            setups.remove(0);
        }
        let s = setup(&cfg);
        total.push(s.generate_s + s.csr_s + s.new_s);
        generate.push(s.generate_s);
        csr.push(s.csr_s);
        new.push(s.new_s);
        setups.push(s);
    }
    let measured = setups.pop().expect("at least one set-up");
    let reference = setups.pop();
    let base = measured.engine.store().snapshot();

    println!(
        "{{\"env\": {{\"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \
         \"clients\": {clients}, \"engine_config\": \"{:?}\", \"dataset\": \"ldbc\", \"vertices\": {}, \
         \"edges\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        env!("SERVEBENCH_COMMIT"),
        env!("SERVEBENCH_RUSTC"),
        cfg,
        base.graph().num_vertices(),
        base.graph().num_edges(),
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let epoch = args.trace.then(Instant::now);
    let pass = run_pass(&measured.engine, &base, &args, clients, epoch);
    // Read before verification, whose oracle graphs are the harness's.
    let rss_mb = peak_rss_mb();
    let mut errors = Vec::new();
    let mut memo = HashMap::new();
    let mut metrics = Metrics::default();
    let mut log = SpanLog::new(epoch, clients);
    let mut attempted = pass.records.len();
    let mut failed = pass.records.iter().filter(|r| !r.ok).count();

    if !args.trace {
        verify(
            &args,
            &pass,
            &measured.engine,
            &base,
            &mut memo,
            &mut log,
            &mut errors,
        );
        metrics.put("setup_s", median(&total), "s");
        metrics.put("throughput_rps", throughput(&pass), "1/s");
        metrics.put(
            "traversal_p50_ms",
            pct(&class_ms(&pass, CostClass::Traversal), 0.50),
            "ms",
        );
        metrics.put("peak_rss_mb", rss_mb, "MB");
        if let Err(e) = metrics.require_measured() {
            errors.push(e);
        }
        println!("{}", summary(&pass));
    } else {
        // Engine-side numbers are read before verification, which runs
        // the oracle on the engine's pool and compacts its overlay.
        let reg = measured.reg.snapshot();
        layers::from_pass(
            &mut metrics,
            &pass,
            &reg,
            measured.engine.pool(),
            measured.engine.cache_len(),
        );
        let compact_ms = verify(
            &args,
            &pass,
            &measured.engine,
            &base,
            &mut memo,
            &mut log,
            &mut errors,
        );
        metrics.put("delta.compact_ms", compact_ms, "ms");
        layers::replay(
            &mut metrics,
            &mut log,
            args.kind,
            &pass,
            base.graph(),
            measured.engine.pool(),
            cfg.shards,
        );
        println!("{}", summary(&pass));
        drop(measured);

        let reference = reference.expect("tracing keeps a reference engine");
        let ref_base = reference.engine.store().snapshot();
        let ref_pass = run_pass(&reference.engine, &ref_base, &args, clients, None);
        verify(
            &args,
            &ref_pass,
            &reference.engine,
            &ref_base,
            &mut memo,
            &mut SpanLog::new(None, 0),
            &mut errors,
        );
        attempted += ref_pass.records.len();
        failed += ref_pass.records.iter().filter(|r| !r.ok).count();

        metrics.put("datagen.generate_s", median(&generate), "s");
        metrics.put("framework.csr_build_s", median(&csr), "s");
        metrics.put("engine.new_s", median(&new), "s");
        metrics.put(
            "bench.trace_overhead_pct",
            (throughput(&ref_pass) / throughput(&pass).max(1e-9) - 1.0) * 100.0,
            "%",
        );

        let mut spans = pass.spans;
        spans.append(&mut log.spans);
        let self_ms = trace::self_ms_by_layer(&spans);
        for layer in ["client", "engine", "delta", "shard", "workloads"] {
            metrics.put(
                format!("trace.self_ms.{layer}"),
                self_ms.get(layer).copied().unwrap_or(0.0),
                "ms",
            );
        }
        metrics.put("trace.spans", spans.len() as f64, "count");

        if let Err(e) = layers::isolation(args.kind, &metrics) {
            errors.push(e);
        }
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
        let path = std::path::Path::new(&dir).join("servebench").join(format!(
            "spans-{}-{}.json",
            args.kind.name(),
            args.seed
        ));
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{}",
            args.kind.name(),
            args.seed
        );
        match trace::write(&path, &header, &spans) {
            Ok(()) => eprintln!(
                "servebench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => errors.push(format!("writing spans to {}: {e}", path.display())),
        }
    }

    for e in &errors {
        eprintln!("servebench: FAILED: {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
