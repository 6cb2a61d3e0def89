//! Per-layer metrics of a traced run: what the client saw per layer, the
//! engine's own counters (`Engine::with_registry`, `ThreadPool::stats`),
//! and replays that time each layer's public function on the workload's
//! own inputs after the traffic phase.

use std::collections::BTreeMap;
use std::time::Instant;

use graphbig_engine::shard::ShardedGraph;
use graphbig_engine::{MutationBuffer, Query};
use graphbig_runtime::{CancelToken, ThreadPool};
use graphbig_telemetry::metrics::{HistogramSnapshot, MetricValue};
use graphbig_workloads::{msbfs, service, CostClass, Workload};

use crate::drive::Pass;
use crate::gen::Op;
use crate::trace::SpanLog;
use crate::{class_ms, pct, Kind, Metrics};

/// Replayed calls per point-lookup kind, BFS, each analytics kernel, and
/// MS-BFS pass: enough for a stable median, small next to the traffic
/// phase.
const POINT_REPLAYS: usize = 2000;
const BFS_REPLAYS: usize = 16;
const ANALYTICS_REPLAYS: usize = 3;
const MSBFS_REPLAYS: usize = 3;

fn counter(reg: &BTreeMap<String, MetricValue>, name: &str) -> u64 {
    match reg.get(name) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

fn histogram(reg: &BTreeMap<String, MetricValue>, name: &str) -> HistogramSnapshot {
    match reg.get(name) {
        Some(MetricValue::Histogram(h)) => h.clone(),
        _ => HistogramSnapshot::default(),
    }
}

/// Engine, admission, cache, batch, delta, runtime and client metrics of
/// the traced pass.
pub fn from_pass(
    m: &mut Metrics,
    pass: &Pass,
    reg: &BTreeMap<String, MetricValue>,
    pool: &ThreadPool,
    cache_entries: usize,
) {
    let reads: Vec<_> = pass
        .records
        .iter()
        .filter(|r| r.class != CostClass::Write)
        .collect();
    let writes: Vec<_> = pass
        .records
        .iter()
        .filter(|r| r.class == CostClass::Write)
        .collect();
    let completed_reads = reads.iter().filter(|r| r.ok).count() as f64;
    let completed = pass.records.iter().filter(|r| r.ok).count().max(1) as f64;
    let attempted = pass.records.len().max(1) as f64;

    let submit: Vec<f64> = reads.iter().map(|r| r.submit_us).collect();
    m.put("engine.submit_us.p50", pct(&submit, 0.50), "us");
    m.put("engine.submit_us.p99", pct(&submit, 0.99), "us");
    let unaccounted: Vec<f64> = reads
        .iter()
        .filter(|r| r.ok && r.class == CostClass::Point)
        .map(|r| r.latency_us - r.lag_us - r.submit_us - (r.queue_us + r.exec_us) as f64)
        .collect();
    m.put(
        "engine.unaccounted_us.point.p50",
        pct(&unaccounted, 0.50),
        "us",
    );
    for (stage, pick) in [("queue", 0), ("exec", 1)] {
        for class in [CostClass::Point, CostClass::Traversal, CostClass::Analytics] {
            let v: Vec<f64> = reads
                .iter()
                .filter(|r| r.ok && r.class == class)
                .map(|r| if pick == 0 { r.queue_us } else { r.exec_us } as f64 / 1e3)
                .collect();
            for (q, tag) in [(0.50, "p50"), (0.90, "p90")] {
                m.put(
                    format!("engine.{stage}_ms.{}.{tag}", class.name()),
                    pct(&v, q),
                    "ms",
                );
            }
        }
    }
    m.put(
        "engine.lane_aged",
        counter(reg, "engine.lane.aged") as f64,
        "count",
    );

    let rejected =
        counter(reg, "engine.rejected.queue_full") + counter(reg, "engine.rejected.cost_budget");
    m.put("admission.rejected", rejected as f64 / attempted, "ratio");

    let (hit, miss) = (
        counter(reg, "engine.cache.hit"),
        counter(reg, "engine.cache.miss"),
    );
    m.put(
        "cache.hit_ratio",
        hit as f64 / (hit + miss).max(1) as f64,
        "ratio",
    );
    m.put(
        "cache.evictions",
        counter(reg, "engine.cache.evict") as f64,
        "count",
    );
    m.put("cache.entries", cache_entries as f64, "count");

    let sizes = histogram(reg, "engine.batch.size");
    let coalesce = histogram(reg, "engine.batch.coalesce_us");
    m.put("batch.formed", sizes.count as f64, "count");
    m.put("batch.size.mean", sizes.mean(), "count");
    m.put(
        "batch.coalesced_share",
        sizes.sum as f64 / completed_reads.max(1.0),
        "ratio",
    );
    m.put(
        "batch.coalesce_us.p50",
        coalesce.quantile(0.50) as f64,
        "us",
    );
    m.put(
        "batch.coalesce_us.p99",
        coalesce.quantile(0.99) as f64,
        "us",
    );

    let mutate: Vec<f64> = writes
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.latency_us)
        .collect();
    m.put("delta.mutate_us.p50", pct(&mutate, 0.50), "us");
    m.put("delta.mutate_us.p99", pct(&mutate, 0.99), "us");
    m.put("delta.new_seq_reads", pass.new_seq_reads as f64, "count");
    m.put(
        "delta.overlay_edges.max",
        pass.overlay_edges_max as f64,
        "count",
    );
    m.put(
        "delta.overlay_bytes.max",
        pass.overlay_bytes_max as f64,
        "bytes",
    );

    let stats = pool.stats();
    m.put("runtime.pool_utilization", stats.utilization(), "ratio");
    m.put(
        "runtime.regions_per_req",
        stats.regions() as f64 / completed,
        "count",
    );
    m.put(
        "runtime.chunks_per_req",
        stats.total_chunks() as f64 / completed,
        "count",
    );

    let lag: Vec<f64> = pass.records.iter().map(|r| r.lag_us / 1e3).collect();
    m.put("bench.generator_lag_ms", pct(&lag, 0.99), "ms");

    for (name, class, q) in [
        ("client.point_p50_ms", CostClass::Point, 0.50),
        ("client.point_p95_ms", CostClass::Point, 0.95),
        ("client.traversal_p90_ms", CostClass::Traversal, 0.90),
        ("client.analytics_p50_ms", CostClass::Analytics, 0.50),
        ("client.analytics_p90_ms", CostClass::Analytics, 0.90),
        ("client.write_p50_ms", CostClass::Write, 0.50),
    ] {
        m.put(name, pct(&class_ms(pass, class), q), "ms");
    }
    let failed = pass.records.iter().filter(|r| !r.ok).count() as f64;
    m.put("client.error_rate", failed / attempted, "ratio");
}

/// Run `f` once as a root span named `name`; returns its nanoseconds.
fn timed(log: &mut SpanLog, name: &'static str, f: &mut dyn FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let t1 = Instant::now();
    log.leaf(0, name, 0, t0, t1);
    (t1 - t0).as_nanos() as f64
}

/// Time each layer's public function on the pass's own inputs. Every call
/// is also recorded as a root span in `log`.
pub fn replay(
    m: &mut Metrics,
    log: &mut SpanLog,
    kind: Kind,
    pass: &Pass,
    base: &ShardedGraph,
    pool: &ThreadPool,
    shards: usize,
) {
    let reads: Vec<Query> = pass
        .records
        .iter()
        .filter_map(|r| match r.op {
            Op::Read(q) => Some(q),
            Op::Write(_) => None,
        })
        .collect();

    let mut degree = Vec::new();
    let mut khop = Vec::new();
    for q in &reads {
        match *q {
            Query::Degree { vertex } if degree.len() < POINT_REPLAYS => {
                let ns = timed(log, "shard.degree", &mut || {
                    std::hint::black_box(base.degree(vertex));
                });
                degree.push(ns / 1e3);
            }
            Query::KHop { source, hops } if khop.len() < POINT_REPLAYS => {
                let ns = timed(log, "shard.k_hop", &mut || {
                    std::hint::black_box(base.k_hop(source, hops));
                });
                khop.push(ns / 1e3);
            }
            _ => {}
        }
    }
    m.put("shard.degree_us.p50", pct(&degree, 0.50), "us");
    m.put("shard.khop_us.p50", pct(&khop, 0.50), "us");

    let never = CancelToken::never();
    for (w, cap, name) in [
        (Workload::Bfs, BFS_REPLAYS, "workloads.bfs_ms.p50"),
        (Workload::CComp, ANALYTICS_REPLAYS, "workloads.ccomp_ms.p50"),
        (Workload::KCore, ANALYTICS_REPLAYS, "workloads.kcore_ms.p50"),
        (Workload::SPath, ANALYTICS_REPLAYS, "workloads.spath_ms.p50"),
    ] {
        let sources: Vec<u32> = reads
            .iter()
            .filter_map(|q| match *q {
                Query::Run { workload, source } if workload == w => Some(source),
                _ => None,
            })
            .take(cap)
            .collect();
        let times: Vec<f64> = sources
            .iter()
            .map(|&s| {
                timed(log, "workloads.run_service", &mut || {
                    let out = service::run_service(w, pool, base.service(), s, &never);
                    std::hint::black_box(out.is_ok());
                }) / 1e6
            })
            .collect();
        m.put(name, pct(&times, 0.50), "ms");
    }

    let mut msbfs_ms = 0.0;
    if kind == Kind::FlashCrowd {
        let mut sources: Vec<u32> = Vec::new();
        for q in &reads {
            if let Query::Run {
                workload: Workload::Bfs,
                source,
            } = *q
            {
                if !sources.contains(&source) {
                    sources.push(source);
                }
            }
            if sources.len() == msbfs::MSBFS_LANES {
                break;
            }
        }
        let times: Vec<f64> = (0..MSBFS_REPLAYS)
            .map(|_| {
                timed(log, "workloads.msbfs_dir_opt", &mut || {
                    std::hint::black_box(
                        msbfs::msbfs_dir_opt(pool, base.service().bi(), &sources).len(),
                    );
                }) / 1e6
            })
            .collect();
        msbfs_ms = pct(&times, 0.50);
    }
    m.put("workloads.msbfs64_ms", msbfs_ms, "ms");

    let buffer = MutationBuffer::new(1, base.num_vertices() as u32);
    let mut apply = Vec::new();
    for r in &pass.records {
        if let (Op::Write(w), true) = (r.op, r.ok) {
            let ns = timed(log, "delta.apply", &mut || {
                buffer.apply(base, &[w]);
            });
            apply.push(ns / 1e3);
        }
    }
    m.put("delta.apply_us.p50", pct(&apply, 0.50), "us");
    let overlay = buffer.current();
    let materialize_ms = if overlay.is_empty() {
        0.0
    } else {
        timed(log, "delta.materialize", &mut || {
            std::hint::black_box(overlay.materialize(base, shards).num_edges());
        }) / 1e6
    };
    m.put("delta.materialize_ms", materialize_ms, "ms");
}

/// Fail loudly when a workload stops exercising the layer it exists for,
/// or starts exercising one it is the control for.
pub fn isolation(kind: Kind, m: &Metrics) -> Result<(), String> {
    let hit = m.get("cache.hit_ratio");
    let share = m.get("batch.coalesced_share");
    let new_seq = m.get("delta.new_seq_reads");
    let mut errors = Vec::new();
    match kind {
        Kind::FlashCrowd => {
            if hit < 0.2 {
                errors.push(format!("flash_crowd cache.hit_ratio {hit:.3} < 0.2"));
            }
            if share < 0.5 {
                errors.push(format!(
                    "flash_crowd batch.coalesced_share {share:.3} < 0.5"
                ));
            }
        }
        Kind::ReadMix => {
            if hit > 0.05 {
                errors.push(format!("read_mix cache.hit_ratio {hit:.3} > 0.05"));
            }
            if share > 0.05 {
                errors.push(format!("read_mix batch.coalesced_share {share:.3} > 0.05"));
            }
        }
        Kind::WriteMix => {}
    }
    match (kind == Kind::WriteMix, new_seq > 0.0) {
        (true, false) => errors.push("write_mix delta.new_seq_reads is 0".to_string()),
        (false, true) => errors.push(format!("{} delta.new_seq_reads {new_seq} > 0", kind.name())),
        _ => {}
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "layer-isolation self-check failed: {}",
            errors.join("; ")
        ))
    }
}
