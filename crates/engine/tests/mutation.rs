//! Write-path acceptance tests: a seeded 10k-op mixed stream must leave
//! the engine digest-identical to a graph rebuilt from scratch with the
//! same mutations — checked mid-overlay, post-compaction, and under the
//! background compactor — at more than one client count.

use graphbig_datagen::rng::Rng;
use graphbig_datagen::Dataset;
use graphbig_engine::traffic::{
    generate_ops, live_engine_digest, mutation_oracle_digest, rebuild_from_scratch, resolve_write,
    run_mix, MixOp,
};
use graphbig_engine::{
    check_chaos_invariants, structural_digest, Engine, EngineConfig, MixSpec, Mutation,
    MutationBuffer, Query, QueryOutput, QueryStatus,
};
use graphbig_framework::csr::Csr;
use graphbig_runtime::{CancelToken, ThreadPool};
use graphbig_telemetry::metrics::{MetricValue, Registry};
use graphbig_workloads::service::run_service;
use graphbig_workloads::Workload;

fn engine(n: usize, compact_threshold: usize, reg: &Registry) -> Engine {
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(n));
    Engine::with_registry(
        EngineConfig {
            executors: 2,
            pool_threads: 2,
            compact_threshold,
            ..EngineConfig::default()
        },
        csr,
        reg,
    )
}

fn counter(reg: &Registry, name: &str) -> u64 {
    match reg.snapshot().get(name) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// Wait for the background compactor to drain: overlay folded (or below
/// threshold) and every started fold completed.
fn quiesce_compactor(reg: &Registry) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let started = counter(reg, "engine.compact.started");
        let completed = counter(reg, "engine.compact.completed");
        if started == completed {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "compactor did not quiesce: {started} started vs {completed} completed"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn ten_thousand_op_stream_matches_the_rebuild_oracle_at_two_client_counts() {
    for clients in [2usize, 8] {
        let reg = Registry::new();
        // Manual compaction so the mid-overlay check really is mid-overlay.
        let eng = engine(500, 0, &reg);
        let base = eng.store().snapshot();
        let n = base.graph().num_vertices() as u32;
        let spec = MixSpec {
            seed: 77,
            requests: 10_000,
            clients,
            point_weight: 55,
            traversal_weight: 3,
            analytics_weight: 2,
            write_weight: 40,
            hot_sources: Some(64),
            ..MixSpec::default()
        };
        let ops = generate_ops(&spec, n);
        let writes = ops
            .iter()
            .filter(|op| matches!(op, MixOp::Write(_)))
            .count();
        assert!(writes > 3_000, "write band drew only {writes} of 10k ops");
        let expected = mutation_oracle_digest(base.graph(), &ops);

        let report = run_mix(&eng, &spec);
        assert_eq!(report.admitted, 10_000, "clients={clients}");

        // Mid-overlay: the buffered view already equals the oracle.
        assert!(
            !eng.overlay().is_empty(),
            "stream must leave a live overlay"
        );
        assert_eq!(live_engine_digest(&eng), expected, "clients={clients}");

        // Rebuilt from scratch: a fresh buffer fed the same writes, its
        // live edges built into a brand-new CSR, digests identically.
        let rebuild = MutationBuffer::new(1, n);
        for op in &ops {
            if let MixOp::Write(w) = op {
                rebuild.apply(base.graph(), &resolve_write(base.graph(), *w));
            }
        }
        let scratch = rebuild_from_scratch(&rebuild.current(), base.graph(), 4);
        assert_eq!(structural_digest(&scratch), expected);

        // Post-compaction: the folded epoch serves the same graph.
        let epoch = eng.compact();
        assert!(epoch > 1, "a dirty overlay must fold into a new epoch");
        assert_eq!(
            structural_digest(eng.store().snapshot().graph()),
            expected,
            "clients={clients}"
        );

        let inv = check_chaos_invariants(&eng, &report, None, &reg);
        assert!(inv.ok(), "clients={clients}:\n{}", inv.render());
    }
}

#[test]
fn background_compactor_under_live_traffic_converges_on_the_oracle() {
    let reg = Registry::new();
    let eng = engine(400, 200, &reg);
    let base = eng.store().snapshot();
    let n = base.graph().num_vertices() as u32;
    let spec = MixSpec {
        seed: 9,
        requests: 3_000,
        clients: 4,
        point_weight: 40,
        traversal_weight: 0,
        analytics_weight: 0,
        write_weight: 60,
        ..MixSpec::default()
    };
    let ops = generate_ops(&spec, n);
    let expected = mutation_oracle_digest(base.graph(), &ops);
    let report = run_mix(&eng, &spec);
    assert_eq!(report.admitted, 3_000);

    // ~1800 overlay edges against a 200-edge threshold: the background
    // compactor must have folded at least once while traffic was live.
    quiesce_compactor(&reg);
    assert!(
        eng.store().epoch() > 1,
        "threshold 200 must wake the compactor mid-mix"
    );
    assert!(counter(&reg, "engine.compact.completed") > 0);

    // Whatever mix of folded epochs and residual overlay remains, the
    // live view equals the sequential oracle — and so does a final fold.
    assert_eq!(live_engine_digest(&eng), expected);
    eng.compact();
    quiesce_compactor(&reg);
    assert_eq!(structural_digest(eng.store().snapshot().graph()), expected);

    let inv = check_chaos_invariants(&eng, &report, None, &reg);
    assert!(inv.ok(), "{}", inv.render());
}

#[test]
fn write_mix_replay_is_bit_identical_from_one_seed() {
    let spec = MixSpec {
        seed: 1234,
        requests: 600,
        clients: 3,
        point_weight: 50,
        traversal_weight: 5,
        analytics_weight: 5,
        write_weight: 40,
        ..MixSpec::default()
    };
    let run = || {
        let reg = Registry::new();
        let eng = engine(300, 0, &reg);
        let report = run_mix(&eng, &spec);
        let outcomes: Vec<(u64, u64, u64, u64)> = report
            .classes
            .iter()
            .map(|c| (c.completed, c.deadline_missed, c.cancelled, c.failed))
            .collect();
        (
            outcomes,
            report.admitted,
            eng.delta_seq(),
            live_engine_digest(&eng),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed, same outcomes and final graph");
    assert_eq!(first.1, 600);
}

#[test]
fn kernels_served_over_each_single_edge_write_match_a_from_scratch_rebuild() {
    // The write `write_mix` sends, at test scale: one edge per batch, a
    // quarter of them deletes of a live edge, and a heavy read after each.
    let reg = Registry::new();
    let eng = Engine::with_registry(
        EngineConfig {
            executors: 2,
            pool_threads: 2,
            compact_threshold: 0,
            cache_capacity: 0,
            ..EngineConfig::default()
        },
        Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(400)),
        &reg,
    );
    let base = eng.store().snapshot();
    let n = base.graph().num_vertices() as u32;
    let pool = ThreadPool::new(2);
    let never = CancelToken::never();
    let mut rng = Rng::seed_from_u64(0x5EED);
    for step in 0..24 {
        let u = rng.u64_below(n as u64) as u32;
        let write = if step % 4 == 3 {
            let mut live = Vec::new();
            eng.overlay()
                .for_each_live_out(base.graph(), u, |t, _| live.push(t));
            match live.first() {
                Some(&v) => Mutation::RemoveEdge { u, v },
                None => Mutation::AddEdge {
                    u,
                    v: (u + 1) % n,
                    w: 1.0,
                },
            }
        } else {
            let v = rng.u64_below(n as u64) as u32;
            Mutation::AddEdge {
                u,
                v,
                w: rng.u64_below(50) as f32 + 0.25,
            }
        };
        eng.mutate(&[write]).unwrap();
        let reference = rebuild_from_scratch(&eng.overlay(), base.graph(), 4);
        let source = rng.u64_below(n as u64) as u32;
        for workload in [
            Workload::Bfs,
            Workload::CComp,
            Workload::KCore,
            Workload::SPath,
        ] {
            let got = eng.submit(Query::Run { workload, source }).unwrap().wait();
            let QueryStatus::Completed(QueryOutput::Workload(got)) = got.status else {
                panic!("step {step} {workload}: {:?}", got.status);
            };
            let want = run_service(workload, &pool, reference.service(), source, &never).unwrap();
            assert_eq!(got, want, "step {step} ({write:?}): {workload} diverged");
        }
    }
    assert!(
        eng.overlay().dirty(),
        "the stream must include effective deletes"
    );
}
