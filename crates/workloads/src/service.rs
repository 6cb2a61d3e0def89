//! Uniform serving dispatch over the parallel kernels.
//!
//! The per-bench binaries used to each carry their own match over
//! [`Workload`] deciding which CSR view (directed / symmetric / sorted) and
//! which kernel entry point to call. [`run_service`] centralizes that:
//! one [`ServiceGraph`] precomputes every view a servable workload needs,
//! and every kernel runs through the same
//! `(Workload, &ThreadPool, &ServiceGraph, source, &CancelToken)`
//! signature returning a typed [`ServiceOutput`]. The query engine
//! (`crates/engine`) and the bench binaries both dispatch through here, so
//! view-selection bugs can't diverge between them.

use graphbig_framework::csr::{BiCsr, Csr};
use graphbig_runtime::{CancelToken, Cancelled, ThreadPool};

use crate::parallel;
use crate::registry::Workload;

/// Precomputed CSR views shared by all servable workloads: the directed
/// bidirectional view (BFS direction optimization, SPath, DCentr) and the
/// symmetrized, adjacency-sorted undirected view (CComp, KCore, TC,
/// GColor — the same view their sequential oracles use).
pub struct ServiceGraph {
    bi: BiCsr,
    sym: Csr,
}

impl ServiceGraph {
    /// Build both views from a directed CSR snapshot: one transpose, shared
    /// by the in-edge view and the symmetrization.
    pub fn build(csr: Csr) -> Self {
        let inc = csr.transpose();
        let sym = csr.symmetrize_with(&inc);
        Self::from_views(csr, inc, sym)
    }

    /// Assemble from views that are already built. `inc` must equal
    /// `out.transpose()` and `sym` must equal `out.symmetrize()` — what
    /// [`ServiceGraph::build`] would compute.
    pub fn from_views(out: Csr, inc: Csr, sym: Csr) -> Self {
        ServiceGraph {
            bi: BiCsr::from_parts(out, inc),
            sym,
        }
    }

    /// The directed view with its transpose.
    pub fn bi(&self) -> &BiCsr {
        &self.bi
    }

    /// The directed out-edge CSR.
    pub fn out(&self) -> &Csr {
        self.bi.out()
    }

    /// The symmetrized, adjacency-sorted undirected view.
    pub fn sym(&self) -> &Csr {
        &self.sym
    }

    /// Vertices in the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.bi.num_vertices()
    }

    /// Directed edges in the underlying graph.
    pub fn num_edges(&self) -> usize {
        self.bi.num_edges()
    }
}

/// Typed result of one service dispatch, one variant per kernel output
/// shape. [`ServiceOutput::digest`] folds any variant to a comparable
/// 64-bit fingerprint for the concurrent-vs-sequential oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceOutput {
    /// BFS levels (`-1` = unreached).
    Levels(Vec<i64>),
    /// Connected-component labels.
    Labels(Vec<u32>),
    /// k-core numbers.
    Cores(Vec<u32>),
    /// Shortest-path distances (`inf` = unreached).
    Distances(Vec<f32>),
    /// Normalized centrality scores.
    Scores(Vec<f64>),
    /// A scalar count (triangles).
    Count(u64),
    /// Graph-coloring colors.
    Colors(Vec<i64>),
}

impl ServiceOutput {
    /// FNV-1a-style mix over the output's canonical little-endian u64
    /// stream — bit-exact, so two runs digest equal iff their outputs are
    /// identical (floats compared by bit pattern). One multiply per
    /// element, not per byte: a serving mix digests every verified
    /// response, and the byte-at-a-time loop was a measurable fixed cost
    /// per request on large outputs (one word per vertex).
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |word: u64| {
            h ^= word;
            h = h.wrapping_mul(PRIME);
            // FNV's multiply alone mixes low bits upward only; fold the
            // high half back so per-word (vs per-byte) eating still
            // diffuses every input bit into the final value.
            h ^= h >> 29;
        };
        let mut tag = |t: &[u8; 8]| eat(u64::from_le_bytes(*t));
        match self {
            ServiceOutput::Levels(v) => {
                tag(b"levels\0\0");
                v.iter().for_each(|&x| eat(x as u64));
            }
            ServiceOutput::Labels(v) => {
                tag(b"labels\0\0");
                v.iter().for_each(|&x| eat(x as u64));
            }
            ServiceOutput::Cores(v) => {
                tag(b"cores\0\0\0");
                v.iter().for_each(|&x| eat(x as u64));
            }
            ServiceOutput::Distances(v) => {
                tag(b"dist\0\0\0\0");
                v.iter().for_each(|&x| eat(x.to_bits() as u64));
            }
            ServiceOutput::Scores(v) => {
                tag(b"scores\0\0");
                v.iter().for_each(|&x| eat(x.to_bits()));
            }
            ServiceOutput::Count(c) => {
                tag(b"count\0\0\0");
                eat(*c);
            }
            ServiceOutput::Colors(v) => {
                tag(b"colors\0\0");
                v.iter().for_each(|&x| eat(x as u64));
            }
        }
        h
    }
}

/// Why a service dispatch produced no output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The query's [`CancelToken`] fired mid-run.
    Cancelled,
    /// The workload has no CSR-snapshot serving entry point (the dynamic
    /// graph-update workloads mutate a `PropertyGraph` and the sampling /
    /// Brandes workloads have no parallel kernel yet).
    Unsupported(Workload),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Cancelled => f.write_str("query cancelled"),
            ServiceError::Unsupported(w) => write!(f, "workload {w} is not servable"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<Cancelled> for ServiceError {
    fn from(_: Cancelled) -> Self {
        ServiceError::Cancelled
    }
}

/// True when [`run_service`] can execute `w` against a CSR snapshot.
pub fn servable(w: Workload) -> bool {
    matches!(
        w,
        Workload::Bfs
            | Workload::CComp
            | Workload::KCore
            | Workload::SPath
            | Workload::DCentr
            | Workload::Tc
            | Workload::GColor
    )
}

/// Run one workload against the precomputed views with the standard
/// serving signature. `source` matters only to the traversal-rooted
/// kernels (BFS, SPath); the whole-graph kernels ignore it. Kernels whose
/// runtime is a single parallel sweep (DCentr, TC, GColor) poll the token
/// only at entry; the iterative kernels poll at every superstep.
pub fn run_service(
    w: Workload,
    pool: &ThreadPool,
    g: &ServiceGraph,
    source: u32,
    cancel: &CancelToken,
) -> Result<ServiceOutput, ServiceError> {
    if cancel.trace_id() != 0 {
        use graphbig_telemetry::recorder;
        let widx = Workload::ALL.iter().position(|&x| x == w).unwrap_or(0);
        recorder::record(
            recorder::EventKind::KernelStart,
            cancel.trace_id(),
            widx as u64,
        );
    }
    match w {
        Workload::Bfs => {
            let (levels, _, _) = parallel::bfs_dir_opt_cancellable(pool, g.bi(), source, cancel)?;
            Ok(ServiceOutput::Levels(levels))
        }
        Workload::CComp => Ok(ServiceOutput::Labels(parallel::ccomp_cancellable(
            pool,
            g.sym(),
            cancel,
        )?)),
        Workload::KCore => Ok(ServiceOutput::Cores(parallel::kcore_cancellable(
            pool,
            g.sym(),
            cancel,
        )?)),
        Workload::SPath => Ok(ServiceOutput::Distances(parallel::spath_cancellable(
            pool,
            g.out(),
            source,
            cancel,
        )?)),
        Workload::DCentr => {
            cancel.check()?;
            Ok(ServiceOutput::Scores(parallel::dcentr(pool, g.out())))
        }
        Workload::Tc => {
            cancel.check()?;
            Ok(ServiceOutput::Count(parallel::tc(pool, g.sym())))
        }
        Workload::GColor => {
            cancel.check()?;
            Ok(ServiceOutput::Colors(parallel::gcolor(pool, g.sym())))
        }
        other => Err(ServiceError::Unsupported(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbig_datagen::Dataset;

    fn graph(n: usize) -> ServiceGraph {
        let g = Dataset::Ldbc.generate_with_vertices(n);
        ServiceGraph::build(Csr::from_graph(&g))
    }

    #[test]
    fn dispatch_matches_direct_kernel_calls() {
        let g = graph(250);
        let pool = ThreadPool::new(4);
        let live = CancelToken::new();
        match run_service(Workload::Bfs, &pool, &g, 0, &live).unwrap() {
            ServiceOutput::Levels(levels) => {
                assert_eq!(levels, parallel::bfs(&pool, g.out(), 0).0)
            }
            other => panic!("wrong shape: {other:?}"),
        }
        match run_service(Workload::CComp, &pool, &g, 0, &live).unwrap() {
            ServiceOutput::Labels(l) => assert_eq!(l, parallel::ccomp(&pool, g.sym())),
            other => panic!("wrong shape: {other:?}"),
        }
        match run_service(Workload::Tc, &pool, &g, 0, &live).unwrap() {
            ServiceOutput::Count(c) => assert_eq!(c, parallel::tc(&pool, g.sym())),
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn digests_separate_different_outputs() {
        let g = graph(200);
        let pool = ThreadPool::new(2);
        let live = CancelToken::new();
        let a = run_service(Workload::Bfs, &pool, &g, 0, &live).unwrap();
        let b = run_service(Workload::Bfs, &pool, &g, 1, &live).unwrap();
        assert_eq!(a.digest(), a.clone().digest());
        assert_ne!(a.digest(), b.digest(), "different sources, different BFS");
        // Same length but different type must not collide via the tag.
        assert_ne!(
            ServiceOutput::Labels(vec![1, 2, 3]).digest(),
            ServiceOutput::Cores(vec![1, 2, 3]).digest()
        );
    }

    #[test]
    fn cancelled_token_maps_to_service_error() {
        let g = graph(100);
        let pool = ThreadPool::new(2);
        let token = CancelToken::new();
        token.cancel();
        for w in Workload::ALL.into_iter().filter(|&w| servable(w)) {
            assert_eq!(
                run_service(w, &pool, &g, 0, &token),
                Err(ServiceError::Cancelled),
                "{w}"
            );
        }
    }

    #[test]
    fn unsupported_workloads_are_reported() {
        let g = graph(50);
        let pool = ThreadPool::new(1);
        let live = CancelToken::new();
        for w in Workload::ALL {
            let r = run_service(w, &pool, &g, 0, &live);
            assert_eq!(servable(w), r.is_ok(), "{w}: {r:?}");
            if !servable(w) {
                assert_eq!(r, Err(ServiceError::Unsupported(w)));
            }
        }
    }
}
