//! Degree-balanced sharding of a CSR snapshot.
//!
//! A [`ShardedGraph`] splits the vertex range into P contiguous
//! [`CsrShard`]s whose *edge* counts are balanced (prefix-sum partitioning
//! over `degree + 1` weights, the same weighting the runtime's dynamic
//! scheduler uses for chunks). Contiguous ranges keep each shard's
//! adjacency data contiguous in the CSR arrays — a point query touching one
//! shard stays inside one cache-friendly window, and per-shard degree stats
//! give the admission controller a cheap skew signal.
//!
//! Shards are *views*: they hold no edge data themselves, only the range
//! and its statistics. All kernels still run over the shared
//! [`ServiceGraph`] views, so sharding adds zero copies.

use graphbig_framework::csr::Csr;
use graphbig_workloads::service::ServiceGraph;

/// One contiguous vertex range of a sharded graph, with the degree
/// statistics the scheduler and admission controller consult.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrShard {
    index: usize,
    start: u32,
    end: u32,
    edges: u64,
    max_degree: u32,
}

impl CsrShard {
    /// Position of this shard in the partition.
    pub fn index(&self) -> usize {
        self.index
    }

    /// First vertex (dense id) in the shard.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// One past the last vertex in the shard.
    pub fn end(&self) -> u32 {
        self.end
    }

    /// Vertices in the shard.
    pub fn vertices(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Out-edges owned by the shard's vertices.
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Largest out-degree in the shard (hub detector).
    pub fn max_degree(&self) -> u32 {
        self.max_degree
    }

    /// Mean out-degree in the shard.
    pub fn avg_degree(&self) -> f64 {
        if self.vertices() == 0 {
            0.0
        } else {
            self.edges as f64 / self.vertices() as f64
        }
    }

    /// True when the shard owns vertex `v`.
    pub fn contains(&self, v: u32) -> bool {
        self.start <= v && v < self.end
    }
}

/// A graph snapshot partitioned into degree-balanced shards, sharing the
/// kernel views of a [`ServiceGraph`].
pub struct ShardedGraph {
    service: ServiceGraph,
    shards: Vec<CsrShard>,
}

impl ShardedGraph {
    /// Shard `csr` into at most `num_shards` contiguous vertex ranges with
    /// near-equal edge mass, and precompute the kernel views.
    pub fn build(csr: Csr, num_shards: usize) -> Self {
        Self::from_service(ServiceGraph::build(csr), num_shards)
    }

    /// Shard kernel views that are already built (see [`partition`]).
    pub fn from_service(service: ServiceGraph, num_shards: usize) -> Self {
        let shards = partition(service.out(), num_shards);
        ShardedGraph { service, shards }
    }

    /// The kernel views this partition shares.
    pub fn service(&self) -> &ServiceGraph {
        &self.service
    }

    /// The shard list, ascending by vertex range.
    pub fn shards(&self) -> &[CsrShard] {
        &self.shards
    }

    /// Vertices in the graph.
    pub fn num_vertices(&self) -> usize {
        self.service.num_vertices()
    }

    /// Directed edges in the graph.
    pub fn num_edges(&self) -> usize {
        self.service.num_edges()
    }

    /// The shard owning vertex `v` (binary search over the contiguous
    /// ranges), or `None` when `v` is out of range.
    pub fn shard_of(&self, v: u32) -> Option<&CsrShard> {
        let idx = self
            .shards
            .partition_point(|s| s.end() <= v)
            .min(self.shards.len().saturating_sub(1));
        self.shards.get(idx).filter(|s| s.contains(v))
    }

    /// Point query: out-degree of `v` plus in-degree via the transpose —
    /// one adjacency-offset subtraction each, no edge scan.
    pub fn degree(&self, v: u32) -> Option<(u32, u32)> {
        if (v as usize) < self.num_vertices() {
            Some((
                self.service.out().degree(v),
                self.service.bi().inc().degree(v),
            ))
        } else {
            None
        }
    }

    /// Point query: number of distinct vertices within `hops` out-edge
    /// steps of `source` (including the source itself). Runs sequentially —
    /// a bounded neighborhood never justifies waking the pool.
    pub fn k_hop(&self, source: u32, hops: u32) -> u64 {
        let n = self.num_vertices();
        if n == 0 || source as usize >= n {
            return 0;
        }
        let out = self.service.out();
        let mut visited = vec![false; n];
        visited[source as usize] = true;
        let mut frontier = vec![source];
        let mut next = Vec::new();
        let mut count = 1u64;
        for _ in 0..hops {
            if frontier.is_empty() {
                break;
            }
            for &u in &frontier {
                for &v in out.neighbors(u) {
                    if !visited[v as usize] {
                        visited[v as usize] = true;
                        count += 1;
                        next.push(v);
                    }
                }
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
        }
        count
    }
}

/// Split `csr`'s vertex range into at most `num_shards` contiguous shards
/// with near-equal `degree + 1` mass.
fn partition(csr: &Csr, num_shards: usize) -> Vec<CsrShard> {
    let n = csr.num_vertices();
    let p = num_shards.max(1);
    let total_weight: u64 = (0..n as u32).map(|v| csr.degree(v) as u64 + 1).sum();
    let target = total_weight.div_ceil(p as u64).max(1);
    let mut shards = Vec::with_capacity(p);
    let mut start = 0u32;
    let mut acc = 0u64;
    let mut edges = 0u64;
    let mut max_degree = 0u32;
    for v in 0..n as u32 {
        let d = csr.degree(v);
        acc += d as u64 + 1;
        edges += d as u64;
        max_degree = max_degree.max(d);
        // Close the shard once it reaches its weight target, unless the
        // remaining vertices are needed to populate remaining shards.
        let remaining_shards = p - shards.len();
        let remaining_vertices = n as u32 - v;
        if (acc >= target && remaining_vertices as usize >= remaining_shards)
            || remaining_vertices as usize == remaining_shards - 1
        {
            shards.push(CsrShard {
                index: shards.len(),
                start,
                end: v + 1,
                edges,
                max_degree,
            });
            start = v + 1;
            acc = 0;
            edges = 0;
            max_degree = 0;
            if shards.len() == p {
                break;
            }
        }
    }
    if start < n as u32 || shards.is_empty() {
        let mut edges = 0u64;
        let mut max_degree = 0u32;
        for v in start..n as u32 {
            let d = csr.degree(v);
            edges += d as u64;
            max_degree = max_degree.max(d);
        }
        shards.push(CsrShard {
            index: shards.len(),
            start,
            end: n as u32,
            edges,
            max_degree,
        });
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbig_datagen::Dataset;

    fn sharded(n: usize, p: usize) -> ShardedGraph {
        let g = Dataset::Ldbc.generate_with_vertices(n);
        ShardedGraph::build(Csr::from_graph(&g), p)
    }

    #[test]
    fn shards_cover_the_vertex_range_exactly_once() {
        for p in [1usize, 2, 7, 8, 64] {
            let sg = sharded(512, p);
            let shards = sg.shards();
            assert!(!shards.is_empty() && shards.len() <= p, "p={p}");
            assert_eq!(shards[0].start(), 0);
            assert_eq!(shards.last().unwrap().end() as usize, sg.num_vertices());
            for w in shards.windows(2) {
                assert_eq!(w[0].end(), w[1].start(), "p={p}: gap or overlap");
            }
            let total_edges: u64 = shards.iter().map(|s| s.edges()).sum();
            assert_eq!(total_edges, sg.num_edges() as u64, "p={p}");
        }
    }

    #[test]
    fn shards_balance_edge_mass() {
        let sg = sharded(1024, 8);
        let weights: Vec<u64> = sg
            .shards()
            .iter()
            .map(|s| s.edges() + s.vertices() as u64)
            .collect();
        let max = *weights.iter().max().unwrap();
        let avg = weights.iter().sum::<u64>() as f64 / weights.len() as f64;
        // Contiguous-range partitioning can't be perfect, but no shard
        // should carry more than ~2x the average weight on a power-law graph
        // at this size.
        assert!(
            (max as f64) < 2.5 * avg,
            "imbalanced shards: {weights:?} (avg {avg:.0})"
        );
    }

    #[test]
    fn shard_of_agrees_with_contains() {
        let sg = sharded(300, 4);
        for v in 0..300u32 {
            let s = sg.shard_of(v).expect("in range");
            assert!(s.contains(v), "vertex {v} not in its shard");
            assert_eq!(sg.shards()[s.index()], *s);
        }
        assert!(sg.shard_of(300).is_none());
        assert!(sg.shard_of(u32::MAX).is_none());
    }

    #[test]
    fn shard_stats_match_csr() {
        let g = Dataset::Ldbc.generate_with_vertices(256);
        let csr = Csr::from_graph(&g);
        let reference = csr.clone();
        let sg = ShardedGraph::build(csr, 4);
        for s in sg.shards() {
            let edges: u64 = (s.start()..s.end())
                .map(|v| reference.degree(v) as u64)
                .sum();
            let maxd = (s.start()..s.end())
                .map(|v| reference.degree(v))
                .max()
                .unwrap_or(0);
            assert_eq!(s.edges(), edges, "shard {}", s.index());
            assert_eq!(s.max_degree(), maxd, "shard {}", s.index());
            if s.vertices() > 0 {
                assert!((s.avg_degree() - edges as f64 / s.vertices() as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn k_hop_counts_bounded_neighborhoods() {
        // 0 -> 1 -> 2 -> 3 line plus 0 -> 4.
        let edges = [(0u32, 1u32, 1.0f32), (1, 2, 1.0), (2, 3, 1.0), (0, 4, 1.0)];
        let sg = ShardedGraph::build(Csr::from_edges(5, &edges), 2);
        assert_eq!(sg.k_hop(0, 0), 1);
        assert_eq!(sg.k_hop(0, 1), 3); // {0, 1, 4}
        assert_eq!(sg.k_hop(0, 2), 4); // + {2}
        assert_eq!(sg.k_hop(0, 3), 5);
        assert_eq!(sg.k_hop(0, 99), 5);
        assert_eq!(sg.k_hop(3, 5), 1, "sink vertex sees only itself");
        assert_eq!(sg.k_hop(9, 1), 0, "out of range");
        assert_eq!(sg.degree(0), Some((2, 0)));
        assert_eq!(sg.degree(1), Some((1, 1)));
        assert_eq!(sg.degree(9), None);
    }

    #[test]
    fn empty_graph_builds_one_empty_shard() {
        let sg = ShardedGraph::build(Csr::from_edges(0, &[]), 4);
        assert_eq!(sg.shards().len(), 1);
        assert_eq!(sg.shards()[0].vertices(), 0);
        assert_eq!(sg.k_hop(0, 3), 0);
        assert!(sg.shard_of(0).is_none());
    }

    #[test]
    fn more_shards_than_vertices_degrades_gracefully() {
        let sg = sharded(3, 16);
        assert!(sg.shards().len() <= 3);
        let covered: usize = sg.shards().iter().map(|s| s.vertices()).sum();
        assert_eq!(covered, 3);
    }
}
