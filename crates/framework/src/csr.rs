//! Compressed Sparse Row representation (Figure 2(b)).
//!
//! CSR packs the graph into three flat arrays — row offsets, column indices
//! and weights — giving the compact, cache-friendly but *static* layout the
//! paper contrasts with the vertex-centric structure. In GraphBIG the GPU
//! side always computes on CSR: the "graph populating" step converts the
//! dynamic CPU-side graph ([`Csr::from_graph`]) exactly as the paper
//! describes transferring data to GPU memory.
//!
//! Vertices are renumbered into a dense `0..n` space; `ids` maps dense
//! indices back to external [`VertexId`]s and [`Csr::dense_of`] goes the
//! other way.

use graphbig_json::codec::{field, field_or_default, DecodeError, FromJson, ToJson};
use graphbig_json::{json_struct, Json, ObjBuilder};

use crate::error::{GraphError, Result};
use crate::graph::PropertyGraph;
use crate::trace::{addr_of, NullTracer, Region, Tracer};
use crate::types::VertexId;

/// Reverse id→dense lookup used during the populating step.
///
/// When external ids are reasonably dense (`max_id` within a small constant
/// factor of `n`) a direct-indexed table makes each edge translation O(1),
/// turning [`Csr::from_graph`] into an O(n + m) pass. Sparse id spaces fall
/// back to binary search over the sorted map (O(m log n), the old behavior).
enum DenseLookup<'a> {
    Table(Vec<u32>),
    Sorted(&'a [(VertexId, u32)]),
}

/// Sentinel for "id not present" in the table variant.
const ABSENT: u32 = u32::MAX;

impl<'a> DenseLookup<'a> {
    fn build(ids: &[VertexId], id_map: &'a [(VertexId, u32)]) -> Self {
        let n = ids.len();
        let max_id = ids.iter().copied().max().unwrap_or(0);
        // Direct table only when the id space is bounded: 8x the vertex count
        // plus slack keeps worst-case memory at ~32 bytes/vertex.
        if (max_id as usize) < 8 * n + 1024 {
            let mut table = vec![ABSENT; max_id as usize + 1];
            for (dense, &id) in ids.iter().enumerate() {
                table[id as usize] = dense as u32;
            }
            DenseLookup::Table(table)
        } else {
            DenseLookup::Sorted(id_map)
        }
    }

    #[inline]
    fn get(&self, id: VertexId) -> Option<u32> {
        match self {
            DenseLookup::Table(t) => match t.get(id as usize) {
                Some(&d) if d != ABSENT => Some(d),
                _ => None,
            },
            DenseLookup::Sorted(m) => m
                .binary_search_by_key(&id, |&(k, _)| k)
                .ok()
                .map(|p| m[p].1),
        }
    }
}

/// A static CSR view of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// `row_offsets[u]..row_offsets[u+1]` indexes `col`/`weights` for dense
    /// vertex `u`; length `n + 1`.
    row_offsets: Vec<u64>,
    /// Dense target index per edge.
    col: Vec<u32>,
    /// Weight per edge (parallel to `col`).
    weights: Vec<f32>,
    /// Dense index -> external vertex id.
    ids: Vec<VertexId>,
    /// Sorted `(external id, dense index)` pairs for reverse lookup.
    id_map: Vec<(VertexId, u32)>,
    /// Edges whose target was not a live vertex, dropped during a lenient
    /// populating pass. Absent in snapshots written before this field existed.
    dangling_skipped: u64,
}

impl ToJson for Csr {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .push("row_offsets", self.row_offsets.to_json())
            .push("col", self.col.to_json())
            .push("weights", self.weights.to_json())
            .push("ids", self.ids.to_json())
            .push("id_map", self.id_map.to_json())
            .push("dangling_skipped", self.dangling_skipped.to_json())
            .build()
    }
}

impl FromJson for Csr {
    fn from_json(v: &Json) -> std::result::Result<Self, DecodeError> {
        Ok(Csr {
            row_offsets: field(v, "row_offsets")?,
            col: field(v, "col")?,
            weights: field(v, "weights")?,
            ids: field(v, "ids")?,
            id_map: field(v, "id_map")?,
            // `field_or_default` keeps the old `#[serde(default)]` tolerance
            // for snapshots written before this field existed.
            dangling_skipped: field_or_default(v, "dangling_skipped")?,
        })
    }
}

impl Csr {
    /// Build a CSR snapshot of a dynamic graph (the populating step). Dense
    /// indices follow the graph's deterministic vertex order.
    ///
    /// Edges whose target is not a live vertex (possible only when edge
    /// lists are mutated outside the [`PropertyGraph`] API) are skipped and
    /// counted in [`Csr::dangling_skipped`]; use [`Csr::try_from_graph`] to
    /// treat them as errors instead.
    pub fn from_graph(g: &PropertyGraph) -> Self {
        Self::from_graph_t(g, &mut NullTracer)
    }

    /// Traced variant of [`Csr::from_graph`].
    pub fn from_graph_t<T: Tracer>(g: &PropertyGraph, t: &mut T) -> Self {
        Self::build_from_graph(g, t, false).expect("lenient build is infallible")
    }

    /// Like [`Csr::from_graph`] but returns [`GraphError::VertexNotFound`]
    /// for the first edge whose target is not a live vertex.
    pub fn try_from_graph(g: &PropertyGraph) -> Result<Self> {
        Self::try_from_graph_t(g, &mut NullTracer)
    }

    /// Traced variant of [`Csr::try_from_graph`].
    pub fn try_from_graph_t<T: Tracer>(g: &PropertyGraph, t: &mut T) -> Result<Self> {
        Self::build_from_graph(g, t, true)
    }

    /// Shared populating pass. One O(n) table build plus one O(1) lookup per
    /// edge when the id space is dense (see [`DenseLookup`]), so the whole
    /// conversion is O(n + m) instead of the previous O(m log n).
    fn build_from_graph<T: Tracer>(g: &PropertyGraph, t: &mut T, strict: bool) -> Result<Self> {
        t.enter_framework();
        t.region(Region::CsrScan);
        let n = g.num_vertices();
        let ids: Vec<VertexId> = g.vertex_ids().to_vec();
        let mut id_map: Vec<(VertexId, u32)> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        id_map.sort_unstable();
        let lookup = DenseLookup::build(&ids, &id_map);

        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut col = Vec::new();
        let mut weights = Vec::new();
        let mut dangling_skipped = 0u64;
        row_offsets.push(0u64);
        for &id in &ids {
            let v = g.find_vertex(id).expect("id from order vector is live");
            t.load(addr_of(v), 32);
            for e in &v.out {
                t.load(addr_of(e), 16);
                match lookup.get(e.target) {
                    Some(dense) => {
                        col.push(dense);
                        weights.push(e.weight);
                        t.store(addr_of(col.last().unwrap()), 8);
                        t.alu(1); // table lookup
                    }
                    None if strict => {
                        t.exit_framework();
                        return Err(GraphError::VertexNotFound(e.target));
                    }
                    None => dangling_skipped += 1,
                }
            }
            row_offsets.push(col.len() as u64);
        }
        t.exit_framework();
        Ok(Csr {
            row_offsets,
            col,
            weights,
            ids,
            id_map,
            dangling_skipped,
        })
    }

    /// Edges dropped by the lenient populating pass because their target was
    /// not a live vertex. Zero for graphs mutated only through the API.
    #[inline]
    pub fn dangling_skipped(&self) -> u64 {
        self.dangling_skipped
    }

    /// Build directly from dense edges `(u, v, w)` over `n` vertices with
    /// identity id mapping. Edges need not be sorted.
    pub fn from_edges(n: usize, edges: &[(u32, u32, f32)]) -> Self {
        let mut degree = vec![0u64; n];
        for &(u, _, _) in edges {
            degree[u as usize] += 1;
        }
        let mut row_offsets = vec![0u64; n + 1];
        for u in 0..n {
            row_offsets[u + 1] = row_offsets[u] + degree[u];
        }
        let m = edges.len();
        let mut col = vec![0u32; m];
        let mut weights = vec![0f32; m];
        let mut cursor = row_offsets.clone();
        for &(u, v, w) in edges {
            let p = cursor[u as usize] as usize;
            col[p] = v;
            weights[p] = w;
            cursor[u as usize] += 1;
        }
        Csr::with_identity_ids(row_offsets, col, weights)
    }

    /// Assemble dense arrays over `row_offsets.len() - 1` vertices with the
    /// identity id mapping.
    fn with_identity_ids(row_offsets: Vec<u64>, col: Vec<u32>, weights: Vec<f32>) -> Self {
        let n = row_offsets.len() - 1;
        Csr {
            row_offsets,
            col,
            weights,
            ids: (0..n as VertexId).collect(),
            id_map: (0..n).map(|i| (i as VertexId, i as u32)).collect(),
            dangling_skipped: 0,
        }
    }

    /// A copy of `base` over `n >= base.num_vertices()` vertices with
    /// identity ids (as [`Csr::from_edges`] gives), in which each row named
    /// in `touched` (strictly ascending) holds the `(target, weight)` pairs
    /// `fill(u, row)` pushes instead of its base row. Every other row is
    /// copied verbatim, in bulk runs between touched rows; rows past the
    /// base are empty. The cost is one copy of the base arrays plus the
    /// replacement rows.
    pub fn splice_rows(
        base: &Csr,
        n: usize,
        touched: &[u32],
        mut fill: impl FnMut(u32, &mut Vec<(u32, f32)>),
    ) -> Csr {
        let base_n = base.num_vertices();
        assert!(n >= base_n, "splice_rows shrinks {base_n} rows to {n}");
        assert!(
            touched.windows(2).all(|w| w[0] < w[1])
                && touched.last().is_none_or(|&u| (u as usize) < n),
            "touched rows must be strictly ascending and below {n}"
        );
        // Fill the replacement rows first so the arrays are sized exactly.
        let mut row = Vec::new();
        let mut repl: Vec<(u32, f32)> = Vec::new();
        let mut ends = Vec::with_capacity(touched.len());
        let mut replaced = 0usize;
        for &u in touched {
            row.clear();
            fill(u, &mut row);
            repl.extend_from_slice(&row);
            ends.push(repl.len());
            if (u as usize) < base_n {
                replaced += base.degree(u) as usize;
            }
        }
        let m = base.num_edges() - replaced + repl.len();
        let mut row_offsets = Vec::with_capacity(n + 1);
        row_offsets.push(0);
        let mut out = Csr {
            row_offsets,
            col: Vec::with_capacity(m),
            weights: Vec::with_capacity(m),
            ids: Vec::new(),
            id_map: Vec::new(),
            dangling_skipped: 0,
        };
        let (mut next, mut start) = (0usize, 0usize);
        for (&u, &end) in touched.iter().zip(&ends) {
            out.push_rows_of(base, next, u as usize);
            out.col.extend(repl[start..end].iter().map(|&(t, _)| t));
            out.weights.extend(repl[start..end].iter().map(|&(_, w)| w));
            out.row_offsets.push(out.col.len() as u64);
            (next, start) = (u as usize + 1, end);
        }
        out.push_rows_of(base, next, n);
        Csr::with_identity_ids(out.row_offsets, out.col, out.weights)
    }

    /// Append `base`'s rows `from..to` (empty past the base) to a CSR
    /// under construction.
    fn push_rows_of(&mut self, base: &Csr, from: usize, to: usize) {
        let hi = to.min(base.num_vertices());
        if from < hi {
            let (lo_e, hi_e) = (base.row_offsets[from], base.row_offsets[hi]);
            let shift = self.col.len() as u64;
            self.col
                .extend_from_slice(&base.col[lo_e as usize..hi_e as usize]);
            self.weights
                .extend_from_slice(&base.weights[lo_e as usize..hi_e as usize]);
            self.row_offsets.extend(
                base.row_offsets[from + 1..=hi]
                    .iter()
                    .map(|&o| o - lo_e + shift),
            );
        }
        let len = self.col.len() as u64;
        self.row_offsets
            .extend(std::iter::repeat_n(len, to - from.max(hi)));
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.ids.len()
    }

    /// Number of stored arcs.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col.len()
    }

    /// Out-degree of dense vertex `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> u32 {
        (self.row_offsets[u as usize + 1] - self.row_offsets[u as usize]) as u32
    }

    /// Neighbor slice of dense vertex `u`.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let lo = self.row_offsets[u as usize] as usize;
        let hi = self.row_offsets[u as usize + 1] as usize;
        &self.col[lo..hi]
    }

    /// Weight slice parallel to [`Csr::neighbors`].
    #[inline]
    pub fn edge_weights(&self, u: u32) -> &[f32] {
        let lo = self.row_offsets[u as usize] as usize;
        let hi = self.row_offsets[u as usize + 1] as usize;
        &self.weights[lo..hi]
    }

    /// Raw row-offset array (for kernels that index edges globally).
    #[inline]
    pub fn row_offsets(&self) -> &[u64] {
        &self.row_offsets
    }

    /// Raw column array.
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.col
    }

    /// Raw weight array.
    #[inline]
    pub fn weight_values(&self) -> &[f32] {
        &self.weights
    }

    /// External id of dense vertex `u`.
    #[inline]
    pub fn id_of(&self, u: u32) -> VertexId {
        self.ids[u as usize]
    }

    /// Dense index of external id, if present.
    pub fn dense_of(&self, id: VertexId) -> Option<u32> {
        self.id_map
            .binary_search_by_key(&id, |&(k, _)| k)
            .ok()
            .map(|p| self.id_map[p].1)
    }

    /// Reverse every edge (used to get in-edges on static graphs). One
    /// counting pass and one scatter pass, O(n + m): each in-row lists its
    /// sources in ascending order, parallel edges in out-row order.
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let m = self.num_edges();
        let mut row_offsets = vec![0u64; n + 1];
        for &v in &self.col {
            row_offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            row_offsets[v + 1] += row_offsets[v];
        }
        let mut cursor = row_offsets[..n].to_vec();
        let mut col = vec![0u32; m];
        let mut weights = vec![0f32; m];
        for u in 0..n {
            let (lo, hi) = (
                self.row_offsets[u] as usize,
                self.row_offsets[u + 1] as usize,
            );
            for (&v, &w) in self.col[lo..hi].iter().zip(&self.weights[lo..hi]) {
                let p = cursor[v as usize] as usize;
                col[p] = u as u32;
                weights[p] = w;
                cursor[v as usize] += 1;
            }
        }
        Csr {
            row_offsets,
            col,
            weights,
            ids: self.ids.clone(),
            id_map: self.id_map.clone(),
            dangling_skipped: 0,
        }
    }

    /// Symmetrize: ensure `v in N(u)  =>  u in N(v)`, deduplicating edges.
    /// Self-loops are dropped and every row comes out sorted ascending, all
    /// weights 1. Used by undirected kernels (CComp, kCore, TC, GColor).
    pub fn symmetrize(&self) -> Csr {
        self.symmetrize_with(&self.transpose())
    }

    /// [`Csr::symmetrize`] given `inc`, this graph's [`Csr::transpose`]:
    /// one [`sym_row`] merge per vertex, O(n + m log d_max), instead of a
    /// global sort of all 2m directed pairs.
    pub fn symmetrize_with(&self, inc: &Csr) -> Csr {
        let n = self.num_vertices();
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut col = Vec::with_capacity(self.num_edges() + inc.num_edges());
        let mut sorted = Vec::new();
        row_offsets.push(0u64);
        for u in 0..n as u32 {
            sym_row(
                u,
                self.neighbors(u),
                inc.neighbors(u),
                &mut sorted,
                &mut col,
            );
            row_offsets.push(col.len() as u64);
        }
        col.shrink_to_fit();
        Csr {
            row_offsets,
            weights: vec![1.0; col.len()],
            col,
            ids: self.ids.clone(),
            id_map: self.id_map.clone(),
            dangling_skipped: 0,
        }
    }

    /// Sort each adjacency list ascending (required by intersection-based
    /// kernels like Schank's triangle counting).
    pub fn sort_adjacency(&mut self) {
        for u in 0..self.num_vertices() {
            let lo = self.row_offsets[u] as usize;
            let hi = self.row_offsets[u + 1] as usize;
            // sort col and weights together
            let mut pair: Vec<(u32, f32)> = self.col[lo..hi]
                .iter()
                .copied()
                .zip(self.weights[lo..hi].iter().copied())
                .collect();
            pair.sort_unstable_by_key(|&(c, _)| c);
            for (k, (c, w)) in pair.into_iter().enumerate() {
                self.col[lo + k] = c;
                self.weights[lo + k] = w;
            }
        }
    }

    /// Traced sequential scan over a row (CPU-side CSR baseline accesses).
    pub fn visit_neighbors_t<T: Tracer>(
        &self,
        u: u32,
        t: &mut T,
        mut f: impl FnMut(u32, f32, &mut T),
    ) {
        t.enter_framework();
        t.region(Region::CsrScan);
        t.load(addr_of(&self.row_offsets[u as usize]), 16);
        let lo = self.row_offsets[u as usize] as usize;
        let hi = self.row_offsets[u as usize + 1] as usize;
        for i in lo..hi {
            t.load(addr_of(&self.col[i]), 4);
            t.branch(line!() as usize, true);
            f(self.col[i], self.weights[i], t);
        }
        t.branch(line!() as usize, false);
        t.exit_framework();
    }

    /// Approximate device-resident size in bytes (row offsets + columns +
    /// weights), the quantity that must fit in GPU memory.
    pub fn byte_size(&self) -> usize {
        self.row_offsets.len() * 8 + self.col.len() * 4 + self.weights.len() * 4
    }
}

/// Append the symmetric row of vertex `u` to `dst`: the sorted,
/// deduplicated union of its out-row and in-row, without `u` itself.
/// `in_row` must be sorted ascending, as [`Csr::transpose`] leaves it;
/// `out_row` may come in any order (`sorted` is scratch space for its
/// sorted copy). This is the one definition of a symmetric row: whole-graph
/// [`Csr::symmetrize_with`] and any per-row rebuild both go through it.
pub fn sym_row(u: u32, out_row: &[u32], in_row: &[u32], sorted: &mut Vec<u32>, dst: &mut Vec<u32>) {
    debug_assert!(in_row.windows(2).all(|w| w[0] <= w[1]));
    sorted.clear();
    sorted.extend_from_slice(out_row);
    sorted.sort_unstable();
    let start = dst.len();
    let (mut i, mut j) = (0, 0);
    while i < sorted.len() || j < in_row.len() {
        let v = if j == in_row.len() || (i < sorted.len() && sorted[i] <= in_row[j]) {
            i += 1;
            sorted[i - 1]
        } else {
            j += 1;
            in_row[j - 1]
        };
        if v != u && dst[start..].last() != Some(&v) {
            dst.push(v);
        }
    }
}

/// A CSR paired with its in-edge (transposed) view.
///
/// Direction-optimizing traversals need both directions: top-down steps
/// expand out-edges of the frontier while bottom-up steps scan the
/// *in*-edges of unvisited vertices looking for a visited parent. For
/// symmetric graphs the two views coincide, so [`BiCsr::symmetric`] stores
/// the adjacency once and serves it for both directions.
#[derive(Debug, Clone, PartialEq)]
pub struct BiCsr {
    out: Csr,
    /// `None` means the graph is symmetric and `out` doubles as the in-view.
    inc: Option<Csr>,
}

json_struct!(BiCsr { out, inc });

impl BiCsr {
    /// Pair a directed CSR with its transpose (built here, O(n + m)).
    pub fn directed(out: Csr) -> Self {
        let inc = out.transpose();
        Self::from_parts(out, inc)
    }

    /// Pair a directed CSR with an already-built in-edge view; `inc` must
    /// equal `out.transpose()`.
    pub fn from_parts(out: Csr, inc: Csr) -> Self {
        BiCsr {
            out,
            inc: Some(inc),
        }
    }

    /// Wrap an already-symmetric CSR; no transpose is materialized.
    pub fn symmetric(csr: Csr) -> Self {
        BiCsr {
            out: csr,
            inc: None,
        }
    }

    /// Out-edge view.
    #[inline]
    pub fn out(&self) -> &Csr {
        &self.out
    }

    /// In-edge view (the out view itself for symmetric graphs).
    #[inline]
    pub fn inc(&self) -> &Csr {
        self.inc.as_ref().unwrap_or(&self.out)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of stored arcs in the out view.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let vs: Vec<_> = (0..4).map(|_| g.add_vertex()).collect();
        g.add_edge(vs[0], vs[1], 1.0).unwrap();
        g.add_edge(vs[0], vs[2], 2.0).unwrap();
        g.add_edge(vs[1], vs[3], 3.0).unwrap();
        g.add_edge(vs[2], vs[3], 4.0).unwrap();
        g
    }

    #[test]
    fn from_graph_matches_topology() {
        let g = diamond_graph();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(3), 0);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.edge_weights(1), &[3.0]);
    }

    #[test]
    fn id_mapping_round_trips() {
        let mut g = PropertyGraph::new();
        g.add_vertex_with_id(100).unwrap();
        g.add_vertex_with_id(7).unwrap();
        g.add_vertex_with_id(55).unwrap();
        g.add_edge(100, 7, 1.0).unwrap();
        let csr = Csr::from_graph(&g);
        for u in 0..3u32 {
            assert_eq!(csr.dense_of(csr.id_of(u)), Some(u));
        }
        assert_eq!(csr.dense_of(9999), None);
        // edge 100 -> 7 survives renumbering
        let u = csr.dense_of(100).unwrap();
        let v = csr.dense_of(7).unwrap();
        assert_eq!(csr.neighbors(u), &[v]);
    }

    #[test]
    fn from_edges_handles_unsorted_input() {
        let edges = [(2u32, 0u32, 1.0f32), (0, 1, 2.0), (2, 1, 3.0), (0, 2, 4.0)];
        let csr = Csr::from_edges(3, &edges);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(1), 0);
        assert_eq!(csr.degree(2), 2);
        let mut n0 = csr.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond_graph();
        let csr = Csr::from_graph(&g);
        let t = csr.transpose();
        assert_eq!(t.num_edges(), csr.num_edges());
        assert_eq!(t.degree(0), 0);
        assert_eq!(t.degree(3), 2);
        let mut p3 = t.neighbors(3).to_vec();
        p3.sort_unstable();
        assert_eq!(p3, vec![1, 2]);
    }

    #[test]
    fn symmetrize_makes_edges_bidirectional_and_deduped() {
        let edges = [(0u32, 1u32, 1.0f32), (1, 0, 1.0), (1, 2, 1.0), (2, 2, 1.0)];
        let s = Csr::from_edges(3, &edges).symmetrize();
        // 0-1 deduped to one pair each way, 1-2 symmetrized, self-loop dropped
        assert_eq!(s.num_edges(), 4);
        assert_eq!(s.neighbors(1), &[0, 2]);
        assert_eq!(s.neighbors(2), &[1]);
    }

    #[test]
    fn sort_adjacency_orders_columns_and_keeps_weights() {
        let edges = [(0u32, 3u32, 3.0f32), (0, 1, 1.0), (0, 2, 2.0)];
        let mut csr = Csr::from_edges(4, &edges);
        csr.sort_adjacency();
        assert_eq!(csr.neighbors(0), &[1, 2, 3]);
        assert_eq!(csr.edge_weights(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_graph_produces_empty_csr() {
        let g = PropertyGraph::new();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.row_offsets(), &[0]);
    }

    #[test]
    fn traced_scan_reports_row_reads() {
        use crate::trace::CountingTracer;
        let g = diamond_graph();
        let csr = Csr::from_graph(&g);
        let mut t = CountingTracer::new();
        let mut cnt = 0;
        csr.visit_neighbors_t(0, &mut t, |_, _, _| cnt += 1);
        assert_eq!(cnt, 2);
        assert!(t.loads >= 3); // row offsets + 2 columns
    }

    #[test]
    fn byte_size_accounts_for_all_arrays() {
        let csr = Csr::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        assert_eq!(csr.byte_size(), 4 * 8 + 2 * 4 + 2 * 4);
    }

    /// Build a graph that contains a dangling edge: `delete_vertex` cleans up
    /// both directions, so the stale edge is injected through the public
    /// `Vertex::out` field afterwards — the only way to produce one.
    fn graph_with_dangling_edge() -> (PropertyGraph, VertexId) {
        use crate::vertex::Edge;
        let mut g = PropertyGraph::new();
        let a = g.add_vertex();
        let b = g.add_vertex();
        let dead = g.add_vertex();
        g.add_edge(a, b, 1.0).unwrap();
        g.delete_vertex(dead).unwrap();
        g.find_vertex_mut(a).unwrap().out.push(Edge::new(dead));
        (g, dead)
    }

    #[test]
    fn dangling_edge_is_skipped_and_counted() {
        // Regression: this used to panic ("edge target must be a live vertex").
        let (g, _) = graph_with_dangling_edge();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.num_vertices(), 2);
        assert_eq!(csr.num_edges(), 1, "only the live edge survives");
        assert_eq!(csr.dangling_skipped(), 1);
        // The surviving topology is exactly a -> b.
        let a = csr.dense_of(csr.id_of(0)).unwrap();
        assert_eq!(csr.degree(a), 1);
    }

    #[test]
    fn try_from_graph_reports_dangling_edge() {
        let (g, dead) = graph_with_dangling_edge();
        match Csr::try_from_graph(&g) {
            Err(GraphError::VertexNotFound(id)) => assert_eq!(id, dead),
            other => panic!("expected VertexNotFound, got {other:?}"),
        }
    }

    #[test]
    fn try_from_graph_succeeds_on_clean_graph() {
        let g = diamond_graph();
        let csr = Csr::try_from_graph(&g).unwrap();
        assert_eq!(csr, Csr::from_graph(&g));
        assert_eq!(csr.dangling_skipped(), 0);
    }

    #[test]
    fn sparse_id_space_uses_fallback_lookup() {
        // Ids far beyond 8n force the binary-search path; topology must match
        // what the dense-table path produces for equivalent structure.
        let mut g = PropertyGraph::new();
        g.add_vertex_with_id(1_000_000).unwrap();
        g.add_vertex_with_id(2_000_000).unwrap();
        g.add_vertex_with_id(5).unwrap();
        g.add_edge(1_000_000, 2_000_000, 1.0).unwrap();
        g.add_edge(2_000_000, 5, 2.0).unwrap();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.num_edges(), 2);
        let u = csr.dense_of(1_000_000).unwrap();
        let v = csr.dense_of(2_000_000).unwrap();
        assert_eq!(csr.neighbors(u), &[v]);
    }

    #[test]
    fn bicsr_directed_pairs_out_with_transpose() {
        let g = diamond_graph();
        let bi = BiCsr::directed(Csr::from_graph(&g));
        assert_eq!(bi.num_vertices(), 4);
        assert_eq!(bi.num_edges(), 4);
        assert_eq!(bi.out().degree(0), 2);
        assert_eq!(bi.inc().degree(0), 0);
        let mut parents = bi.inc().neighbors(3).to_vec();
        parents.sort_unstable();
        assert_eq!(parents, vec![1, 2]);
    }

    #[test]
    fn bicsr_symmetric_shares_one_view() {
        let s = Csr::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).symmetrize();
        let bi = BiCsr::symmetric(s.clone());
        assert_eq!(bi.out(), &s);
        assert_eq!(bi.inc(), &s);
    }

    /// The global-sort symmetrization [`Csr::symmetrize`] replaced: every
    /// non-loop arc as two directed pairs, one sort of all 2m, dedup. Kept
    /// as the reference the per-row merge must match bit for bit.
    fn symmetrize_by_global_sort(csr: &Csr) -> Csr {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for u in 0..csr.num_vertices() as u32 {
            for &v in csr.neighbors(u) {
                if u != v {
                    pairs.push((u, v));
                    pairs.push((v, u));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let edges: Vec<(u32, u32, f32)> = pairs.into_iter().map(|(u, v)| (u, v, 1.0)).collect();
        let mut s = Csr::from_edges(csr.num_vertices(), &edges);
        s.ids = csr.ids.clone();
        s.id_map = csr.id_map.clone();
        s
    }

    /// The edge-list transpose [`Csr::transpose`] replaced.
    fn transpose_by_edge_list(csr: &Csr) -> Csr {
        let mut edges = Vec::new();
        for u in 0..csr.num_vertices() as u32 {
            for (&v, &w) in csr.neighbors(u).iter().zip(csr.edge_weights(u)) {
                edges.push((v, u, w));
            }
        }
        let mut t = Csr::from_edges(csr.num_vertices(), &edges);
        t.ids = csr.ids.clone();
        t.id_map = csr.id_map.clone();
        t
    }

    /// A random graph case: `n` and endpoint pairs reduced mod `n`. Few
    /// vertices and many pairs force self-loops and parallel edges; weights
    /// follow edge order, so parallel copies carry distinct weights.
    fn random_case(rng: &mut graphbig_datagen::rng::Rng) -> (u32, Vec<(u32, u32)>) {
        let n = rng.gen_range(0u32..24);
        let pairs = graphbig_datagen::prop::vec_of(rng, 0..120, |r| {
            (r.gen_range(0u32..24), r.gen_range(0u32..24))
        });
        (n, pairs)
    }

    fn case_csr(n: u32, pairs: &[(u32, u32)]) -> Csr {
        let edges: Vec<(u32, u32, f32)> = if n == 0 {
            Vec::new()
        } else {
            pairs
                .iter()
                .enumerate()
                .map(|(i, &(u, v))| (u % n, v % n, i as f32 + 0.5))
                .collect()
        };
        Csr::from_edges(n as usize, &edges)
    }

    #[test]
    fn linear_view_builders_match_the_sorting_references() {
        use graphbig_datagen::prop::{check, Config};
        check(
            "linear_view_builders_match_the_sorting_references",
            Config::with_cases(256),
            random_case,
            |(n, pairs)| {
                let csr = case_csr(*n, pairs);
                assert_eq!(csr.transpose(), transpose_by_edge_list(&csr));
                assert_eq!(csr.symmetrize(), symmetrize_by_global_sort(&csr));
            },
        );
        // Non-identity ids carry over to both views.
        let g = diamond_graph();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.transpose(), transpose_by_edge_list(&csr));
        assert_eq!(csr.symmetrize(), symmetrize_by_global_sort(&csr));
    }

    #[test]
    fn splice_rows_replaces_exactly_the_touched_rows() {
        use graphbig_datagen::prop::{check, Config};
        check(
            "splice_rows_replaces_exactly_the_touched_rows",
            Config::with_cases(256),
            |rng| {
                let (n, pairs) = random_case(rng);
                let grow = rng.gen_range(0u32..4);
                let touched: Vec<u32> = (0..n + grow)
                    .filter(|_| rng.gen_range(0u32..3) == 0)
                    .collect();
                ((n, pairs), (grow, touched))
            },
            |((n, pairs), (grow, touched))| {
                let base = case_csr(*n, pairs);
                let total = (n + grow) as usize;
                // Replacement row u: one self-loop plus u's base row reversed.
                let replacement = |u: u32| -> Vec<(u32, f32)> {
                    let mut row = vec![(u, -1.0)];
                    if (u as usize) < base.num_vertices() {
                        let cols = base.neighbors(u).iter().rev();
                        row.extend(
                            cols.zip(base.edge_weights(u).iter().rev())
                                .map(|(&t, &w)| (t, w)),
                        );
                    }
                    row
                };
                let touched: Vec<u32> = touched.iter().copied().filter(|&u| u < n + grow).collect();
                let got =
                    Csr::splice_rows(&base, total, &touched, |u, row| row.extend(replacement(u)));
                let mut edges = Vec::new();
                for u in 0..total as u32 {
                    if touched.contains(&u) {
                        edges.extend(replacement(u).into_iter().map(|(t, w)| (u, t, w)));
                    } else if (u as usize) < base.num_vertices() {
                        for (&t, &w) in base.neighbors(u).iter().zip(base.edge_weights(u)) {
                            edges.push((u, t, w));
                        }
                    }
                }
                assert_eq!(got, Csr::from_edges(total, &edges));
            },
        );
        // An untouched splice of a renumbered graph is a copy with identity ids.
        let csr = Csr::from_graph(&diamond_graph());
        let copy = Csr::splice_rows(&csr, 5, &[], |_, _| unreachable!());
        assert_eq!(copy.neighbors(0), csr.neighbors(0));
        assert_eq!(copy.num_vertices(), 5);
        assert_eq!(copy.id_of(4), 4);
    }

    #[test]
    fn sym_row_is_local_to_its_row() {
        // The previous row in `dst` ends in 3; this row's 3 must still land.
        let mut dst = vec![1, 3];
        sym_row(0, &[3, 3, 0, 2], &[0, 2, 5], &mut Vec::new(), &mut dst);
        assert_eq!(dst, vec![1, 3, 2, 3, 5]);
    }

    #[test]
    fn csr_reflects_graph_after_mutation() {
        // CSR is a snapshot: rebuilding after a deletion reflects the change.
        let mut g = diamond_graph();
        let before = Csr::from_graph(&g);
        assert_eq!(before.num_edges(), 4);
        let ids = g.vertex_ids().to_vec();
        g.delete_vertex(ids[1]).unwrap();
        let after = Csr::from_graph(&g);
        assert_eq!(after.num_vertices(), 3);
        assert_eq!(after.num_edges(), 2);
    }
}
