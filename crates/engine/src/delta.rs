//! Live write path: the concurrent mutation buffer and delta overlay.
//!
//! The [`GraphStore`](crate::store::GraphStore) publishes *immutable*
//! epochs; this module is how writes happen between publishes. A
//! [`MutationBuffer`] accepts batches of [`Mutation`]s and folds each batch
//! into a fresh copy-on-write [`DeltaOverlay`] stamped with a globally
//! monotone delta-sequence number. Readers grab the current overlay `Arc`
//! (wait-free apart from one short mutex) and evaluate point queries —
//! degree, k-hop — against *base CSR + overlay* without ever blocking a
//! writer; whole-graph kernels run against a materialized CSR built by
//! [`DeltaOverlay::materialize`] (the engine memoizes that per
//! `(epoch, seq)`).
//!
//! The fold is a row patch, not a rebuild: it copies the base's out, in
//! and symmetric views and rebuilds only the rows the overlay names, so
//! its cost is a copy of three views plus the touched rows, whatever the
//! size of the graph around them.
//!
//! Semantics are set-based and tombstone-wins, chosen so a mutation stream
//! is confluent — the live edge set is always
//! `(base ∪ inserts) − deletes`, regardless of interleaving:
//!
//! - Adding an edge that exists in the base upserts its weight (a patch);
//!   adding one already tombstoned is a no-op (the delete wins).
//! - Removing an edge tombstones every parallel base copy of the pair and
//!   drops any overlay-inserted copy.
//! - Removing a vertex kills all its incident edges (base and overlay);
//!   the dense id is never reused, so the vertex survives as an isolated
//!   id with degree `(0, 0)` — exactly what a from-scratch rebuild yields.
//! - New vertices take dense ids `base_n, base_n + 1, …` in creation
//!   order.
//!
//! The correctness bar is the **rebuild oracle**: after any mutation
//! stream, reads through the overlay and reads after compaction must both
//! be digest-identical ([`structural_digest`]) to a graph rebuilt from
//! scratch with the same mutations applied, and the row patch must equal
//! that rebuild view for view
//! ([`rebuild_from_scratch`](crate::traffic::rebuild_from_scratch)).
//! [`IncrementalCComp`] maintains connected-component labels across
//! *insert-only* deltas with a union-find seeded from the base labels; any
//! effective delete marks the overlay dirty and the engine falls back to a
//! full recompute on the materialized graph.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use graphbig_framework::csr::{sym_row, Csr};
use graphbig_workloads::service::ServiceGraph;

use crate::shard::ShardedGraph;

/// One structural update, in dense-id space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation {
    /// Append a new isolated vertex; it takes the next dense id.
    AddVertex,
    /// Remove a vertex and every edge incident to it. The id is retired,
    /// never reused.
    RemoveVertex {
        /// Dense id of the vertex to remove.
        v: u32,
    },
    /// Insert a directed edge, or upsert its weight if the pair already
    /// exists. A no-op if either endpoint is dead or the pair is
    /// tombstoned (deletes win).
    AddEdge {
        /// Source vertex.
        u: u32,
        /// Target vertex.
        v: u32,
        /// Edge weight.
        w: f32,
    },
    /// Delete every copy of the directed edge `u -> v` (base and overlay).
    RemoveEdge {
        /// Source vertex.
        u: u32,
        /// Target vertex.
        v: u32,
    },
    /// Update the weight of a live edge; a no-op if the pair is not live.
    SetWeight {
        /// Source vertex.
        u: u32,
        /// Target vertex.
        v: u32,
        /// New weight.
        w: f32,
    },
}

/// What one [`MutationBuffer::apply`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationReceipt {
    /// Delta-sequence number the overlay advanced to.
    pub seq: u64,
    /// Epoch the overlay applies to.
    pub epoch: u64,
    /// Mutations that changed state (no-ops excluded).
    pub applied: usize,
}

/// An immutable view of all mutations applied on top of one base epoch.
///
/// Readers hold an `Arc<DeltaOverlay>` and combine it with the matching
/// epoch's [`ShardedGraph`]; writers never touch a published overlay — the
/// buffer clones it, applies the batch, and swaps the `Arc`.
#[derive(Debug, Clone)]
pub struct DeltaOverlay {
    epoch: u64,
    seq: u64,
    base_n: u32,
    added_vertices: u32,
    removed: HashSet<u32>,
    /// Overlay out-adjacency: inserted edges by source, insertion order,
    /// unique targets (adds upsert in place).
    adds: HashMap<u32, Vec<(u32, f32)>>,
    /// Reverse index of `adds`: sources per target (for in-degree).
    in_adds: HashMap<u32, Vec<u32>>,
    /// Tombstoned base pairs (every parallel copy is dead).
    deleted: HashSet<(u32, u32)>,
    /// Weight overrides on live base pairs.
    patches: HashMap<(u32, u32), f32>,
    /// Cumulative append-only log of overlay edge inserts, the feed for
    /// [`IncrementalCComp`]. Entries are never removed — a later delete
    /// sets `dirty` instead, which retires the incremental path for this
    /// overlay generation.
    insert_log: Vec<(u32, u32, f32)>,
    /// True once any effective delete or vertex removal happened.
    dirty: bool,
}

impl DeltaOverlay {
    /// An empty overlay over `base_n` vertices of `epoch`, at `seq`.
    pub fn empty(epoch: u64, seq: u64, base_n: u32) -> Self {
        DeltaOverlay {
            epoch,
            seq,
            base_n,
            added_vertices: 0,
            removed: HashSet::new(),
            adds: HashMap::new(),
            in_adds: HashMap::new(),
            deleted: HashSet::new(),
            patches: HashMap::new(),
            insert_log: Vec::new(),
            dirty: false,
        }
    }

    /// Epoch of the base snapshot this overlay applies to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Delta-sequence number: globally monotone across epochs, bumped once
    /// per applied batch, never reset by compaction.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Vertices in the base snapshot.
    pub fn base_n(&self) -> u32 {
        self.base_n
    }

    /// Total vertices in the overlay view (base + added; removed ids still
    /// count — they are retired, not recycled).
    pub fn n_total(&self) -> u32 {
        self.base_n + self.added_vertices
    }

    /// True when the overlay view equals the base snapshot exactly.
    pub fn is_empty(&self) -> bool {
        self.added_vertices == 0
            && self.removed.is_empty()
            && self.adds.is_empty()
            && self.deleted.is_empty()
            && self.patches.is_empty()
    }

    /// True once any effective delete or vertex removal happened —
    /// the signal that retires the insert-only incremental kernels.
    pub fn dirty(&self) -> bool {
        self.dirty
    }

    /// Edges currently inserted by the overlay (live ones only).
    pub fn overlay_edges(&self) -> usize {
        self.adds.values().map(Vec::len).sum()
    }

    /// Tombstoned base pairs.
    pub fn deleted_edges(&self) -> usize {
        self.deleted.len()
    }

    /// The cumulative insert log (see [`IncrementalCComp`]).
    pub fn insert_log(&self) -> &[(u32, u32, f32)] {
        &self.insert_log
    }

    /// Approximate heap footprint in bytes — the "overlay bytes per edge"
    /// numerator the mutation bench reports.
    pub fn byte_size(&self) -> usize {
        let adds: usize = self.adds.values().map(|v| 12 + v.len() * 8).sum();
        let in_adds: usize = self.in_adds.values().map(|v| 12 + v.len() * 4).sum();
        adds + in_adds
            + self.removed.len() * 8
            + self.deleted.len() * 12
            + self.patches.len() * 16
            + self.insert_log.len() * 12
    }

    fn alive(&self, v: u32) -> bool {
        v < self.n_total() && !self.removed.contains(&v)
    }

    fn base_has_edge(&self, base: &ShardedGraph, u: u32, v: u32) -> bool {
        u < self.base_n && v < self.base_n && base.service().out().neighbors(u).contains(&v)
    }

    fn overlay_has_edge(&self, u: u32, v: u32) -> bool {
        self.adds
            .get(&u)
            .is_some_and(|row| row.iter().any(|&(t, _)| t == v))
    }

    /// Apply one mutation in place (buffer-internal: published overlays are
    /// immutable). Returns true when state changed.
    fn apply_one(&mut self, base: &ShardedGraph, m: Mutation) -> bool {
        match m {
            Mutation::AddVertex => {
                self.added_vertices += 1;
                true
            }
            Mutation::RemoveVertex { v } => {
                if !self.alive(v) {
                    return false;
                }
                self.removed.insert(v);
                // Purge overlay edges out of and into v so the adds maps
                // only ever hold live edges.
                if let Some(row) = self.adds.remove(&v) {
                    for (t, _) in row {
                        prune(&mut self.in_adds, t, |&s| s == v);
                    }
                }
                if let Some(sources) = self.in_adds.remove(&v) {
                    for s in sources {
                        if let Some(row) = self.adds.get_mut(&s) {
                            row.retain(|&(t, _)| t != v);
                            if row.is_empty() {
                                self.adds.remove(&s);
                            }
                        }
                    }
                }
                self.patches.retain(|&(a, b), _| a != v && b != v);
                self.dirty = true;
                true
            }
            Mutation::AddEdge { u, v, w } => {
                if u == v || !self.alive(u) || !self.alive(v) || self.deleted.contains(&(u, v)) {
                    return false;
                }
                if self.base_has_edge(base, u, v) {
                    // Pair already in the base: pure weight upsert.
                    return self.patches.insert((u, v), w) != Some(w);
                }
                if let Some(row) = self.adds.get_mut(&u) {
                    if let Some(slot) = row.iter_mut().find(|(t, _)| *t == v) {
                        let changed = slot.1 != w;
                        slot.1 = w;
                        return changed;
                    }
                }
                self.adds.entry(u).or_default().push((v, w));
                self.in_adds.entry(v).or_default().push(u);
                self.insert_log.push((u, v, w));
                true
            }
            Mutation::RemoveEdge { u, v } => {
                let mut changed = false;
                if self.overlay_has_edge(u, v) {
                    prune(&mut self.adds, u, |&(t, _)| t == v);
                    prune(&mut self.in_adds, v, |&s| s == u);
                    changed = true;
                }
                if self.base_has_edge(base, u, v) && self.deleted.insert((u, v)) {
                    self.patches.remove(&(u, v));
                    changed = true;
                }
                if changed {
                    self.dirty = true;
                }
                changed
            }
            Mutation::SetWeight { u, v, w } => {
                if let Some(row) = self.adds.get_mut(&u) {
                    if let Some(slot) = row.iter_mut().find(|(t, _)| *t == v) {
                        let changed = slot.1 != w;
                        slot.1 = w;
                        return changed;
                    }
                }
                if self.base_has_edge(base, u, v) && !self.deleted.contains(&(u, v)) {
                    return self.patches.insert((u, v), w) != Some(w);
                }
                false
            }
        }
    }

    /// Visit every live out-edge of `u` — base edges minus tombstones and
    /// dead endpoints (weights patched), then overlay inserts in insertion
    /// order. This is the one definition of "the current graph" every
    /// overlay read and [`DeltaOverlay::materialize`] share.
    pub fn for_each_live_out(&self, base: &ShardedGraph, u: u32, mut f: impl FnMut(u32, f32)) {
        if !self.alive(u) {
            return;
        }
        if u < self.base_n {
            let out = base.service().out();
            let weights = out.edge_weights(u);
            for (i, &t) in out.neighbors(u).iter().enumerate() {
                if self.removed.contains(&t) || self.deleted.contains(&(u, t)) {
                    continue;
                }
                let w = self.patches.get(&(u, t)).copied().unwrap_or(weights[i]);
                f(t, w);
            }
        }
        if let Some(row) = self.adds.get(&u) {
            for &(t, w) in row {
                f(t, w);
            }
        }
    }

    /// Point query: `(out, in)` degree of `v` through the overlay —
    /// identical to `materialize(..).degree(v)`, but O(degree) instead of
    /// O(n + m). `None` when `v` is outside the overlay vertex range.
    pub fn degree(&self, base: &ShardedGraph, v: u32) -> Option<(u32, u32)> {
        if v >= self.n_total() {
            return None;
        }
        if self.is_empty() {
            return base.degree(v);
        }
        if self.removed.contains(&v) {
            return Some((0, 0));
        }
        let mut out = 0u32;
        self.for_each_live_out(base, v, |_, _| out += 1);
        let mut inc = 0u32;
        if v < self.base_n {
            for &s in base.service().bi().inc().neighbors(v) {
                if !self.removed.contains(&s) && !self.deleted.contains(&(s, v)) {
                    inc += 1;
                }
            }
        }
        inc += self.in_adds.get(&v).map_or(0, |s| s.len() as u32);
        Some((out, inc))
    }

    /// Point query: distinct vertices within `hops` out-steps of `source`
    /// through the overlay (including the source). Matches
    /// `materialize(..).k_hop(source, hops)` exactly.
    pub fn k_hop(&self, base: &ShardedGraph, source: u32, hops: u32) -> u64 {
        let n = self.n_total() as usize;
        if n == 0 || source as usize >= n {
            return 0;
        }
        if self.is_empty() {
            return base.k_hop(source, hops);
        }
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
                self.for_each_live_out(base, u, |t, _| {
                    if !visited[t as usize] {
                        visited[t as usize] = true;
                        count += 1;
                        next.push(t);
                    }
                });
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
        }
        count
    }

    /// Fold the overlay into a fresh sharded graph over `n_total`
    /// vertices — the compaction step, and the recompute path for
    /// whole-graph kernels on a non-empty overlay.
    ///
    /// A row patch, not a rebuild: each of the base's three views (out, in,
    /// symmetric) is copied, and only the rows the overlay names
    /// ([`DeltaOverlay::touched_rows`]) are rebuilt. The result is equal,
    /// view for view, to building the live edge list from scratch through
    /// `Csr::from_edges` and [`ShardedGraph::build`]; the cost is a copy of
    /// the three views plus the touched rows.
    pub fn materialize(&self, base: &ShardedGraph, num_shards: usize) -> ShardedGraph {
        let n = self.n_total() as usize;
        let views = base.service();
        let rows = self.touched_rows(base);
        let out = Csr::splice_rows(views.out(), n, &rows.out, |u, row| {
            self.for_each_live_out(base, u, |t, w| row.push((t, w)))
        });
        let inc = Csr::splice_rows(views.bi().inc(), n, &rows.inc, |t, row| {
            self.live_in_row(base, t, row)
        });
        let (mut sorted, mut merged) = (Vec::new(), Vec::new());
        let sym = Csr::splice_rows(views.sym(), n, &rows.sym, |u, row| {
            merged.clear();
            sym_row(
                u,
                out.neighbors(u),
                inc.neighbors(u),
                &mut sorted,
                &mut merged,
            );
            row.extend(merged.iter().map(|&v| (v, 1.0)));
        });
        ShardedGraph::from_service(ServiceGraph::from_views(out, inc, sym), num_shards)
    }

    /// The rows of each view that differ from the base, sorted and unique:
    /// - an insert, tombstone or weight patch of `(u, t)` touches out-row
    ///   `u`, in-row `t` and symmetric rows `u` and `t`;
    /// - a removed vertex touches its own rows, the out-rows of its base
    ///   in-neighbours, the in-rows of its base out-neighbours and the
    ///   symmetric rows of both (its overlay edges are already purged from
    ///   the overlay, and were never in the base);
    /// - every added vertex touches all three of its rows.
    fn touched_rows(&self, base: &ShardedGraph) -> TouchedRows {
        let mut r = TouchedRows::default();
        let pairs = self
            .adds
            .iter()
            .flat_map(|(&u, row)| row.iter().map(move |&(t, _)| (u, t)));
        for (u, t) in pairs
            .chain(self.deleted.iter().copied())
            .chain(self.patches.keys().copied())
        {
            r.out.push(u);
            r.inc.push(t);
            r.sym.extend([u, t]);
        }
        let views = base.service();
        let added = self.base_n..self.n_total();
        for v in self.removed.iter().copied().chain(added) {
            r.out.push(v);
            r.inc.push(v);
            r.sym.push(v);
            // Below `base_n`, only removed vertices: drop their base edges.
            if v < self.base_n {
                let sources = views.bi().inc().neighbors(v);
                let targets = views.out().neighbors(v);
                r.out.extend_from_slice(sources);
                r.inc.extend_from_slice(targets);
                r.sym.extend(sources.iter().chain(targets));
            }
        }
        for rows in [&mut r.out, &mut r.inc, &mut r.sym] {
            rows.sort_unstable();
            rows.dedup();
        }
        r
    }

    /// The live in-edges of `t` as `(source, weight)`, sources ascending —
    /// one row of the transpose of [`DeltaOverlay::for_each_live_out`]: the
    /// base in-row minus removed sources and tombstones (weights patched),
    /// plus overlay inserts, stably sorted so parallel base copies keep
    /// their base order.
    fn live_in_row(&self, base: &ShardedGraph, t: u32, row: &mut Vec<(u32, f32)>) {
        if !self.alive(t) {
            return;
        }
        if t < self.base_n {
            let inc = base.service().bi().inc();
            for (&s, &w) in inc.neighbors(t).iter().zip(inc.edge_weights(t)) {
                if !self.removed.contains(&s) && !self.deleted.contains(&(s, t)) {
                    row.push((s, self.patches.get(&(s, t)).copied().unwrap_or(w)));
                }
            }
        }
        for &s in self.in_adds.get(&t).into_iter().flatten() {
            let (_, w) = self.adds[&s]
                .iter()
                .find(|&&(v, _)| v == t)
                .expect("in_adds mirrors adds");
            row.push((s, *w));
        }
        row.sort_by_key(|&(s, _)| s);
    }

    /// Structural digest of the overlay view — must equal
    /// [`structural_digest`] of both the materialized graph and a graph
    /// rebuilt from scratch with the same mutations. This is the oracle's
    /// comparison key.
    pub fn live_digest(&self, base: &ShardedGraph) -> u64 {
        digest_rows(self.n_total(), |u, row| {
            self.for_each_live_out(base, u, |t, w| row.push((t, w)))
        })
    }
}

/// Per-view row lists of [`DeltaOverlay::touched_rows`].
#[derive(Default)]
struct TouchedRows {
    out: Vec<u32>,
    inc: Vec<u32>,
    sym: Vec<u32>,
}

/// Remove matching entries from one keyed row, dropping the key when the
/// row empties.
fn prune<T>(map: &mut HashMap<u32, Vec<T>>, key: u32, mut dead: impl FnMut(&T) -> bool) {
    if let Some(row) = map.get_mut(&key) {
        row.retain(|e| !dead(e));
        if row.is_empty() {
            map.remove(&key);
        }
    }
}

/// Order-independent structural digest of a sharded graph: FNV-1a over
/// `(u, sorted [(v, weight bits)])` rows. Two graphs digest equal iff they
/// have the same vertex count and the same edge multiset with bit-equal
/// weights — regardless of within-row edge order.
pub fn structural_digest(g: &ShardedGraph) -> u64 {
    let out = g.service().out();
    digest_rows(g.num_vertices() as u32, |u, row| {
        for (i, &t) in out.neighbors(u).iter().enumerate() {
            row.push((t, out.edge_weights(u)[i]));
        }
    })
}

fn digest_rows(n: u32, mut fill: impl FnMut(u32, &mut Vec<(u32, f32)>)) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let eat = |h: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(PRIME);
        }
    };
    eat(&mut h, &n.to_le_bytes());
    let mut row: Vec<(u32, f32)> = Vec::new();
    for u in 0..n {
        row.clear();
        fill(u, &mut row);
        row.sort_unstable_by_key(|a| (a.0, a.1.to_bits()));
        eat(&mut h, &u.to_le_bytes());
        for &(t, w) in &row {
            eat(&mut h, &t.to_le_bytes());
            eat(&mut h, &w.to_bits().to_le_bytes());
        }
    }
    h
}

/// The write front door: batches in, copy-on-write overlays out.
///
/// One mutex guards the current overlay `Arc`. Writers clone the overlay,
/// apply their batch, and swap — readers holding the old `Arc` keep a
/// consistent view for free. The sequence number is *globally* monotone:
/// compaction resets the overlay contents to empty at the new epoch but
/// never rewinds `seq`, so `(epoch, seq)` pairs are never reused — exactly
/// what the result cache needs for structural invalidation.
pub struct MutationBuffer {
    current: Mutex<Arc<DeltaOverlay>>,
}

impl MutationBuffer {
    /// A buffer whose first overlay is empty over `base_n` vertices of
    /// `epoch`, at sequence 0.
    pub fn new(epoch: u64, base_n: u32) -> Self {
        MutationBuffer {
            current: Mutex::new(Arc::new(DeltaOverlay::empty(epoch, 0, base_n))),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Arc<DeltaOverlay>> {
        self.current.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current overlay (cheap: one mutex-guarded `Arc` clone).
    pub fn current(&self) -> Arc<DeltaOverlay> {
        Arc::clone(&self.lock())
    }

    /// Fold `batch` into a new overlay generation against `base` (which
    /// must be the graph of the overlay's epoch). Even an all-no-op batch
    /// bumps `seq` — sequence numbers count batches, not effects.
    pub fn apply(&self, base: &ShardedGraph, batch: &[Mutation]) -> MutationReceipt {
        let mut guard = self.lock();
        let mut next = (**guard).clone();
        next.seq += 1;
        let applied = batch.iter().filter(|&&m| next.apply_one(base, m)).count();
        let receipt = MutationReceipt {
            seq: next.seq,
            epoch: next.epoch,
            applied,
        };
        *guard = Arc::new(next);
        receipt
    }

    /// Swap in an empty overlay targeting `epoch` over `base_n` vertices,
    /// preserving `seq` — the post-publish step of compaction (and of any
    /// full publish, which discards buffered mutations along with the base
    /// they applied to).
    pub fn reset(&self, epoch: u64, base_n: u32) -> u64 {
        let mut guard = self.lock();
        let seq = guard.seq;
        *guard = Arc::new(DeltaOverlay::empty(epoch, seq, base_n));
        seq
    }

    /// Retarget the overlay to `epoch` without touching its contents — for
    /// a republish, which stamps a new epoch on the *same* graph, so every
    /// buffered mutation stays valid.
    pub fn retarget(&self, epoch: u64) {
        let mut guard = self.lock();
        let mut next = (**guard).clone();
        next.epoch = epoch;
        *guard = Arc::new(next);
    }
}

/// Connected-component labels maintained incrementally across edge
/// inserts.
///
/// Seeded from one full ccomp run on the base graph (`parent[v] =
/// base_label[v]`, which self-parents every component's minimum id), each
/// [`IncrementalCComp::advance`] unions only the overlay's *new* insert-log
/// entries. Because unions always attach the larger root below the
/// smaller, `find(v)` stays "minimum dense id in v's component" — the
/// exact labeling the parallel kernel produces — so
/// [`IncrementalCComp::labels`] is bit-identical to a full recompute on
/// the materialized graph, at O(inserts · α) instead of O(n + m).
///
/// Inserts only: deletes can split components, which union-find cannot
/// express. The engine consults [`DeltaOverlay::dirty`] and falls back to
/// the full recompute the moment any delete lands.
pub struct IncrementalCComp {
    parent: Vec<u32>,
    applied: usize,
}

impl IncrementalCComp {
    /// Seed from the base labeling (`labels[v]` = min id in v's
    /// component).
    pub fn new(base_labels: &[u32]) -> Self {
        IncrementalCComp {
            parent: base_labels.to_vec(),
            applied: 0,
        }
    }

    /// Insert-log entries already folded in.
    pub fn applied(&self) -> usize {
        self.applied
    }

    fn ensure(&mut self, id: u32) {
        while self.parent.len() <= id as usize {
            self.parent.push(self.parent.len() as u32);
        }
    }

    fn find(&mut self, v: u32) -> u32 {
        let mut v = v as usize;
        while self.parent[v] as usize != v {
            let grand = self.parent[self.parent[v] as usize];
            self.parent[v] = grand;
            v = grand as usize;
        }
        v as u32
    }

    /// Union every insert-log entry past what was already applied.
    /// `log` must be a cumulative log that only grows (the overlay's
    /// [`DeltaOverlay::insert_log`]).
    pub fn advance(&mut self, log: &[(u32, u32, f32)]) {
        for &(u, v, _) in &log[self.applied.min(log.len())..] {
            self.ensure(u.max(v));
            let (ru, rv) = (self.find(u), self.find(v));
            if ru != rv {
                // Larger root under smaller: roots stay component minima.
                let (lo, hi) = (ru.min(rv), ru.max(rv));
                self.parent[hi as usize] = lo;
            }
        }
        self.applied = log.len();
    }

    /// The full labeling over `n_total` vertices (ids beyond the seeded
    /// range label themselves, as isolated vertices do).
    pub fn labels(&mut self, n_total: usize) -> Vec<u32> {
        if n_total > 0 {
            self.ensure(n_total as u32 - 1);
        }
        (0..n_total as u32).map(|v| self.find(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::rebuild_from_scratch;
    use graphbig_datagen::rng::Rng;
    use graphbig_datagen::Dataset;
    use graphbig_runtime::{CancelToken, ThreadPool};
    use graphbig_workloads::parallel;

    fn base(n: usize) -> ShardedGraph {
        let g = Dataset::Ldbc.generate_with_vertices(n);
        ShardedGraph::build(Csr::from_graph(&g), 4)
    }

    /// Rebuild "from scratch": replay the same mutation stream through a
    /// *fresh* buffer and build every view anew from its live edges — the
    /// reference the overlay view and the row patch must match.
    fn rebuilt(b: &ShardedGraph, muts: &[Mutation]) -> ShardedGraph {
        rebuild_from_scratch(&ov_after(b, muts), b, 4)
    }

    fn ov_after(b: &ShardedGraph, muts: &[Mutation]) -> Arc<DeltaOverlay> {
        let buf = MutationBuffer::new(1, b.num_vertices() as u32);
        buf.apply(b, muts);
        buf.current()
    }

    /// Equality of every part of a sharded graph a kernel or router reads.
    /// [`structural_digest`] hashes the out view only; this also catches a
    /// wrong in-view, symmetric view or shard list.
    fn assert_same_graph(got: &ShardedGraph, want: &ShardedGraph, ctx: &str) {
        assert_eq!(got.num_vertices(), want.num_vertices(), "{ctx}: n");
        assert_eq!(got.service().out(), want.service().out(), "{ctx}: out");
        let (gi, wi) = (got.service().bi().inc(), want.service().bi().inc());
        assert_eq!(gi, wi, "{ctx}: in-view");
        assert_eq!(got.service().sym(), want.service().sym(), "{ctx}: sym");
        assert_eq!(got.shards(), want.shards(), "{ctx}: shards");
    }

    fn seeded_mutations(b: &ShardedGraph, seed: u64, count: usize) -> Vec<Mutation> {
        let n = b.num_vertices() as u32;
        let mut rng = Rng::seed_from_u64(seed);
        (0..count)
            .map(|_| match rng.u64_below(10) {
                0 => Mutation::AddVertex,
                1 => Mutation::RemoveVertex {
                    v: rng.u64_below(n as u64 + 4) as u32,
                },
                2 | 3 => Mutation::RemoveEdge {
                    u: rng.u64_below(n as u64) as u32,
                    v: rng.u64_below(n as u64) as u32,
                },
                4 => Mutation::SetWeight {
                    u: rng.u64_below(n as u64) as u32,
                    v: rng.u64_below(n as u64) as u32,
                    w: rng.u64_below(100) as f32,
                },
                _ => Mutation::AddEdge {
                    u: rng.u64_below(n as u64 + 4) as u32,
                    v: rng.u64_below(n as u64 + 4) as u32,
                    w: rng.u64_below(100) as f32 + 0.5,
                },
            })
            .collect()
    }

    #[test]
    fn empty_overlay_is_transparent() {
        let b = base(120);
        let buf = MutationBuffer::new(1, b.num_vertices() as u32);
        let ov = buf.current();
        assert!(ov.is_empty());
        assert_eq!(ov.seq(), 0);
        assert_eq!(ov.n_total() as usize, b.num_vertices());
        for v in [0u32, 7, 119, 120] {
            assert_eq!(ov.degree(&b, v), b.degree(v), "vertex {v}");
        }
        assert_eq!(ov.k_hop(&b, 3, 2), b.k_hop(3, 2));
        assert_eq!(ov.live_digest(&b), structural_digest(&b));
        assert_eq!(
            structural_digest(&ov.materialize(&b, 4)),
            structural_digest(&b)
        );
    }

    #[test]
    fn edge_semantics_are_set_based_and_tombstone_wins() {
        // 0 -> 1 -> 2, 0 -> 2.
        let edges = [(0u32, 1u32, 1.0f32), (1, 2, 1.0), (0, 2, 1.0)];
        let b = ShardedGraph::build(Csr::from_edges(3, &edges), 2);
        let buf = MutationBuffer::new(1, 3);

        // Insert a fresh edge, then delete a base edge.
        let r = buf.apply(
            &b,
            &[
                Mutation::AddEdge { u: 2, v: 0, w: 5.0 },
                Mutation::RemoveEdge { u: 0, v: 1 },
            ],
        );
        assert_eq!((r.seq, r.applied), (1, 2));
        let ov = buf.current();
        assert_eq!(ov.degree(&b, 0), Some((1, 1))); // out: 0->2; in: 2->0
        assert_eq!(ov.degree(&b, 1), Some((1, 0))); // 0->1 gone
        assert_eq!(ov.k_hop(&b, 0, 1), 2); // {0, 2}

        // Tombstone wins: re-adding the deleted pair is a no-op; adding an
        // existing base pair is a weight patch, not a duplicate.
        let r = buf.apply(
            &b,
            &[
                Mutation::AddEdge { u: 0, v: 1, w: 9.0 },
                Mutation::AddEdge { u: 0, v: 2, w: 7.0 },
                Mutation::AddEdge { u: 2, v: 2, w: 1.0 }, // self loop: no-op
            ],
        );
        assert_eq!(r.applied, 1, "only the weight patch lands");
        let ov = buf.current();
        assert_eq!(ov.degree(&b, 1), Some((1, 0)));
        assert_eq!(ov.degree(&b, 0), Some((1, 1)));

        // The overlay view equals a from-scratch rebuild at every step.
        let muts = [
            Mutation::AddEdge { u: 2, v: 0, w: 5.0 },
            Mutation::RemoveEdge { u: 0, v: 1 },
            Mutation::AddEdge { u: 0, v: 1, w: 9.0 },
            Mutation::AddEdge { u: 0, v: 2, w: 7.0 },
            Mutation::AddEdge { u: 2, v: 2, w: 1.0 },
        ];
        assert_eq!(ov.live_digest(&b), structural_digest(&rebuilt(&b, &muts)));
    }

    #[test]
    fn vertex_removal_kills_incident_edges_and_retires_the_id() {
        let edges = [(0u32, 1u32, 1.0f32), (1, 2, 2.0), (2, 0, 3.0)];
        let b = ShardedGraph::build(Csr::from_edges(3, &edges), 2);
        let buf = MutationBuffer::new(1, 3);
        buf.apply(
            &b,
            &[
                Mutation::AddVertex, // id 3
                Mutation::AddEdge { u: 3, v: 1, w: 1.0 },
                Mutation::RemoveVertex { v: 1 },
            ],
        );
        let ov = buf.current();
        assert_eq!(ov.n_total(), 4, "removed ids are retired, not recycled");
        assert_eq!(ov.degree(&b, 1), Some((0, 0)));
        assert_eq!(ov.degree(&b, 0), Some((0, 1))); // 0->1 dead, 2->0 lives
        assert_eq!(ov.degree(&b, 3), Some((0, 0))); // its overlay edge died too
        assert_eq!(ov.k_hop(&b, 1, 5), 1, "removed vertex sees only itself");
        // Mutating the dead vertex again is a no-op.
        let r = buf.apply(
            &b,
            &[
                Mutation::RemoveVertex { v: 1 },
                Mutation::AddEdge { u: 0, v: 1, w: 4.0 },
            ],
        );
        assert_eq!(r.applied, 0);
        let muts = [
            Mutation::AddVertex,
            Mutation::AddEdge { u: 3, v: 1, w: 1.0 },
            Mutation::RemoveVertex { v: 1 },
        ];
        assert_eq!(
            buf.current().live_digest(&b),
            structural_digest(&rebuilt(&b, &muts))
        );
    }

    /// Apply `muts` to a fresh buffer over `b` in `chunk`-sized batches and
    /// check, after every batch, that the overlay reads, the row patch and
    /// the point queries all equal the from-scratch rebuild of a one-batch
    /// replay of the same prefix — so chunked application is checked
    /// against applying the writes at once, as well as the patch against
    /// the from-scratch build. Returns the final overlay.
    fn check_stream(
        name: &str,
        b: &ShardedGraph,
        muts: &[Mutation],
        chunk: usize,
        shards: usize,
    ) -> Arc<DeltaOverlay> {
        let buf = MutationBuffer::new(1, b.num_vertices() as u32);
        let mut prefix = 0;
        loop {
            let batch = &muts[prefix..(prefix + chunk).min(muts.len())];
            buf.apply(b, batch);
            prefix += batch.len();
            let ov = buf.current();
            let reference = rebuild_from_scratch(&ov_after(b, &muts[..prefix]), b, shards);
            let ctx = format!("{name}, prefix {prefix}");
            assert_eq!(
                ov.live_digest(b),
                structural_digest(&reference),
                "{ctx}: overlay view diverged from rebuild"
            );
            assert_same_graph(&ov.materialize(b, shards), &reference, &ctx);
            // Point queries agree with the reference graph everywhere.
            for v in (0..ov.n_total()).step_by(17) {
                assert_eq!(ov.degree(b, v), reference.degree(v), "{ctx}: degree({v})");
                assert_eq!(
                    ov.k_hop(b, v, 2),
                    reference.k_hop(v, 2),
                    "{ctx}: k_hop({v})"
                );
            }
            if prefix == muts.len() {
                return ov;
            }
        }
    }

    #[test]
    fn seeded_stream_matches_rebuild_oracle_at_every_prefix() {
        let b = base(150);
        let muts = seeded_mutations(&b, 0xD5EA, 400);
        check_stream("seeded", &b, &muts, 40, 4);

        // Parallel base edges (distinct weights): tombstone one pair,
        // re-weight another, upsert a third, and rebuild in-row 0 around
        // a fourth that must keep its base order.
        let parallel = ShardedGraph::build(
            Csr::from_edges(
                4,
                &[
                    (0, 1, 1.0),
                    (0, 2, 2.0),
                    (0, 1, 3.0),
                    (0, 2, 4.0),
                    (3, 0, 5.0),
                    (3, 0, 6.0),
                    (2, 3, 7.0),
                    (2, 3, 7.5),
                ],
            ),
            2,
        );
        let muts = [
            Mutation::RemoveEdge { u: 0, v: 1 },
            Mutation::SetWeight { u: 0, v: 2, w: 9.0 },
            Mutation::AddEdge { u: 2, v: 3, w: 8.0 },
            Mutation::AddEdge { u: 1, v: 0, w: 1.5 },
        ];
        check_stream("parallel edges", &parallel, &muts, 1, 2);

        // Base self-loops: re-weight one, tombstone another, and touch
        // their vertices' rows with ordinary edges.
        let loops = ShardedGraph::build(
            Csr::from_edges(
                4,
                &[
                    (1, 1, 1.0),
                    (1, 2, 2.0),
                    (2, 2, 3.0),
                    (3, 1, 4.0),
                    (2, 0, 5.0),
                ],
            ),
            3,
        );
        let muts = [
            Mutation::SetWeight { u: 1, v: 1, w: 7.0 },
            Mutation::RemoveEdge { u: 2, v: 2 },
            Mutation::AddEdge { u: 1, v: 3, w: 1.0 },
            Mutation::RemoveEdge { u: 3, v: 1 },
        ];
        check_stream("base self-loops", &loops, &muts, 1, 3);

        // New vertices, then edges to, from and between them.
        let n = b.num_vertices() as u32;
        let muts = [
            Mutation::AddVertex,
            Mutation::AddVertex,
            Mutation::AddEdge { u: 0, v: n, w: 1.0 },
            Mutation::AddEdge { u: n, v: 1, w: 2.0 },
            Mutation::AddEdge {
                u: n,
                v: n + 1,
                w: 3.0,
            },
            Mutation::AddEdge {
                u: n + 1,
                v: 0,
                w: 4.0,
            },
            Mutation::AddEdge {
                u: 5,
                v: n + 1,
                w: 5.0,
            },
        ];
        check_stream("added vertices", &b, &muts, 2, 4);

        // Removing the vertex with the highest in-degree rewrites the
        // out-rows of all its sources.
        let inc = b.service().bi().inc();
        let hub = (0..n).max_by_key(|&v| inc.degree(v)).unwrap();
        let muts = [
            Mutation::AddEdge {
                u: hub,
                v: 7,
                w: 1.0,
            },
            Mutation::RemoveVertex { v: hub },
            Mutation::AddEdge {
                u: 7,
                v: hub,
                w: 1.0,
            },
        ];
        check_stream("hub removal", &b, &muts, 1, 4);

        // An empty overlay folds to a plain copy.
        let ov = check_stream("empty overlay", &b, &[], 1, 4);
        assert!(ov.is_empty());

        // Second generation: compact the seeded stream, then patch over a
        // base that is itself a patched fold, with a different shard count.
        let folded = ov_after(&b, &seeded_mutations(&b, 0xD5EA, 400)).materialize(&b, 4);
        let muts = seeded_mutations(&folded, 0x2E2E, 200);
        check_stream("second generation", &folded, &muts, 50, 3);
    }

    #[test]
    fn sequence_numbers_are_monotone_and_survive_reset() {
        let b = base(40);
        let buf = MutationBuffer::new(1, 40);
        assert_eq!(buf.apply(&b, &[Mutation::AddVertex]).seq, 1);
        assert_eq!(buf.apply(&b, &[]).seq, 2, "empty batches still bump seq");
        let seq = buf.reset(2, 41);
        assert_eq!(seq, 2, "reset preserves seq");
        let ov = buf.current();
        assert!(ov.is_empty());
        assert_eq!((ov.epoch(), ov.seq(), ov.base_n()), (2, 2, 41));
        assert_eq!(buf.apply(&b, &[Mutation::AddVertex]).seq, 3);
        buf.retarget(9);
        let ov = buf.current();
        assert_eq!((ov.epoch(), ov.seq()), (9, 3));
        assert!(!ov.is_empty(), "retarget keeps buffered mutations");
    }

    #[test]
    fn concurrent_appliers_never_lose_a_batch() {
        let b = std::sync::Arc::new(base(60));
        let buf = std::sync::Arc::new(MutationBuffer::new(1, 60));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let b = std::sync::Arc::clone(&b);
                let buf = std::sync::Arc::clone(&buf);
                scope.spawn(move || {
                    for i in 0..50u32 {
                        // Distinct (u, v) per thread: all batches commute.
                        let u = t % 60;
                        let v = 10 + (t * 50 + i) % 50;
                        buf.apply(
                            &b,
                            &[Mutation::AddEdge {
                                u,
                                v: v + 1,
                                w: 1.0,
                            }],
                        );
                    }
                });
            }
        });
        let ov = buf.current();
        assert_eq!(ov.seq(), 200, "every batch got a distinct seq");
        // State equals the same edges applied sequentially.
        let mut muts = Vec::new();
        for t in 0..4u32 {
            for i in 0..50u32 {
                muts.push(Mutation::AddEdge {
                    u: t % 60,
                    v: 11 + (t * 50 + i) % 50,
                    w: 1.0,
                });
            }
        }
        assert_eq!(ov.live_digest(&b), structural_digest(&rebuilt(&b, &muts)));
    }

    #[test]
    fn incremental_ccomp_matches_full_recompute_on_inserts() {
        let b = base(200);
        let pool = ThreadPool::new(2);
        let never = CancelToken::never();
        let base_labels = parallel::ccomp_cancellable(&pool, b.service().sym(), &never).unwrap();
        let mut inc = IncrementalCComp::new(&base_labels);

        let buf = MutationBuffer::new(1, 200);
        let mut rng = Rng::seed_from_u64(77);
        for round in 0..10 {
            let batch: Vec<Mutation> = (0..8)
                .map(|_| Mutation::AddEdge {
                    u: rng.u64_below(200) as u32,
                    v: rng.u64_below(200) as u32,
                    w: 1.0,
                })
                .collect();
            buf.apply(&b, &batch);
            let ov = buf.current();
            assert!(!ov.dirty(), "insert-only stream stays clean");
            inc.advance(ov.insert_log());
            let got = inc.labels(ov.n_total() as usize);
            let full =
                parallel::ccomp_cancellable(&pool, ov.materialize(&b, 4).service().sym(), &never)
                    .unwrap();
            assert_eq!(got, full, "round {round}: incremental labels diverged");
        }
        // A delete flips the dirty bit — the fallback signal.
        buf.apply(
            &b,
            &[Mutation::RemoveEdge {
                u: 0,
                v: b.service().out().neighbors(0)[0],
            }],
        );
        assert!(buf.current().dirty());
    }

    #[test]
    fn overlay_size_accounting_is_plausible() {
        let b = base(80);
        let buf = MutationBuffer::new(1, 80);
        assert_eq!(buf.current().byte_size(), 0);
        assert_eq!(buf.current().overlay_edges(), 0);
        let batch: Vec<Mutation> = (0..30)
            .map(|i| Mutation::AddEdge {
                u: i as u32,
                v: (i as u32 + 40) % 80,
                w: 1.0,
            })
            .collect();
        buf.apply(&b, &batch);
        let ov = buf.current();
        assert!(ov.overlay_edges() <= 30);
        assert!(ov.overlay_edges() > 0);
        let per_edge = ov.byte_size() / ov.overlay_edges();
        assert!(
            (8..=256).contains(&per_edge),
            "implausible overlay bytes/edge: {per_edge}"
        );
    }

    #[test]
    fn structural_digest_is_edge_order_independent() {
        let a = ShardedGraph::build(
            Csr::from_edges(3, &[(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)]),
            2,
        );
        let c = ShardedGraph::build(
            Csr::from_edges(3, &[(1, 2, 3.0), (0, 2, 2.0), (0, 1, 1.0)]),
            3,
        );
        assert_eq!(structural_digest(&a), structural_digest(&c));
        let d = ShardedGraph::build(
            Csr::from_edges(3, &[(0, 1, 1.5), (0, 2, 2.0), (1, 2, 3.0)]),
            2,
        );
        assert_ne!(
            structural_digest(&a),
            structural_digest(&d),
            "weights count"
        );
    }
}
