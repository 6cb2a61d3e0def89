//! Seeded request streams for the three workloads.
//!
//! The generators live here, not in `graphbig_engine::traffic`, so that an
//! edit to the engine's own mix generator cannot change what this
//! benchmark sends. Every stream is a pure function of `(seed, graph)`.

use graphbig_engine::shard::ShardedGraph;
use graphbig_engine::{Mutation, Query};
use graphbig_workloads::Workload;

/// Hop bound of every generated k-hop lookup.
const KHOP_HOPS: u32 = 2;
/// Reads per shuffled block of the closed-loop stream, and how many of
/// each kind a block holds: 60/30/10 point/traversal/analytics exactly,
/// so that runs with different seeds send the same mix in the same order
/// (see `ORDER_SEED`) and differ only in sources.
const BLOCK_DEGREE: usize = 18;
const BLOCK_KHOP: usize = 18;
const BLOCK_BFS: usize = 18;
const BLOCK_EACH_ANALYTICS: usize = 2;
/// Writes `write_mix` inserts into each block, one at a random position
/// in each equal part of it: 1 of 61 requests, about 1.6%. Spread out, two
/// writes rarely land between the same two heavy reads, so nearly every
/// write costs one overlay fold. A fold also stalls the other client's next heavy read, so each
/// write slows a few BFS. At 3 writes per block a fold ran about half the
/// time; at 2, about 30% of BFS ran behind a fold, and when the host
/// slowed that share grew until the BFS median left BFS alone.
const BLOCK_WRITES: usize = 1;
/// Seed of the streams that order each block and place its writes. It is
/// fixed, not the workload seed: the order decides which requests the two
/// clients run side by side (a BFS beside an analytics kernel took about
/// 5 ms, beside another BFS about 7 ms), and with a seeded order the BFS
/// median moved by up to 20% from seed to seed while repeats of one seed
/// agreed. The workload seed draws the sources and the written edges.
const ORDER_SEED: u64 = 0;
/// Share of writes, in percent, that delete a base edge.
const DELETE_PERCENT: u64 = 25;
/// Requests per `flash_crowd` wave, and the point lookups among them (20%).
pub const WAVE: usize = 512;
const WAVE_POINTS: usize = 102;
/// Hot vertices the wave's point lookups draw from.
const HOT_SET: usize = 64;
/// Vertices the wave's BFS sources draw from. Bounded so that the
/// sequential oracle, which runs one solo BFS per distinct source, stays
/// within a run's time budget; at 4x the result cache's capacity most BFS
/// still miss the cache and go through the shared MS-BFS pass.
const CROWD: usize = 4096;

/// SplitMix64: a small, fixed PRNG owned by the benchmark.
struct Rng(u64);

impl Rng {
    /// Stream `stream` of `seed`; distinct streams are independent.
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ (stream + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One client operation.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Read(Query),
    Write(Mutation),
}

/// Shuffle `v` in place (Fisher-Yates).
fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// One block of reads from uniform sources, shuffled by `order`.
fn read_block(rng: &mut Rng, order: &mut Rng, n: u64) -> Vec<Query> {
    let mut block = Vec::new();
    let mut v = || rng.below(n) as u32;
    block.extend((0..BLOCK_DEGREE).map(|_| Query::Degree { vertex: v() }));
    block.extend((0..BLOCK_KHOP).map(|_| Query::KHop {
        source: v(),
        hops: KHOP_HOPS,
    }));
    for (workload, count) in [
        (Workload::Bfs, BLOCK_BFS),
        (Workload::CComp, BLOCK_EACH_ANALYTICS),
        (Workload::KCore, BLOCK_EACH_ANALYTICS),
        (Workload::SPath, BLOCK_EACH_ANALYTICS),
    ] {
        block.extend((0..count).map(|_| Query::Run {
            workload,
            source: v(),
        }));
    }
    shuffle(order, &mut block);
    block
}

/// An edge write: deletes target base edges only, inserts target pairs
/// absent from the base with a weight that is a pure function of the
/// pair. Inserted and deleted pairs are therefore disjoint and repeats are
/// idempotent, so the final graph does not depend on the order in which
/// concurrent clients apply the writes.
fn write_op(rng: &mut Rng, base: &ShardedGraph) -> Mutation {
    let n = base.num_vertices() as u64;
    let out = base.service().out();
    let delete = rng.below(100) < DELETE_PERCENT;
    loop {
        let u = rng.below(n) as u32;
        let row = out.neighbors(u);
        if delete {
            if let Some(&v) = row.get(rng.below(row.len().max(1) as u64) as usize) {
                return Mutation::RemoveEdge { u, v };
            }
        } else {
            let v = rng.below(n) as u32;
            if v != u && !row.contains(&v) {
                let h = ((u as u64) << 32 | v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let w = 1.0 + (h >> 40) as f32 / 65_536.0;
                return Mutation::AddEdge { u, v, w };
            }
        }
    }
}

/// The closed-loop op list. `write_mix` draws its writes and their places
/// from streams of their own, so its reads are exactly `read_mix`'s reads
/// for the same seed, in the same order.
pub fn closed_loop_ops(base: &ShardedGraph, seed: u64, writes: bool, count: usize) -> Vec<Op> {
    let n = base.num_vertices() as u64;
    let mut reads = Rng::new(seed, 0);
    let mut edges = Rng::new(seed, 1);
    let mut order = Rng::new(ORDER_SEED, 4);
    let mut slots = Rng::new(ORDER_SEED, 5);
    let mut ops = Vec::with_capacity(count + 64);
    while ops.len() < count {
        let mut block: Vec<Op> = read_block(&mut reads, &mut order, n)
            .into_iter()
            .map(Op::Read)
            .collect();
        if writes {
            let stride = block.len() / BLOCK_WRITES;
            for part in (0..BLOCK_WRITES).rev() {
                let at = part * stride + slots.below(stride as u64) as usize;
                block.insert(at, Op::Write(write_op(&mut edges, base)));
            }
        }
        ops.extend(block);
    }
    ops
}

/// `k` distinct vertices of `[0, n)`, uniformly (partial Fisher-Yates).
fn sample(rng: &mut Rng, n: usize, k: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + rng.below((n - i) as u64) as usize;
        ids.swap(i, j);
    }
    ids.truncate(k);
    ids
}

/// The `flash_crowd` wave generator: a seeded hot set for point lookups, a
/// seeded crowd for BFS sources, and one stream for the waves themselves.
pub struct Crowd {
    hot: Vec<u32>,
    sources: Vec<u32>,
    rng: Rng,
}

impl Crowd {
    pub fn new(base: &ShardedGraph, seed: u64) -> Crowd {
        let n = base.num_vertices();
        let mut pick = Rng::new(seed, 2);
        Crowd {
            hot: sample(&mut pick, n, HOT_SET),
            sources: sample(&mut pick, n, CROWD),
            rng: Rng::new(seed, 3),
        }
    }

    /// The next wave's requests in arrival order: the hot-set lookups,
    /// then the traversals.
    pub fn wave(&mut self) -> Vec<Query> {
        let rng = &mut self.rng;
        let mut wave = Vec::with_capacity(WAVE);
        for i in 0..WAVE_POINTS {
            let v = self.hot[rng.below(self.hot.len() as u64) as usize];
            wave.push(if i % 2 == 0 {
                Query::Degree { vertex: v }
            } else {
                Query::KHop {
                    source: v,
                    hops: KHOP_HOPS,
                }
            });
        }
        for _ in WAVE_POINTS..WAVE {
            let source = self.sources[rng.below(self.sources.len() as u64) as usize];
            wave.push(Query::Run {
                workload: Workload::Bfs,
                source,
            });
        }
        wave
    }
}
