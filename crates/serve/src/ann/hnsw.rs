//! A deterministic HNSW graph over the (L2-normalized) POI embeddings.
//!
//! Construction is single-threaded and fully seeded: level assignment
//! draws from the workspace [`StdRng`] (xoshiro256++) with the checkpoint
//! config's seed, and every similarity comparison breaks ties on the lower
//! node id under [`f32::total_cmp`] — a total order, so the same
//! embeddings and seed always build the same graph, byte for byte. The
//! frozen graph is per-level CSR (`offsets`/`targets` over *all* node ids;
//! nodes below a level have empty ranges), which is what the checkpoint
//! section serialises.
//!
//! Search is generic over the similarity function: the serving layer
//! passes a closure that scores candidates against the *relation-linear*
//! query vector through the quantized tier, plus a keep-filter for the
//! spatial radius. The traversal itself is unfiltered (the beam may hop
//! through out-of-radius nodes to reach in-radius ones); only result
//! collection filters, which is the classic filtered-HNSW composition.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Hard cap on assigned levels (the geometric draw virtually never
/// reaches it; it bounds the per-node link storage).
pub(crate) const MAX_LEVEL: usize = 16;

/// A candidate ordered by `(similarity desc, id asc)` — the deterministic
/// total order every heap and selection in this module uses.
#[derive(Clone, Copy, Debug)]
struct Cand {
    sim: f32,
    id: u32,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    /// Greater = higher similarity, ties to the *lower* id (so a max-heap
    /// pops the lower id first among equals).
    fn cmp(&self, other: &Self) -> Ordering {
        self.sim
            .total_cmp(&other.sim)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// One level's adjacency in CSR form over all node ids.
#[derive(Clone, Debug, PartialEq)]
pub struct Layer {
    /// `offsets[i]..offsets[i + 1]` indexes `targets` (length `n + 1`).
    pub offsets: Vec<u32>,
    /// Concatenated neighbor lists.
    pub targets: Vec<u32>,
}

impl Layer {
    /// Neighbors of `node` at this level.
    #[inline]
    pub fn neighbors(&self, node: u32) -> &[u32] {
        &self.targets
            [self.offsets[node as usize] as usize..self.offsets[node as usize + 1] as usize]
    }
}

/// Counters one search accumulates (fed into `prim-obs`).
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Nodes whose similarity was evaluated (all levels).
    pub visited: u64,
    /// Visited ground-level nodes rejected by the keep-filter.
    pub pruned: u64,
}

/// The frozen graph: seeded levels + per-level CSR adjacency.
#[derive(Clone, Debug, PartialEq)]
pub struct Hnsw {
    /// Max links per node on upper levels (ground level allows `2m`).
    pub m: u32,
    /// Entry point (a node on the top level).
    pub entry: u32,
    /// Assigned level per node.
    pub levels: Vec<u8>,
    /// Adjacency per level, ground level first (`layers.len()` = top + 1).
    pub layers: Vec<Layer>,
}

impl Hnsw {
    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True if the graph holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Builds the graph over the rows of `vectors` (already normalized;
    /// construction similarity is the plain dot product). `m` is the
    /// upper-level link cap, `ef_construction` the build beam width, and
    /// `seed` drives the geometric level assignment.
    pub fn build(
        vectors: &[f32],
        n: usize,
        dim: usize,
        m: usize,
        ef_construction: usize,
        seed: u64,
    ) -> Hnsw {
        assert_eq!(vectors.len(), n * dim, "vector table shape mismatch");
        let m = m.max(2);
        let m0 = 2 * m;
        let ef = ef_construction.max(m + 1);
        let mult = 1.0 / (m as f64).ln();

        // Seeded geometric level assignment, drawn up front in id order so
        // the stream position per node is independent of graph state.
        let mut rng = StdRng::seed_from_u64(seed);
        let levels: Vec<u8> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                // 1 - u is in (0, 1], so the log is finite.
                ((-(1.0 - u).ln() * mult) as usize).min(MAX_LEVEL) as u8
            })
            .collect();

        let row = |i: u32| &vectors[i as usize * dim..(i as usize + 1) * dim];
        let sim = |a: u32, b: u32| -> f32 {
            let (ra, rb) = (row(a), row(b));
            let mut acc = 0.0f32;
            for k in 0..dim {
                acc += ra[k] * rb[k];
            }
            acc
        };

        // Mutable per-node, per-level link lists while inserting.
        let mut links: Vec<Vec<Vec<u32>>> = levels
            .iter()
            .map(|&l| vec![Vec::new(); l as usize + 1])
            .collect();
        let mut entry = 0u32;
        let mut top = levels.first().map_or(0, |&l| l as usize);
        let mut search = LayerSearch::new(n);

        for i in 1..n as u32 {
            let lvl = levels[i as usize] as usize;
            let mut cur = entry;
            // Greedy descent through levels above the new node's level.
            for l in ((lvl + 1)..=top).rev() {
                cur = greedy(&links, &sim, l, cur, i);
            }
            // Beam insert on each level the node participates in.
            for l in (0..=lvl.min(top)).rev() {
                let found = search.run(&links, &sim, l, cur, i, ef);
                // New-node selection keeps `m` on every level (back-links
                // alone may grow a ground-level list toward `m0`).
                let selected: Vec<u32> = found.iter().take(m).map(|c| c.id).collect();
                let cap_back = if l == 0 { m0 } else { m };
                for &e in &selected {
                    links[e as usize][l].push(i);
                    if links[e as usize][l].len() > cap_back {
                        prune(&mut links, &sim, e, l, cap_back);
                    }
                }
                links[i as usize][l] = selected;
                if let Some(best) = found.first() {
                    cur = best.id;
                }
            }
            if lvl > top {
                entry = i;
                top = lvl;
            }
        }

        // Freeze into CSR per level.
        let layers: Vec<Layer> = (0..=top.min(MAX_LEVEL))
            .map(|l| {
                let mut offsets = Vec::with_capacity(n + 1);
                let mut targets = Vec::new();
                offsets.push(0u32);
                for node in links.iter() {
                    if let Some(list) = node.get(l) {
                        targets.extend_from_slice(list);
                    }
                    offsets.push(targets.len() as u32);
                }
                Layer { offsets, targets }
            })
            .collect();

        Hnsw {
            m: m as u32,
            entry,
            levels,
            layers,
        }
    }

    /// Beam search under an arbitrary similarity.
    ///
    /// Greedy-descends the upper levels, then runs a width-`ef` beam on
    /// the ground level. `keep` filters which visited nodes may enter the
    /// result set (the beam still traverses rejected nodes); `budget`
    /// caps ground-level similarity evaluations (0 = unlimited). Returns
    /// up to `ef` kept candidates sorted `(sim desc, id asc)`.
    pub fn search(
        &self,
        mut sim: impl FnMut(u32) -> f32,
        mut keep: impl FnMut(u32) -> bool,
        ef: usize,
        budget: usize,
    ) -> (Vec<(f32, u32)>, SearchStats) {
        let mut stats = SearchStats::default();
        if self.is_empty() || ef == 0 {
            return (Vec::new(), stats);
        }
        let n = self.len();
        let mut cur = self.entry;
        let mut cur_sim = sim(cur);
        stats.visited += 1;
        // Greedy descent: move to the best neighbor while one improves on
        // the current node under the (sim desc, id asc) order.
        for l in (1..self.layers.len()).rev() {
            loop {
                let mut best = Cand {
                    sim: cur_sim,
                    id: cur,
                };
                for &t in self.layers[l].neighbors(cur) {
                    let c = Cand { sim: sim(t), id: t };
                    stats.visited += 1;
                    if c > best {
                        best = c;
                    }
                }
                if best.id == cur {
                    break;
                }
                cur = best.id;
                cur_sim = best.sim;
            }
        }

        // Ground-level beam.
        let mut visited = vec![0u64; n.div_ceil(64)];
        let mark = |set: &mut Vec<u64>, id: u32| {
            let (w, b) = (id as usize / 64, id as usize % 64);
            let seen = set[w] & (1 << b) != 0;
            set[w] |= 1 << b;
            seen
        };
        let mut candidates: BinaryHeap<Cand> = BinaryHeap::new();
        let mut kept: BinaryHeap<std::cmp::Reverse<Cand>> = BinaryHeap::new();
        let start = Cand {
            sim: cur_sim,
            id: cur,
        };
        mark(&mut visited, cur);
        candidates.push(start);
        if keep(cur) {
            kept.push(std::cmp::Reverse(start));
        } else {
            stats.pruned += 1;
        }
        let mut evals = 1u64;
        'beam: while let Some(c) = candidates.pop() {
            if kept.len() >= ef {
                // The best unexpanded candidate can no longer improve the
                // kept set: every later pop is worse still.
                let worst = kept.peek().expect("kept non-empty").0;
                if c < worst {
                    break;
                }
            }
            for &t in self.layers[0].neighbors(c.id) {
                if mark(&mut visited, t) {
                    continue;
                }
                if budget > 0 && evals >= budget as u64 {
                    break 'beam;
                }
                let cand = Cand { sim: sim(t), id: t };
                evals += 1;
                stats.visited += 1;
                let admit = kept.len() < ef || cand > kept.peek().expect("kept non-empty").0;
                if admit {
                    candidates.push(cand);
                    if keep(t) {
                        kept.push(std::cmp::Reverse(cand));
                        if kept.len() > ef {
                            kept.pop();
                        }
                    } else {
                        stats.pruned += 1;
                    }
                }
            }
        }
        let mut out: Vec<Cand> = kept.into_iter().map(|r| r.0).collect();
        out.sort_by(|a, b| b.cmp(a));
        (out.into_iter().map(|c| (c.sim, c.id)).collect(), stats)
    }
}

/// One greedy step sequence at level `l` starting from `cur`, maximising
/// similarity to node `q` (build-time helper).
fn greedy(
    links: &[Vec<Vec<u32>>],
    sim: &impl Fn(u32, u32) -> f32,
    l: usize,
    start: u32,
    q: u32,
) -> u32 {
    let mut cur = Cand {
        sim: sim(start, q),
        id: start,
    };
    loop {
        let mut best = cur;
        if let Some(list) = links[cur.id as usize].get(l) {
            for &t in list {
                let c = Cand {
                    sim: sim(t, q),
                    id: t,
                };
                if c > best {
                    best = c;
                }
            }
        }
        if best.id == cur.id {
            return cur.id;
        }
        cur = best;
    }
}

/// Keeps node `e`'s level-`l` list to its `cap` best links.
fn prune(
    links: &mut [Vec<Vec<u32>>],
    sim: &impl Fn(u32, u32) -> f32,
    e: u32,
    l: usize,
    cap: usize,
) {
    let mut cands: Vec<Cand> = links[e as usize][l]
        .iter()
        .map(|&t| Cand {
            sim: sim(e, t),
            id: t,
        })
        .collect();
    cands.sort_by(|a, b| b.cmp(a));
    cands.truncate(cap);
    links[e as usize][l] = cands.into_iter().map(|c| c.id).collect();
}

/// Reusable build-time beam state (epoch-stamped visited set, so inserts
/// never reallocate it).
struct LayerSearch {
    stamp: Vec<u32>,
    epoch: u32,
}

impl LayerSearch {
    fn new(n: usize) -> Self {
        LayerSearch {
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    /// Classic `SEARCH-LAYER(q, ep, ef, l)` maximising `sim(·, q)`.
    /// Returns the `ef` best, sorted `(sim desc, id asc)`.
    fn run(
        &mut self,
        links: &[Vec<Vec<u32>>],
        sim: &impl Fn(u32, u32) -> f32,
        l: usize,
        entry: u32,
        q: u32,
        ef: usize,
    ) -> Vec<Cand> {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut candidates: BinaryHeap<Cand> = BinaryHeap::new();
        let mut results: BinaryHeap<std::cmp::Reverse<Cand>> = BinaryHeap::new();
        let start = Cand {
            sim: sim(entry, q),
            id: entry,
        };
        self.stamp[entry as usize] = epoch;
        candidates.push(start);
        results.push(std::cmp::Reverse(start));
        while let Some(c) = candidates.pop() {
            if results.len() >= ef {
                let worst = results.peek().expect("results non-empty").0;
                if c < worst {
                    break;
                }
            }
            if let Some(list) = links[c.id as usize].get(l) {
                for &t in list {
                    if self.stamp[t as usize] == epoch {
                        continue;
                    }
                    self.stamp[t as usize] = epoch;
                    let cand = Cand {
                        sim: sim(t, q),
                        id: t,
                    };
                    if results.len() < ef || cand > results.peek().expect("non-empty").0 {
                        candidates.push(cand);
                        results.push(std::cmp::Reverse(cand));
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
        }
        let mut out: Vec<Cand> = results.into_iter().map(|r| r.0).collect();
        out.sort_by(|a, b| b.cmp(a));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v: Vec<f32> = (0..n * dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        // Normalize rows so dot = cosine.
        for r in 0..n {
            let row = &mut v[r * dim..(r + 1) * dim];
            let norm: f32 = row.iter().map(|&x| x * x).sum::<f32>().sqrt();
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
        v
    }

    #[test]
    fn construction_is_deterministic() {
        let v = random_vectors(300, 8, 7);
        let a = Hnsw::build(&v, 300, 8, 6, 32, 42);
        let b = Hnsw::build(&v, 300, 8, 6, 32, 42);
        assert_eq!(a, b);
        let c = Hnsw::build(&v, 300, 8, 6, 32, 43);
        assert_ne!(
            a.levels, c.levels,
            "different seed must draw different levels"
        );
    }

    #[test]
    fn level_caps_and_csr_are_consistent() {
        let v = random_vectors(500, 8, 9);
        let h = Hnsw::build(&v, 500, 8, 5, 24, 1);
        assert_eq!(h.levels.len(), 500);
        for (l, layer) in h.layers.iter().enumerate() {
            assert_eq!(layer.offsets.len(), 501);
            let cap = if l == 0 { 2 * h.m } else { h.m } as usize;
            for node in 0..500u32 {
                let nbrs = layer.neighbors(node);
                assert!(nbrs.len() <= cap, "node {node} level {l}: {}", nbrs.len());
                // Nodes below this level have no links.
                if (h.levels[node as usize] as usize) < l {
                    assert!(nbrs.is_empty());
                }
                for &t in nbrs {
                    assert!(t < 500 && t != node);
                }
            }
        }
        assert!(h.levels[h.entry as usize] as usize >= h.layers.len() - 1);
    }

    #[test]
    fn search_finds_near_neighbors() {
        let dim = 8;
        let n = 400;
        let v = random_vectors(n, dim, 11);
        let h = Hnsw::build(&v, n, dim, 8, 48, 3);
        let mut hits = 0;
        let queries = 40;
        for q in 0..queries {
            let qrow: Vec<f32> = v[q * dim..(q + 1) * dim].to_vec();
            let dot = |id: u32| -> f32 {
                let r = &v[id as usize * dim..(id as usize + 1) * dim];
                r.iter().zip(&qrow).map(|(a, b)| a * b).sum()
            };
            // Exact best (excluding the query node itself).
            let best = (0..n as u32)
                .filter(|&i| i != q as u32)
                .max_by(|&a, &b| dot(a).total_cmp(&dot(b)).then(b.cmp(&a)))
                .unwrap();
            let (found, stats) = h.search(dot, |id| id != q as u32, 32, 0);
            assert!(stats.visited > 0);
            if found.iter().any(|&(_, id)| id == best) {
                hits += 1;
            }
        }
        assert!(
            hits >= queries * 9 / 10,
            "recall@32 too low: {hits}/{queries}"
        );
    }

    #[test]
    fn search_respects_filter_and_budget() {
        let v = random_vectors(200, 8, 5);
        let h = Hnsw::build(&v, 200, 8, 6, 32, 2);
        let (found, stats) = h.search(|id| -(id as f32), |id| id % 2 == 0, 16, 0);
        assert!(found.iter().all(|&(_, id)| id % 2 == 0));
        assert!(stats.pruned > 0);
        // The budget caps ground-level expansion (upper-level descent is
        // outside it), so compare against the same query run free.
        let (_, free) = h.search(|id| -(id as f32), |_| true, 16, 0);
        let (_, tight) = h.search(|id| -(id as f32), |_| true, 16, 8);
        assert!(
            tight.visited < free.visited,
            "budget must cap evaluations: {} vs {}",
            tight.visited,
            free.visited
        );
    }

    #[test]
    fn singleton_graph_searches() {
        let h = Hnsw::build(&[1.0, 0.0], 1, 2, 4, 16, 0);
        let (found, _) = h.search(|_| 1.0, |_| true, 4, 0);
        assert_eq!(found, vec![(1.0, 0)]);
        let (none, _) = h.search(|_| 1.0, |_| false, 4, 0);
        assert!(none.is_empty());
    }
}
