//! Triple construction and negative sampling (paper Section 4.6).

use crate::hetero::{Edge, EdgeKeySet, FxHashSet, HeteroGraph, PairKeySet, PoiId, RelationId};
use rand::Rng;

/// A labelled training/evaluation triple `(p_i, r, p_j, y)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Triple {
    /// First POI.
    pub src: PoiId,
    /// Relation whose likelihood is scored.
    pub rel: RelationId,
    /// Second POI.
    pub dst: PoiId,
    /// 1.0 for positives, 0.0 for negatives.
    pub label: f32,
}

/// For each positive edge, emits the positive triple plus `omega` corrupted
/// negatives obtained by replacing one endpoint with a random POI (word2vec
/// style negative sampling, as the paper prescribes with ω = 5).
///
/// Corruptions that happen to be true edges of the same relation are
/// rejected and resampled (bounded retries).
pub fn negative_sampled_triples<R: Rng>(
    edges: &[Edge],
    omega: usize,
    n_pois: usize,
    known_edges: &EdgeKeySet,
    rng: &mut R,
) -> Vec<Triple> {
    let mut out = Vec::with_capacity(edges.len() * (1 + omega));
    for e in edges {
        out.push(Triple {
            src: e.src,
            rel: e.rel,
            dst: e.dst,
            label: 1.0,
        });
        for _ in 0..omega {
            let mut tries = 0;
            loop {
                let replace_src = rng.gen_bool(0.5);
                let candidate = PoiId(rng.gen_range(0..n_pois as u32));
                let (s, d) = if replace_src {
                    (candidate, e.dst)
                } else {
                    (e.src, candidate)
                };
                let key = if s.0 <= d.0 {
                    (s.0, d.0, e.rel.0)
                } else {
                    (d.0, s.0, e.rel.0)
                };
                tries += 1;
                if (s != d && !known_edges.contains(&key)) || tries > 16 {
                    if s != d {
                        out.push(Triple {
                            src: s,
                            rel: e.rel,
                            dst: d,
                            label: 0.0,
                        });
                    }
                    break;
                }
            }
        }
    }
    out
}

/// Samples `count` POI pairs with no relationship of any type — the
/// non-relation (φ) examples used both in training the φ representation and
/// in the test set (the paper samples 16 000 such pairs for testing).
///
/// Builds the graph's [`HeteroGraph::pair_key_set`] per call; a caller that
/// draws every epoch keeps the set and calls [`sample_pairs_outside`].
pub fn sample_non_relation_pairs<R: Rng>(
    graph: &HeteroGraph,
    count: usize,
    rng: &mut R,
) -> Vec<(PoiId, PoiId)> {
    sample_pairs_outside(&graph.pair_key_set(), graph.num_pois(), count, rng)
}

/// Samples up to `count` distinct canonical `(min, max)` pairs of distinct
/// POIs below `n_pois`, none of them in `connected`, by rejection (bounded
/// tries, so a dense graph yields fewer pairs).
pub fn sample_pairs_outside<R: Rng>(
    connected: &PairKeySet,
    n_pois: usize,
    count: usize,
    rng: &mut R,
) -> Vec<(PoiId, PoiId)> {
    let n = n_pois as u32;
    assert!(n >= 2, "need at least two POIs");
    let mut out = Vec::with_capacity(count);
    let mut used = FxHashSet::with_capacity_and_hasher(count, Default::default());
    let mut tries = 0usize;
    let max_tries = count.saturating_mul(64).max(1024);
    while out.len() < count && tries < max_tries {
        tries += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if connected.contains(&key) || !used.insert(key) {
            continue;
        }
        out.push((PoiId(key.0), PoiId(key.1)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetero::Poi;
    use crate::taxonomy::CategoryId;
    use prim_geo::Location;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph(n: usize) -> HeteroGraph {
        let pois: Vec<Poi> = (0..n)
            .map(|i| Poi {
                location: Location::new(116.0 + 0.001 * i as f64, 40.0),
                category: CategoryId(0),
            })
            .collect();
        let mut g = HeteroGraph::new(pois, 1);
        for i in 0..n / 2 {
            g.add_edge(PoiId(i as u32), PoiId((i + n / 2) as u32), RelationId(0));
        }
        g
    }

    #[test]
    fn negatives_have_expected_count_and_labels() {
        let g = graph(40);
        let known = g.edge_key_set();
        let mut rng = StdRng::seed_from_u64(1);
        let triples = negative_sampled_triples(g.edges(), 5, 40, &known, &mut rng);
        let pos = triples.iter().filter(|t| t.label == 1.0).count();
        let neg = triples.iter().filter(|t| t.label == 0.0).count();
        assert_eq!(pos, g.num_edges());
        assert!(neg >= g.num_edges() * 4, "too few negatives: {neg}");
        assert!(neg <= g.num_edges() * 5);
    }

    #[test]
    fn negatives_avoid_true_edges() {
        let g = graph(60);
        let known = g.edge_key_set();
        let mut rng = StdRng::seed_from_u64(2);
        let triples = negative_sampled_triples(g.edges(), 5, 60, &known, &mut rng);
        for t in triples.iter().filter(|t| t.label == 0.0) {
            let key = if t.src.0 <= t.dst.0 {
                (t.src.0, t.dst.0, t.rel.0)
            } else {
                (t.dst.0, t.src.0, t.rel.0)
            };
            // With 60 POIs and sparse edges, 16 retries virtually always
            // succeed; a collision here means the rejection logic broke.
            assert!(!known.contains(&key), "negative {t:?} is a true edge");
            assert_ne!(t.src, t.dst);
        }
    }

    #[test]
    fn non_relation_pairs_are_unconnected_and_unique() {
        let g = graph(50);
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = sample_non_relation_pairs(&g, 100, &mut rng);
        assert_eq!(pairs.len(), 100);
        let connected = g.pair_key_set();
        let mut seen = std::collections::HashSet::new();
        for (a, b) in pairs {
            assert!(a.0 < b.0, "pairs must be canonical");
            assert!(!connected.contains(&(a.0, b.0)));
            assert!(seen.insert((a.0, b.0)), "duplicate pair");
        }
    }

    #[test]
    fn non_relation_sampler_terminates_when_graph_dense() {
        // Fully connected graph: no non-relation pair exists.
        let pois: Vec<Poi> = (0..4)
            .map(|_| Poi {
                location: Location::new(116.0, 40.0),
                category: CategoryId(0),
            })
            .collect();
        let mut g = HeteroGraph::new(pois, 1);
        for a in 0..4u32 {
            for b in a + 1..4 {
                g.add_edge(PoiId(a), PoiId(b), RelationId(0));
            }
        }
        let mut rng = StdRng::seed_from_u64(4);
        let pairs = sample_non_relation_pairs(&g, 10, &mut rng);
        assert!(pairs.is_empty());
    }
}
