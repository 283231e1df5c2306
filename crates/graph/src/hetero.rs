//! The heterogeneous POI relationship graph (paper Definition 3.3).

use crate::taxonomy::CategoryId;
use prim_geo::Location;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's multiply-rotate mixing step, the hasher rustc uses for its own
/// tables: one rotate, xor and multiply per integer written, against
/// std's SipHash rounds. The samplers' membership sets only answer
/// `contains`/`insert` on small integer keys, whose answers do not depend
/// on the hasher, and nothing iterates them, so no draw depends on it.
#[derive(Clone, Copy, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b.into()));
    }
    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A membership set hashed by [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// `(min, max, rel)` keys of typed edges ([`HeteroGraph::edge_key_set`]).
pub type EdgeKeySet = FxHashSet<(u32, u32, u8)>;

/// `(min, max)` keys of connected POI pairs ([`HeteroGraph::pair_key_set`]).
pub type PairKeySet = FxHashSet<(u32, u32)>;

/// Dense POI identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoiId(pub u32);

/// Dense relation-type identifier (`r ∈ R`); the non-relation type φ is
/// *not* a relation here — it is handled by the scoring layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationId(pub u8);

/// A point of interest: location plus leaf category.
#[derive(Clone, Copy, Debug)]
pub struct Poi {
    /// Geographic position.
    pub location: Location,
    /// Leaf category in the taxonomy.
    pub category: CategoryId,
}

/// An undirected typed edge between two POIs.
///
/// Both the competitive and complementary relationships of the paper are
/// symmetric, so edges are stored once with `src <= dst` canonical order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// One endpoint.
    pub src: PoiId,
    /// Other endpoint.
    pub dst: PoiId,
    /// Relation type.
    pub rel: RelationId,
}

impl Edge {
    /// Creates an edge in canonical (src ≤ dst) order.
    pub fn new(a: PoiId, b: PoiId, rel: RelationId) -> Self {
        if a.0 <= b.0 {
            Edge {
                src: a,
                dst: b,
                rel,
            }
        } else {
            Edge {
                src: b,
                dst: a,
                rel,
            }
        }
    }

    /// Unordered pair key ignoring the relation type.
    pub fn pair_key(&self) -> (u32, u32) {
        (self.src.0, self.dst.0)
    }
}

/// The heterogeneous POI relationship graph `G = (P, E, R, X)`.
#[derive(Clone, Debug)]
pub struct HeteroGraph {
    pois: Vec<Poi>,
    n_relations: usize,
    edges: Vec<Edge>,
}

impl HeteroGraph {
    /// Creates a graph over the given POIs with `n_relations` relation types
    /// and no edges yet.
    pub fn new(pois: Vec<Poi>, n_relations: usize) -> Self {
        assert!(n_relations >= 1 && n_relations <= u8::MAX as usize);
        HeteroGraph {
            pois,
            n_relations,
            edges: Vec::new(),
        }
    }

    /// Adds an undirected typed edge. Duplicate `(pair, rel)` combinations
    /// are allowed at this layer; deduplicate during construction if needed.
    pub fn add_edge(&mut self, a: PoiId, b: PoiId, rel: RelationId) {
        assert!((a.0 as usize) < self.pois.len() && (b.0 as usize) < self.pois.len());
        assert!((rel.0 as usize) < self.n_relations);
        assert_ne!(a, b, "self-loop relationships are not meaningful for POIs");
        self.edges.push(Edge::new(a, b, rel));
    }

    /// Bulk edge insertion.
    pub fn add_edges(&mut self, edges: impl IntoIterator<Item = Edge>) {
        for e in edges {
            self.add_edge(e.src, e.dst, e.rel);
        }
    }

    /// Appends a POI and returns its id. Used by the online-ingest pipeline;
    /// existing POI ids are never renumbered.
    pub fn add_poi(&mut self, poi: Poi) -> PoiId {
        assert!(
            self.pois.len() < u32::MAX as usize,
            "POI id space exhausted"
        );
        let id = PoiId(self.pois.len() as u32);
        self.pois.push(poi);
        id
    }

    /// Removes every edge incident to `id` and returns them in their stored
    /// order (a retired POI keeps its id and row but stops participating in
    /// message passing).
    pub fn remove_edges_of(&mut self, id: PoiId) -> Vec<Edge> {
        let mut removed = Vec::new();
        self.edges.retain(|e| {
            if e.src == id || e.dst == id {
                removed.push(*e);
                false
            } else {
                true
            }
        });
        removed
    }

    /// Number of POIs.
    pub fn num_pois(&self) -> usize {
        self.pois.len()
    }

    /// Number of relation types (|R|, excluding φ).
    pub fn num_relations(&self) -> usize {
        self.n_relations
    }

    /// Number of stored (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// POI lookup.
    pub fn poi(&self, id: PoiId) -> &Poi {
        &self.pois[id.0 as usize]
    }

    /// All POIs in id order.
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// All undirected edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Geographic distance between two POIs in km.
    pub fn distance_km(&self, a: PoiId, b: PoiId) -> f64 {
        self.poi(a).location.equirect_km(&self.poi(b).location)
    }

    /// The set of `(min, max, rel)` keys of existing edges, for membership
    /// tests during negative sampling.
    pub fn edge_key_set(&self) -> EdgeKeySet {
        self.edges
            .iter()
            .map(|e| (e.src.0, e.dst.0, e.rel.0))
            .collect()
    }

    /// The set of `(min, max)` POI pairs connected by *any* relation.
    pub fn pair_key_set(&self) -> PairKeySet {
        self.edges.iter().map(|e| e.pair_key()).collect()
    }
}

/// Per-POI lists of incident edges, as ascending indices into
/// [`HeteroGraph::edges`].
///
/// A city that takes mutations keeps one of these beside its graph and
/// updates it with each graph mutation, so neighbourhood walks cost the
/// degrees they visit rather than a scan of every edge.
#[derive(Debug, PartialEq, Eq)]
pub struct EdgeIncidence {
    lists: Vec<Vec<u32>>,
}

impl EdgeIncidence {
    /// Lists every edge of `graph` under both of its endpoints.
    pub fn build(graph: &HeteroGraph) -> Self {
        let mut lists = vec![Vec::new(); graph.num_pois()];
        for (i, e) in graph.edges().iter().enumerate() {
            lists[e.src.0 as usize].push(i as u32);
            lists[e.dst.0 as usize].push(i as u32);
        }
        EdgeIncidence { lists }
    }

    /// Follows [`HeteroGraph::add_poi`]: the new POI has no edges yet.
    pub fn add_poi(&mut self) {
        self.lists.push(Vec::new());
    }

    /// Follows [`HeteroGraph::add_edge`]: lists `graph`'s newest edge.
    pub fn add_edge(&mut self, graph: &HeteroGraph) {
        let i = graph.num_edges() - 1;
        let e = graph.edges()[i];
        self.lists[e.src.0 as usize].push(i as u32);
        self.lists[e.dst.0 as usize].push(i as u32);
    }

    /// Follows [`HeteroGraph::remove_edges_of`]`(id)`: drops `id`'s edges
    /// and shifts every later index down past them, as the graph's
    /// order-preserving removal did. O(|E|), like the removal itself.
    pub fn remove_edges_of(&mut self, id: PoiId) {
        let gone = std::mem::take(&mut self.lists[id.0 as usize]);
        if gone.is_empty() {
            return;
        }
        for list in &mut self.lists {
            list.retain_mut(|e| match gone.binary_search(e) {
                Ok(_) => false,
                Err(below) => {
                    *e -= below as u32;
                    true
                }
            });
        }
    }

    /// Indices of `poi`'s edges, ascending.
    pub fn edges_of(&self, poi: u32) -> &[u32] {
        &self.lists[poi as usize]
    }

    /// `poi`'s relational neighbours, one per incident edge, in edge
    /// order.
    pub fn neighbors<'a>(
        &'a self,
        graph: &'a HeteroGraph,
        poi: u32,
    ) -> impl Iterator<Item = u32> + 'a {
        self.edges_of(poi).iter().map(move |&i| {
            let e = graph.edges()[i as usize];
            if e.src.0 == poi {
                e.dst.0
            } else {
                e.src.0
            }
        })
    }
}

/// Per-relation adjacency in CSR form over a set of *directed* edges.
///
/// GNN layers consume this: each undirected edge contributes two directed
/// messages. Rows are grouped by `(target, relation)` so intra-relation
/// softmax segments are contiguous.
#[derive(Clone, Debug)]
pub struct Adjacency {
    n_pois: usize,
    n_relations: usize,
    /// Directed edges sorted by (dst, rel): message source per edge.
    src: Vec<u32>,
    /// Message target per edge.
    dst: Vec<u32>,
    /// Relation per edge.
    rel: Vec<u8>,
    /// Distance (km) between the endpoints, precomputed for spatial
    /// attention features.
    dist_km: Vec<f32>,
    /// Compass bearing (radians, [0, 2π)) from target to source, used by
    /// sector-based aggregation (DeepR baseline).
    bearing: Vec<f32>,
    /// Softmax segment per edge: dense id of the `(dst, rel)` group.
    intra_segment: Vec<usize>,
    /// Number of `(dst, rel)` groups.
    n_segments: usize,
    /// Map from segment to its target POI, for inter-relation aggregation.
    segment_dst: Vec<u32>,
}

impl Adjacency {
    /// Builds directed adjacency from a set of undirected edges.
    pub fn build(graph: &HeteroGraph, edges: &[Edge]) -> Self {
        let mut directed: Vec<(u32, u8, u32)> = Vec::with_capacity(edges.len() * 2);
        for e in edges {
            directed.push((e.dst.0, e.rel.0, e.src.0));
            directed.push((e.src.0, e.rel.0, e.dst.0));
        }
        // Group by (dst, rel).
        directed.sort_unstable();
        let n = directed.len();
        let mut src = Vec::with_capacity(n);
        let mut dst = Vec::with_capacity(n);
        let mut rel = Vec::with_capacity(n);
        let mut dist_km = Vec::with_capacity(n);
        let mut bearing = Vec::with_capacity(n);
        let mut intra_segment = Vec::with_capacity(n);
        let mut segment_dst = Vec::new();
        let mut prev: Option<(u32, u8)> = None;
        for (d, r, s) in directed {
            if prev != Some((d, r)) {
                segment_dst.push(d);
                prev = Some((d, r));
            }
            src.push(s);
            dst.push(d);
            rel.push(r);
            dist_km.push(graph.distance_km(PoiId(s), PoiId(d)) as f32);
            bearing.push(
                graph
                    .poi(PoiId(d))
                    .location
                    .bearing_to(&graph.poi(PoiId(s)).location) as f32,
            );
            intra_segment.push(segment_dst.len() - 1);
        }
        Adjacency {
            n_pois: graph.num_pois(),
            n_relations: graph.num_relations(),
            src,
            dst,
            rel,
            dist_km,
            bearing,
            intra_segment,
            n_segments: segment_dst.len(),
            segment_dst,
        }
    }

    /// Number of directed edges (2× undirected).
    pub fn num_directed_edges(&self) -> usize {
        self.src.len()
    }

    /// Number of POIs the adjacency was built over.
    pub fn num_pois(&self) -> usize {
        self.n_pois
    }

    /// Number of relation types.
    pub fn num_relations(&self) -> usize {
        self.n_relations
    }

    /// Message sources, one per directed edge.
    pub fn src(&self) -> &[u32] {
        &self.src
    }

    /// Message targets, one per directed edge.
    pub fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// Relation ids, one per directed edge.
    pub fn rel(&self) -> &[u8] {
        &self.rel
    }

    /// Endpoint distances in km, one per directed edge.
    pub fn dist_km(&self) -> &[f32] {
        &self.dist_km
    }

    /// Bearing (radians) from each edge's target to its source.
    pub fn bearing(&self) -> &[f32] {
        &self.bearing
    }

    /// Dense `(dst, rel)` segment per edge — the softmax groups for
    /// intra-relation attention.
    pub fn intra_segment(&self) -> &[usize] {
        &self.intra_segment
    }

    /// Number of `(dst, rel)` segments.
    pub fn num_segments(&self) -> usize {
        self.n_segments
    }

    /// Target POI of each segment.
    pub fn segment_dst(&self) -> &[u32] {
        &self.segment_dst
    }

    /// Source indices as `usize` (for `gather_rows`).
    pub fn src_usize(&self) -> Vec<usize> {
        self.src.iter().map(|&v| v as usize).collect()
    }

    /// Target indices as `usize`.
    pub fn dst_usize(&self) -> Vec<usize> {
        self.dst.iter().map(|&v| v as usize).collect()
    }

    /// Relation indices as `usize`.
    pub fn rel_usize(&self) -> Vec<usize> {
        self.rel.iter().map(|&v| v as usize).collect()
    }

    /// Degree of each POI counting all incoming directed edges.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n_pois];
        for &d in &self.dst {
            deg[d as usize] += 1;
        }
        deg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> HeteroGraph {
        let pois: Vec<Poi> = (0..4)
            .map(|i| Poi {
                location: Location::new(116.0 + 0.01 * i as f64, 40.0),
                category: CategoryId(0),
            })
            .collect();
        let mut graph = HeteroGraph::new(pois, 2);
        graph.add_edge(PoiId(0), PoiId(1), RelationId(0));
        graph.add_edge(PoiId(1), PoiId(2), RelationId(0));
        graph.add_edge(PoiId(0), PoiId(2), RelationId(1));
        graph
    }

    #[test]
    fn edge_canonical_order() {
        let e = Edge::new(PoiId(5), PoiId(2), RelationId(0));
        assert_eq!(e.src, PoiId(2));
        assert_eq!(e.dst, PoiId(5));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut g = tiny_graph();
        g.add_edge(PoiId(1), PoiId(1), RelationId(0));
    }

    #[test]
    fn adjacency_doubles_edges() {
        let g = tiny_graph();
        let adj = Adjacency::build(&g, g.edges());
        assert_eq!(adj.num_directed_edges(), 6);
    }

    #[test]
    fn adjacency_segments_group_by_dst_and_rel() {
        let g = tiny_graph();
        let adj = Adjacency::build(&g, g.edges());
        // POI 0: rel0 from 1, rel1 from 2 → two segments.
        // POI 1: rel0 from {0, 2}       → one segment (two edges).
        // POI 2: rel0 from 1, rel1 from 0 → two segments.
        assert_eq!(adj.num_segments(), 5);
        // Edges in the same segment must share (dst, rel).
        for i in 0..adj.num_directed_edges() {
            for j in 0..adj.num_directed_edges() {
                if adj.intra_segment()[i] == adj.intra_segment()[j] {
                    assert_eq!(adj.dst()[i], adj.dst()[j]);
                    assert_eq!(adj.rel()[i], adj.rel()[j]);
                }
            }
        }
        // Segment targets are consistent with edge targets.
        for i in 0..adj.num_directed_edges() {
            assert_eq!(adj.segment_dst()[adj.intra_segment()[i]], adj.dst()[i]);
        }
    }

    #[test]
    fn adjacency_bearings_in_range() {
        let g = tiny_graph();
        let adj = Adjacency::build(&g, g.edges());
        let tau = 2.0 * std::f32::consts::PI;
        assert!(adj.bearing().iter().all(|&b| (0.0..tau).contains(&b)));
        // POIs lie on an east-west line: bearings are ~east (π/2) or ~west (3π/2).
        for &b in adj.bearing() {
            let east = (b - std::f32::consts::FRAC_PI_2).abs() < 0.1;
            let west = (b - 3.0 * std::f32::consts::FRAC_PI_2).abs() < 0.1;
            assert!(east || west, "unexpected bearing {b}");
        }
    }

    #[test]
    fn adjacency_distances_positive() {
        let g = tiny_graph();
        let adj = Adjacency::build(&g, g.edges());
        assert!(adj.dist_km().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn in_degrees_counts() {
        let g = tiny_graph();
        let adj = Adjacency::build(&g, g.edges());
        assert_eq!(adj.in_degrees(), vec![2, 2, 2, 0]);
    }

    #[test]
    fn key_sets() {
        let g = tiny_graph();
        assert_eq!(g.edge_key_set().len(), 3);
        assert_eq!(g.pair_key_set().len(), 3);
        assert!(g.pair_key_set().contains(&(0, 1)));
        assert!(!g.pair_key_set().contains(&(1, 3)));
    }
}
