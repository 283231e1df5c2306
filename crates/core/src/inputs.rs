//! Precomputed, immutable model inputs.
//!
//! Everything a forward pass needs that does not change across epochs is
//! assembled once here: the directed adjacency over *training* edges, the
//! taxonomy path index, spatial neighbour lists with RBF weights, per-edge
//! distance features and attribute features. The same structure serves
//! transductive training, inductive training (with hidden POIs masked out)
//! and inference (with the full spatial graph restored).

use crate::config::PrimConfig;
use prim_geo::GridIndex;
use prim_graph::{
    Adjacency, Edge, EdgeIncidence, HeteroGraph, Poi, PoiId, SpatialNeighbors, Taxonomy,
};
use prim_tensor::{pool, Matrix, SegmentPlan};
use std::collections::HashSet;
use std::sync::Arc;

/// Shared [`SegmentPlan`]s for every gather/scatter the forward pass
/// performs, computed once per graph structure.
///
/// Cloning an `Arc` per op replaces the old per-epoch `to_vec()` clones of
/// E-sized index maps, and the CSR side of each plan lets the segment
/// reductions run in parallel by output segment (bitwise identical to
/// serial). A gather plan is a `SegmentPlan` whose `segment_of_row` is the
/// index list and whose segment count is the source row count.
pub struct GraphPlans {
    /// Taxonomy-path gather from the taxonomy-node table.
    pub cat_path_gather: Arc<SegmentPlan>,
    /// Taxonomy-path sum into per-POI category representations.
    pub cat_path_segment: Arc<SegmentPlan>,
    /// Leaf-category gather (the `-T` independent-embedding mode).
    pub leaf_gather: Arc<SegmentPlan>,
    /// Directed-edge source-POI gather.
    pub edge_src: Arc<SegmentPlan>,
    /// Directed-edge destination-POI gather.
    pub edge_dst: Arc<SegmentPlan>,
    /// Directed-edge relation gather from an `R`-row table.
    pub edge_rel: Arc<SegmentPlan>,
    /// Directed-edge relation gather from an `R+1`-row table (with φ).
    pub edge_rel_all: Arc<SegmentPlan>,
    /// Intra-relation `(dst, rel)` segments of the directed edges.
    pub intra: Arc<SegmentPlan>,
    /// `(dst, rel)` segment → destination POI aggregation.
    pub seg_dst: Arc<SegmentPlan>,
    /// Directed-edge message-key gather: edge → its `(source, relation)`
    /// key, keys numbered in order of first appearance. A message
    /// `γ(h*_src, h_r)·W_msg` depends on its key alone, so an inference
    /// tape computes one per key ([`PrimModel::forward`](crate::PrimModel::forward)).
    pub edge_key: Arc<SegmentPlan>,
    /// Message-key source-POI gather.
    pub key_src: Arc<SegmentPlan>,
    /// Message-key relation gather from an `R+1`-row table (with φ).
    pub key_rel: Arc<SegmentPlan>,
    /// Spatial-edge source-POI gather.
    pub sp_src: Arc<SegmentPlan>,
    /// Spatial-edge destination-POI gather.
    pub sp_dst: Arc<SegmentPlan>,
    /// Per-destination segments of the spatial edges.
    pub sp_seg: Arc<SegmentPlan>,
    /// Spatial segment → destination POI aggregation.
    pub sp_seg_dst: Arc<SegmentPlan>,
}

impl GraphPlans {
    #[allow(clippy::too_many_arguments)] // the structural inputs, flattened once at build time
    fn build(
        n_pois: usize,
        n_relations: usize,
        n_taxonomy_nodes: usize,
        n_categories: usize,
        cat_path_nodes: &[usize],
        cat_path_segment: &[usize],
        leaf_category: &[usize],
        adjacency: &Adjacency,
        spatial: &SpatialNeighbors,
    ) -> Self {
        let as_usize = |v: &[u32]| v.iter().map(|&x| x as usize).collect::<Vec<_>>();
        // One pass over the edges, numbering each `(src, rel)` key on first
        // sight through a dense `n_pois × R` table: O(E + n·R), no sort.
        let mut key_of = vec![u32::MAX; n_pois * n_relations];
        let (mut key_src, mut key_rel) = (Vec::new(), Vec::new());
        let edge_key: Vec<usize> = adjacency
            .src()
            .iter()
            .zip(adjacency.rel())
            .map(|(&src, &rel)| {
                let slot = &mut key_of[src as usize * n_relations + rel as usize];
                if *slot == u32::MAX {
                    *slot = key_src.len() as u32;
                    key_src.push(src as usize);
                    key_rel.push(rel as usize);
                }
                *slot as usize
            })
            .collect();
        let n_keys = key_src.len();
        GraphPlans {
            cat_path_gather: Arc::new(SegmentPlan::new(cat_path_nodes.to_vec(), n_taxonomy_nodes)),
            cat_path_segment: Arc::new(SegmentPlan::new(cat_path_segment.to_vec(), n_pois)),
            leaf_gather: Arc::new(SegmentPlan::new(leaf_category.to_vec(), n_categories)),
            edge_src: Arc::new(SegmentPlan::new(adjacency.src_usize(), n_pois)),
            edge_dst: Arc::new(SegmentPlan::new(adjacency.dst_usize(), n_pois)),
            edge_rel: Arc::new(SegmentPlan::new(adjacency.rel_usize(), n_relations)),
            edge_rel_all: Arc::new(SegmentPlan::new(adjacency.rel_usize(), n_relations + 1)),
            intra: Arc::new(SegmentPlan::new(
                adjacency.intra_segment().to_vec(),
                adjacency.num_segments(),
            )),
            seg_dst: Arc::new(SegmentPlan::new(as_usize(adjacency.segment_dst()), n_pois)),
            edge_key: Arc::new(SegmentPlan::new(edge_key, n_keys)),
            key_src: Arc::new(SegmentPlan::new(key_src, n_pois)),
            key_rel: Arc::new(SegmentPlan::new(key_rel, n_relations + 1)),
            sp_src: Arc::new(SegmentPlan::new(spatial.src_usize(), n_pois)),
            sp_dst: Arc::new(SegmentPlan::new(as_usize(spatial.dst()), n_pois)),
            sp_seg: Arc::new(SegmentPlan::new(
                spatial.segment().to_vec(),
                spatial.num_segments(),
            )),
            sp_seg_dst: Arc::new(SegmentPlan::new(as_usize(spatial.segment_dst()), n_pois)),
        }
    }
}

/// Immutable inputs for PRIM (and reusable by the GNN baselines).
pub struct ModelInputs {
    /// Number of POIs.
    pub n_pois: usize,
    /// Number of relation types (excluding φ).
    pub n_relations: usize,
    /// POI attribute features (`n_pois × attr_dim`).
    pub attrs: Matrix,
    /// Flattened taxonomy-node ids along each POI's category root path.
    pub cat_path_nodes: Vec<usize>,
    /// POI index of each entry in `cat_path_nodes`.
    pub cat_path_segment: Vec<usize>,
    /// Number of taxonomy tree nodes.
    pub n_taxonomy_nodes: usize,
    /// Leaf category id per POI (for the `-T` independent-embedding mode).
    pub leaf_category: Vec<usize>,
    /// Number of leaf categories.
    pub n_categories: usize,
    /// Directed adjacency over the visible training edges.
    pub adjacency: Adjacency,
    /// Per-directed-edge distance features: `[d_km, exp(-d_km)]`, shared
    /// with every tape's attention nodes rather than copied onto it.
    pub edge_dist_feats: Arc<Matrix>,
    /// Spatial neighbour lists (masked to visible POIs when training
    /// inductively).
    pub spatial: SpatialNeighbors,
    /// RBF weights as an `(n_spatial_edges × 1)` column for the extractor,
    /// shared like `edge_dist_feats`.
    pub spatial_rbf: Arc<Matrix>,
    /// Shared gather/scatter plans for the forward pass.
    pub plans: GraphPlans,
    /// Gather plan from the model's *global* per-POI parameter rows into
    /// these inputs' local rows. `None` means the inputs cover every POI in
    /// id order (the ordinary case); `Some` marks a subset build, where
    /// local row `i` reads global row `node_rows[i]` of `node_emb`.
    pub node_rows: Option<Arc<SegmentPlan>>,
    /// Pairwise distance lookup for scoring: distances are recomputed from
    /// locations on demand, so we keep the locations here.
    locations: Vec<prim_geo::Location>,
}

/// A relabeled slice of a city for incremental re-embedding: inputs over the
/// k-hop *support set* of an affected POI set, built by
/// [`ModelInputs::build_subset`]. Running the ordinary forward pass over
/// `inputs` yields final rows that are bitwise identical to the full-graph
/// forward for every POI in `targets` (see the module docs of `prim-ingest`
/// for the ring-set argument), with or without spatial edges.
pub struct SubsetInputs {
    /// Relabeled inputs over the support set.
    pub inputs: ModelInputs,
    /// Global POI id of each local row, strictly ascending.
    pub support: Vec<u32>,
    /// The affected POIs whose final rows are valid, strictly ascending.
    pub targets: Vec<u32>,
    /// Local row index of each target (parallel to `targets`).
    pub target_rows: Vec<usize>,
}

impl ModelInputs {
    /// Builds inputs over the given training edges.
    ///
    /// `visible` restricts the spatial graph (and should match the POIs the
    /// training edges touch) for the inductive protocol; pass `None` for
    /// ordinary transductive training and for inference.
    pub fn build(
        graph: &HeteroGraph,
        taxonomy: &Taxonomy,
        attrs: &Matrix,
        train_edges: &[Edge],
        visible: Option<&HashSet<PoiId>>,
        cfg: &PrimConfig,
    ) -> Self {
        let mut spatial = SpatialNeighbors::build(
            graph,
            cfg.spatial_radius_km,
            cfg.rbf_theta,
            cfg.max_spatial_neighbors,
        );
        if let Some(vis) = visible {
            let keep: Vec<bool> = (0..graph.num_pois() as u32)
                .map(|i| vis.contains(&PoiId(i)))
                .collect();
            spatial = spatial.retain_pois(&keep);
        }
        Self::assemble(graph, taxonomy, attrs, train_edges, spatial, None)
    }

    /// Like [`ModelInputs::build`] (inference form, no visibility mask) but
    /// with the spatial neighbour lists computed over a caller-provided grid
    /// index instead of a freshly-projected one.
    ///
    /// The ingest pipeline's from-scratch oracle uses this with the city's
    /// *frozen-projection* grid: [`SpatialNeighbors::build`] would recompute
    /// the projection from the mutated point set's mean latitude, shifting
    /// every RBF weight bitwise and making "affected POIs only" an
    /// unbounded set.
    pub fn build_with_grid(
        graph: &HeteroGraph,
        taxonomy: &Taxonomy,
        attrs: &Matrix,
        train_edges: &[Edge],
        grid: &GridIndex,
        cfg: &PrimConfig,
    ) -> Self {
        assert_eq!(grid.len(), graph.num_pois(), "grid must cover every POI");
        let spatial = SpatialNeighbors::build_with_grid(
            grid,
            cfg.spatial_radius_km,
            cfg.rbf_theta,
            cfg.max_spatial_neighbors,
        );
        Self::assemble(graph, taxonomy, attrs, train_edges, spatial, None)
    }

    /// Shared assembly over a ready spatial-neighbour structure.
    fn assemble(
        graph: &HeteroGraph,
        taxonomy: &Taxonomy,
        attrs: &Matrix,
        train_edges: &[Edge],
        spatial: SpatialNeighbors,
        node_rows: Option<Arc<SegmentPlan>>,
    ) -> Self {
        assert_eq!(
            attrs.rows(),
            graph.num_pois(),
            "attribute rows must match POI count"
        );
        let n_pois = graph.num_pois();

        // Taxonomy paths.
        let mut cat_path_nodes = Vec::new();
        let mut cat_path_segment = Vec::new();
        let mut leaf_category = Vec::with_capacity(n_pois);
        for (i, poi) in graph.pois().iter().enumerate() {
            leaf_category.push(poi.category.0 as usize);
            for node in taxonomy.path_to_root(poi.category) {
                cat_path_nodes.push(node.0 as usize);
                cat_path_segment.push(i);
            }
        }

        let adjacency = Adjacency::build(graph, train_edges);
        let edge_dist_feats = Arc::new(Matrix::from_fn(
            adjacency.num_directed_edges(),
            2,
            |r, c| {
                let d = adjacency.dist_km()[r];
                if c == 0 {
                    d
                } else {
                    (-d).exp()
                }
            },
        ));

        let spatial_rbf = Arc::new(Matrix::from_fn(spatial.num_edges(), 1, |r, _| {
            spatial.rbf()[r]
        }));

        let plans = GraphPlans::build(
            n_pois,
            graph.num_relations(),
            taxonomy.num_nodes(),
            taxonomy.num_categories(),
            &cat_path_nodes,
            &cat_path_segment,
            &leaf_category,
            &adjacency,
            &spatial,
        );

        ModelInputs {
            n_pois,
            n_relations: graph.num_relations(),
            attrs: attrs.clone(),
            cat_path_nodes,
            cat_path_segment,
            n_taxonomy_nodes: taxonomy.num_nodes(),
            leaf_category,
            n_categories: taxonomy.num_categories(),
            adjacency,
            edge_dist_feats,
            spatial,
            spatial_rbf,
            plans,
            node_rows,
            locations: graph.pois().iter().map(|p| p.location).collect(),
        }
    }

    /// Builds relabeled inputs over the k-hop support set of `targets` for
    /// incremental re-embedding.
    ///
    /// `targets` are the affected POIs (strictly ascending global ids) whose
    /// final embeddings must come out bitwise identical to a full-graph
    /// forward over the mutated `graph`. The support set is grown as nested
    /// rings: first the spatial sources of the targets (the last forward
    /// stage reads their post-layer rows), then `cfg.n_layers` hops of graph
    /// adjacency (each WRGNN layer reads one hop of neighbours). Every
    /// structure is relabeled through the strictly monotone global→local
    /// map, which preserves the `(dst, rel, src)` sort of the adjacency and
    /// the segment grouping of the spatial lists — so each op's per-row
    /// accumulation order, and therefore its bits, match the full pass.
    ///
    /// `incidence` lists each POI's edges in `graph` (kept in step with it
    /// by the caller), so the rings and the local edge set cost the
    /// support's degrees rather than a scan of every edge. `grid` is the
    /// city's frozen-projection spatial grid over all POIs.
    pub fn build_subset(
        graph: &HeteroGraph,
        incidence: &EdgeIncidence,
        taxonomy: &Taxonomy,
        attrs: &Matrix,
        grid: &GridIndex,
        targets: &[u32],
        cfg: &PrimConfig,
    ) -> SubsetInputs {
        assert!(
            targets.windows(2).all(|w| w[0] < w[1]),
            "targets must be strictly ascending"
        );
        assert_eq!(grid.len(), graph.num_pois(), "grid must cover every POI");
        let n_global = graph.num_pois();

        // Spatial lists for the targets over the full frozen grid: the
        // final stage attends from each target over these sources, so their
        // post-layer rows are needed too.
        let sp_targets = SpatialNeighbors::build_for_targets(
            grid,
            targets.iter().map(|&t| t as usize),
            cfg.spatial_radius_km,
            cfg.rbf_theta,
            cfg.max_spatial_neighbors,
        );

        let mut in_support = vec![false; n_global];
        let mut frontier: Vec<u32> = Vec::new();
        for &t in targets.iter().chain(sp_targets.src()) {
            if !in_support[t as usize] {
                in_support[t as usize] = true;
                frontier.push(t);
            }
        }

        // One ring of graph adjacency per WRGNN layer.
        for _ in 0..cfg.n_layers {
            let mut next = Vec::new();
            for &v in &frontier {
                for u in incidence.neighbors(graph, v) {
                    if !in_support[u as usize] {
                        in_support[u as usize] = true;
                        next.push(u);
                    }
                }
            }
            frontier = next;
        }

        let support: Vec<u32> = (0..n_global as u32)
            .filter(|&i| in_support[i as usize])
            .collect();
        let mut map = vec![u32::MAX; n_global];
        for (local, &g) in support.iter().enumerate() {
            map[g as usize] = local as u32;
        }

        // Induced local subgraph: support POIs in global order, plus every
        // edge with both endpoints inside, in global edge order (each such
        // edge is listed under both endpoints, hence the dedup). Relabeling
        // is strictly monotone, so canonical edge order and the adjacency
        // sort are preserved.
        let mut inside: Vec<u32> = support
            .iter()
            .flat_map(|&g| incidence.edges_of(g))
            .copied()
            .filter(|&i| {
                let e = graph.edges()[i as usize];
                in_support[e.src.0 as usize] && in_support[e.dst.0 as usize]
            })
            .collect();
        inside.sort_unstable();
        inside.dedup();
        let local_pois: Vec<Poi> = support.iter().map(|&g| *graph.poi(PoiId(g))).collect();
        let mut local_graph = HeteroGraph::new(local_pois, graph.num_relations());
        for &i in &inside {
            let e = graph.edges()[i as usize];
            local_graph.add_edge(
                PoiId(map[e.src.0 as usize]),
                PoiId(map[e.dst.0 as usize]),
                e.rel,
            );
        }
        let local_edges: Vec<Edge> = local_graph.edges().to_vec();

        let support_usize: Vec<usize> = support.iter().map(|&g| g as usize).collect();
        let attrs_local = attrs.gather_rows(&support_usize);
        let spatial_local = sp_targets.relabeled(&map);
        let node_rows = Arc::new(SegmentPlan::new(support_usize, n_global));

        let inputs = Self::assemble(
            &local_graph,
            taxonomy,
            &attrs_local,
            &local_edges,
            spatial_local,
            Some(node_rows),
        );
        let target_rows: Vec<usize> = targets.iter().map(|&t| map[t as usize] as usize).collect();
        SubsetInputs {
            inputs,
            support,
            targets: targets.to_vec(),
            target_rows,
        }
    }

    /// POI locations in id order (the coordinates behind
    /// [`ModelInputs::pair_distance_km`]; serving layers snapshot these so
    /// scoring can bin pairs without the full inputs).
    pub fn locations(&self) -> &[prim_geo::Location] {
        &self.locations
    }

    /// Distance in km between two POIs.
    pub fn pair_distance_km(&self, a: PoiId, b: PoiId) -> f64 {
        self.locations[a.0 as usize].equirect_km(&self.locations[b.0 as usize])
    }

    /// Distance bin of a POI pair under the configured bins.
    pub fn pair_bin(&self, a: PoiId, b: PoiId, cfg: &PrimConfig) -> usize {
        cfg.bins.bin(self.pair_distance_km(a, b))
    }

    /// [`ModelInputs::pair_bin`] of every pair `(src[k], dst[k])`, in
    /// fixed chunks of pairs over the worker pool.
    pub fn pair_bins(&self, src: &[usize], dst: &[usize], cfg: &PrimConfig) -> Vec<usize> {
        /// Pairs per pool job; a shape-only constant.
        const CHUNK: usize = 4096;
        assert_eq!(src.len(), dst.len(), "pair_bins: length mismatch");
        let n = src.len();
        let mut bins = vec![0usize; n];
        let out = pool::SendPtr::new(bins.as_mut_ptr());
        pool::run(n.div_ceil(CHUNK), |c| {
            let range = c * CHUNK..n.min(c * CHUNK + CHUNK);
            // SAFETY: chunk `c` alone writes this range of `bins`, and
            // `pool::run` joins every job before `bins` is read.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(out.get().add(range.start), range.len()) };
            for (bin, k) in chunk.iter_mut().zip(range) {
                *bin = self.pair_bin(PoiId(src[k] as u32), PoiId(dst[k] as u32), cfg);
            }
        });
        bins
    }

    /// Attribute feature width.
    pub fn attr_dim(&self) -> usize {
        self.attrs.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prim_data::{Dataset, Scale};

    fn small() -> (Dataset, PrimConfig) {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.2, 5);
        (ds, PrimConfig::quick())
    }

    #[test]
    fn build_shapes_consistent() {
        let (ds, cfg) = small();
        let inputs = ModelInputs::build(
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            ds.graph.edges(),
            None,
            &cfg,
        );
        assert_eq!(inputs.n_pois, ds.graph.num_pois());
        assert_eq!(inputs.leaf_category.len(), inputs.n_pois);
        assert_eq!(inputs.cat_path_nodes.len(), inputs.cat_path_segment.len());
        // Every POI's path has depth ≥ 2 (leaf + root at minimum).
        assert!(inputs.cat_path_nodes.len() >= 2 * inputs.n_pois);
        assert_eq!(
            inputs.edge_dist_feats.rows(),
            inputs.adjacency.num_directed_edges()
        );
        assert_eq!(inputs.spatial_rbf.rows(), inputs.spatial.num_edges());
    }

    #[test]
    fn visible_mask_restricts_spatial() {
        let (ds, cfg) = small();
        let all = ModelInputs::build(
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            ds.graph.edges(),
            None,
            &cfg,
        );
        let half: HashSet<PoiId> = (0..ds.graph.num_pois() as u32 / 2).map(PoiId).collect();
        let visible_edges: Vec<_> = ds
            .graph
            .edges()
            .iter()
            .copied()
            .filter(|e| half.contains(&e.src) && half.contains(&e.dst))
            .collect();
        let masked = ModelInputs::build(
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            &visible_edges,
            Some(&half),
            &cfg,
        );
        assert!(masked.spatial.num_edges() < all.spatial.num_edges());
        for &s in masked.spatial.src() {
            assert!(half.contains(&PoiId(s)));
        }
    }

    #[test]
    fn pair_bin_uses_configured_bins() {
        let (ds, cfg) = small();
        let inputs = ModelInputs::build(
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            ds.graph.edges(),
            None,
            &cfg,
        );
        let e = ds.graph.edges()[0];
        let d = inputs.pair_distance_km(e.src, e.dst);
        assert_eq!(inputs.pair_bin(e.src, e.dst, &cfg), cfg.bins.bin(d));
    }
}
