//! Bitwise parity of incremental subset re-embedding against a from-scratch
//! full re-embed of the mutated graph.
//!
//! The contract under test is the heart of the online-ingest pipeline: after
//! any mutation sequence (add POI, add edge, retire POI), running the
//! forward pass over the k-hop support set built by
//! `ModelInputs::build_subset` must reproduce the *exact bits* of the
//! full-graph forward for every requested target row — at any thread count.

use prim_core::{ModelInputs, PrimConfig, PrimModel, SubsetInputs};
use prim_data::{Dataset, Scale};
use prim_geo::{GridIndex, Location};
use prim_graph::{Poi, PoiId, RelationId};
use prim_tensor::{kernel, Matrix};

struct Mutated {
    graph: prim_graph::HeteroGraph,
    taxonomy: prim_graph::Taxonomy,
    attrs: Matrix,
    grid: GridIndex,
    cfg: PrimConfig,
    model: PrimModel,
    new_id: u32,
    retired: u32,
}

/// Builds a model on the base city, then applies a mixed mutation batch:
/// one new POI (with edges), one extra edge between existing POIs, and one
/// retirement. The grid keeps its checkpoint-time projection.
fn mutated_city(use_node_embeddings: bool) -> Mutated {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.15, 7);
    let cfg = PrimConfig {
        dim: 8,
        cat_dim: 4,
        use_node_embeddings,
        ..PrimConfig::quick()
    };
    let base_inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &cfg,
    );
    let mut model = PrimModel::new(cfg.clone(), &base_inputs);

    // Frozen serving grid, captured before any mutation.
    let locations: Vec<Location> = ds.graph.pois().iter().map(|p| p.location).collect();
    let mut grid = GridIndex::build(&locations, cfg.spatial_radius_km.max(1e-6));

    let mut graph = ds.graph.clone();
    // Onboard a POI in the thick of the city so it picks up spatial context.
    let anchor = graph.poi(PoiId(0)).location;
    let new_poi = Poi {
        location: Location::new(anchor.lon + 0.002, anchor.lat + 0.001),
        category: graph.poi(PoiId(3)).category,
    };
    let new_id = graph.add_poi(new_poi).0;
    grid.insert(new_poi.location);
    graph.add_edge(PoiId(new_id), PoiId(0), RelationId(0));
    graph.add_edge(PoiId(new_id), PoiId(5), RelationId(1));
    graph.add_edge(PoiId(2), PoiId(9), RelationId(0));
    // Retire a POI: drop its edges and tombstone it in the grid.
    let retired = 4u32;
    graph.remove_edges_of(PoiId(retired));
    grid.retire(retired as usize);

    // New POI's attributes ride in with the mutation.
    let attr_dim = ds.attrs.cols();
    let new_row = Matrix::from_fn(1, attr_dim, |_, c| 0.05 * (c as f32 + 1.0));
    let attrs = Matrix::vstack(&[&ds.attrs, &new_row]);
    model.extend_pois(1);

    Mutated {
        graph,
        taxonomy: ds.taxonomy,
        attrs,
        grid,
        cfg,
        model,
        new_id,
        retired,
    }
}

fn oracle(m: &Mutated) -> prim_core::EmbeddingTable {
    let full = ModelInputs::build_with_grid(
        &m.graph,
        &m.taxonomy,
        &m.attrs,
        m.graph.edges(),
        &m.grid,
        &m.cfg,
    );
    m.model.embed(&full)
}

fn subset_for(m: &Mutated, targets: &[u32]) -> SubsetInputs {
    let full = ModelInputs::build_with_grid(
        &m.graph,
        &m.taxonomy,
        &m.attrs,
        m.graph.edges(),
        &m.grid,
        &m.cfg,
    );
    ModelInputs::build_subset(
        &m.graph,
        &prim_graph::EdgeIncidence::build(&m.graph),
        &m.taxonomy,
        &m.attrs,
        &m.grid,
        targets,
        !full.spatial.is_empty(),
        &m.cfg,
    )
}

fn assert_rows_bitwise(m: &Mutated, targets: &[u32]) {
    let full_table = oracle(m);
    let sub = subset_for(m, targets);
    assert!(
        sub.inputs.n_pois < m.graph.num_pois(),
        "support set should be a strict subset ({} of {})",
        sub.inputs.n_pois,
        m.graph.num_pois()
    );
    let sub_table = m.model.embed(&sub.inputs);
    for (t, &row) in sub.targets.iter().zip(&sub.target_rows) {
        let want = full_table.pois.row(*t as usize);
        let got = sub_table.pois.row(row);
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "row for global POI {t} diverges"
        );
    }
    // Relation and bin tables are POI-independent and must agree exactly.
    assert_eq!(full_table.relations.data(), sub_table.relations.data());
    assert_eq!(full_table.bin_normals.data(), sub_table.bin_normals.data());
}

#[test]
fn subset_rows_match_full_oracle_bitwise() {
    let m = mutated_city(true);
    let targets = vec![0, 2, m.retired, 9, m.new_id];
    assert_rows_bitwise(&m, &targets);
}

#[test]
fn subset_rows_match_without_node_embeddings() {
    let m = mutated_city(false);
    let targets = vec![1, 5, m.new_id];
    assert_rows_bitwise(&m, &targets);
}

#[test]
fn subset_rows_match_across_thread_counts() {
    let m = mutated_city(true);
    let targets = vec![0, 3, m.new_id];
    let run = |threads: usize| {
        kernel::set_threads(threads);
        let sub = subset_for(&m, &targets);
        let table = m.model.embed(&sub.inputs);
        let rows: Vec<Vec<u32>> = sub
            .target_rows
            .iter()
            .map(|&r| table.pois.row(r).iter().map(|v| v.to_bits()).collect())
            .collect();
        kernel::set_threads(1);
        rows
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel);
    // And both match the full oracle (computed at 1 thread).
    assert_rows_bitwise(&m, &targets);
}

#[test]
fn retired_poi_row_matches_isolated_recompute() {
    let m = mutated_city(true);
    // A retired POI keeps a row; the oracle computes it with no edges and
    // no spatial context, and the subset path must agree.
    assert_rows_bitwise(&m, &[m.retired]);
}
