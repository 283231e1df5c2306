//! The one city every workload runs on: the metro geography, layout seed
//! and local-commerce relation profile of the repository's ingest bench,
//! at [`N_POIS`] POIs. The city is fixed; the benchmark seed draws the
//! traffic, so two seeds differ in what is asked of the program, not in
//! the data it holds.

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::generator::generate_taxonomy;
use prim_data::{CityConfig, Dataset, RelationConfig, Scale, TaxonomyConfig};
use std::path::Path;

/// POIs in the benchmark city. Large enough that every top-k regime
/// (exact, quantized scan, HNSW beam) is reachable; small enough that
/// set-up is not dominated by allocator behaviour (see README.md).
pub const N_POIS: usize = 5_000;

/// The benchmark city: a metro-extent layout (so a k-hop onboarding
/// frontier is a small share of the city, as in production) with
/// walking-distance relations and no city-spanning brand edges.
pub fn city() -> Dataset {
    let tax = generate_taxonomy(&TaxonomyConfig::preset(Scale::Quick));
    let city_cfg = CityConfig {
        name: "perfbench-metro".into(),
        city_radius_km: 65.0,
        core_radius_km: 22.0,
        n_clusters: 200,
        ..CityConfig::singapore(N_POIS)
    };
    let rel_cfg = RelationConfig {
        candidate_radius_km: 2.5,
        complementary_decay_km: 2.5,
        random_candidates: 0,
        category_candidates: 0,
        ..RelationConfig::binary()
    };
    Dataset::generate(&city_cfg, &tax, &rel_cfg)
}

/// Writes the serving checkpoint of a city: an untrained quick-config
/// model over every edge (serving cost does not depend on the weights'
/// values).
pub fn write_checkpoint(ds: &Dataset, path: &Path) {
    let cfg = PrimConfig::quick();
    let inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &cfg,
    );
    let model = PrimModel::new(cfg, &inputs);
    prim_serve::save_checkpoint(
        path,
        "perfbench",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
    )
    .expect("fixture checkpoint writes");
}
