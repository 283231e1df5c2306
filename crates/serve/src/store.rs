//! The frozen embedding store behind every serving query.
//!
//! [`EmbeddingStore::from_model`] runs the model's forward pass exactly
//! once and snapshots the three tables eager scoring reads — POI
//! embeddings, relation-score embeddings and the normalised distance-bin
//! hyperplanes — together with the geometry needed to bin pairs and answer
//! spatial candidate queries. After construction nothing references the
//! model or the autograd tape: scoring is pure table lookups. A
//! checkpoint that carries those tables (its served section) is adopted
//! instead: [`EmbeddingStore::from_checkpoint`] runs no forward pass.

use crate::ann::{AnnIndex, AnnParams};
use crate::ckpt::{CkptError, PrimCheckpoint};
use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_geo::{DistanceBins, GridIndex, Location};
use prim_graph::PoiId;
use prim_tensor::Matrix;

/// Immutable, query-ready snapshot of a trained PRIM model.
#[derive(Clone)]
pub struct EmbeddingStore {
    /// `n_pois × dim` final POI embeddings (`h_final`).
    pub pois: Matrix,
    /// `(n_relations + 1) × dim` relation scoring embeddings (φ last).
    pub relations: Matrix,
    /// `n_bins × dim` unit-normalised hyperplane normals.
    pub bin_normals: Matrix,
    /// Relation vocabulary, index order matching relation ids.
    pub relation_names: Vec<String>,
    /// POI coordinates in id order.
    pub locations: Vec<Location>,
    /// Distance bins, bit-identical to the training configuration's.
    pub bins: DistanceBins,
    /// Whether scores use the distance-specific hyperplane projection.
    pub use_distance_scoring: bool,
    /// Spatial index over `locations` for radius candidate generation.
    pub grid: GridIndex,
    /// ANN index over `pois` for approximate top-k candidate generation
    /// (`None` = exact-only store; the engine scores every spatial
    /// candidate through the brute-force path).
    pub ann: Option<AnnIndex>,
}

impl EmbeddingStore {
    /// Materialises the store from a trained model. The single
    /// [`PrimModel::embed`] call here is the last time the tape runs;
    /// its output is bitwise the table that `score_pair_eager` reads.
    pub fn from_model(
        model: &PrimModel,
        inputs: &ModelInputs,
        relation_names: Vec<String>,
    ) -> Self {
        let seed = model.config().seed;
        let mut store = Self::from_model_unindexed(model, inputs, relation_names);
        store.build_ann(AnnParams {
            seed,
            ..AnnParams::default()
        });
        store
    }

    /// [`Self::from_model`] without the ANN construction — the exact-only
    /// store the parity oracle uses, and the embed half of
    /// [`crate::save_checkpoint`].
    pub fn from_model_unindexed(
        model: &PrimModel,
        inputs: &ModelInputs,
        relation_names: Vec<String>,
    ) -> Self {
        let cfg: &PrimConfig = model.config();
        assert_eq!(
            relation_names.len(),
            model.phi(),
            "one name per relation (φ is implicit)"
        );
        let table = model.embed(inputs);
        let locations = inputs.locations().to_vec();
        let grid = GridIndex::build(&locations, cfg.spatial_radius_km.max(0.1));
        EmbeddingStore {
            pois: table.pois,
            relations: table.relations,
            bin_normals: table.bin_normals,
            relation_names,
            locations,
            bins: cfg.bins.clone(),
            use_distance_scoring: cfg.use_distance_scoring,
            grid,
            ann: None,
        }
    }

    /// Materialises a serving store straight from a decoded checkpoint.
    /// `prim_serve` start-up and hot `reload` load through it (and ingest
    /// opens through its two branches), so the ANN index can never be
    /// stale relative to the store it is swapped in with. Two branches:
    ///
    /// * **adopt** ([`EmbeddingStore::adopted`]) when the checkpoint
    ///   carries a current served section: its tables and HNSW graph, no
    ///   forward pass and no index build;
    /// * **recompute** ([`EmbeddingStore::recomputed`]) otherwise
    ///   (training checkpoints, files from before the section, stale
    ///   fingerprints): rebuild the model, embed once, build the index.
    ///   This is the oracle the adopted tables are held bitwise equal to.
    pub fn from_checkpoint(ckpt: &PrimCheckpoint) -> Result<Self, CkptError> {
        if let Some(store) = Self::adopted(ckpt) {
            return Ok(store);
        }
        let (model, inputs) = ckpt.rebuild()?;
        Ok(Self::recomputed(ckpt, &model, &inputs))
    }

    /// The adopt branch of [`EmbeddingStore::from_checkpoint`]: the
    /// checkpoint's served tables and graph, the quantized tier encoded
    /// from the POI table, and the serving grid. `None` when the
    /// checkpoint carries no (current) served section.
    pub fn adopted(ckpt: &PrimCheckpoint) -> Option<Self> {
        let served = ckpt.served.as_ref()?;
        let locations: Vec<Location> = ckpt.graph.pois().iter().map(|p| p.location).collect();
        Some(EmbeddingStore {
            pois: served.pois.clone(),
            relations: served.relations.clone(),
            bin_normals: served.bin_normals.clone(),
            relation_names: ckpt.relation_names.clone(),
            grid: ckpt.serving_grid(&locations),
            locations,
            bins: ckpt.config.bins.clone(),
            use_distance_scoring: ckpt.config.use_distance_scoring,
            ann: Some(AnnIndex::from_graph(served.ann.clone(), &served.pois)),
        })
    }

    /// The recompute branch of [`EmbeddingStore::from_checkpoint`], for a
    /// caller that already holds the checkpoint's model and inputs
    /// (`ckpt.rebuild()`, or a restored model and `ckpt.build_inputs()`):
    /// embed once, build the index with the config seed, and serve from
    /// the checkpoint's grid.
    pub fn recomputed(ckpt: &PrimCheckpoint, model: &PrimModel, inputs: &ModelInputs) -> Self {
        let mut store = Self::from_model(model, inputs, ckpt.relation_names.clone());
        if ckpt.ingest_state.is_some() {
            store.grid = ckpt.serving_grid(&store.locations);
        }
        store
    }

    /// (Re)builds the ANN index over the current embedding table.
    pub fn build_ann(&mut self, params: AnnParams) {
        self.ann = Some(AnnIndex::build(&self.pois, params));
    }

    /// A fresh store for an ingest publish: scalar tables (relations, bin
    /// normals, names, bins) are shared with `self` bitwise, while the POI
    /// tables are replaced by the mutated `pois`/`locations`/`grid` and the
    /// ANN tier is brought up to date incrementally ([`AnnIndex::extended`]
    /// — sealed graph kept, quant rows in `touched` restaged, new rows
    /// appended). `touched` must not include appended rows.
    pub fn published(
        &self,
        pois: Matrix,
        locations: Vec<Location>,
        grid: GridIndex,
        touched: &[usize],
    ) -> EmbeddingStore {
        assert_eq!(pois.rows(), locations.len(), "one location per POI row");
        assert_eq!(grid.len(), locations.len(), "grid must cover every POI");
        assert_eq!(pois.cols(), self.dim(), "embedding width is fixed");
        let ann = self
            .ann
            .as_ref()
            .map(|index| index.extended(&pois, touched));
        EmbeddingStore {
            pois,
            relations: self.relations.clone(),
            bin_normals: self.bin_normals.clone(),
            relation_names: self.relation_names.clone(),
            locations,
            bins: self.bins.clone(),
            use_distance_scoring: self.use_distance_scoring,
            grid,
            ann,
        }
    }

    /// Number of POIs.
    pub fn n_pois(&self) -> usize {
        self.pois.rows()
    }

    /// Number of real relations (φ excluded).
    pub fn n_relations(&self) -> usize {
        self.relations.rows() - 1
    }

    /// Index of the no-relation class φ (always the last relation row).
    pub fn phi(&self) -> usize {
        self.n_relations()
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.pois.cols()
    }

    /// Distance bin of a pair — same computation as
    /// [`ModelInputs::pair_bin`], reproduced from the snapshotted
    /// coordinates and bin edges.
    pub fn pair_bin(&self, a: PoiId, b: PoiId) -> usize {
        let d = self.locations[a.0 as usize].equirect_km(&self.locations[b.0 as usize]);
        self.bins.bin(d)
    }

    /// Relation id for a name, if it is in the vocabulary. `"phi"` and
    /// `"none"` map to the no-relation class.
    pub fn relation_index(&self, name: &str) -> Option<usize> {
        if name == "phi" || name == "none" {
            return Some(self.phi());
        }
        self.relation_names.iter().position(|n| n == name)
    }

    /// Name for a relation id (φ reads back as `"phi"`).
    pub fn relation_name(&self, rel: usize) -> &str {
        if rel == self.phi() {
            "phi"
        } else {
            &self.relation_names[rel]
        }
    }

    /// Spatial candidates within `radius_km` of a POI, nearest first with
    /// deterministic `(distance, index)` ordering.
    pub fn within_radius(&self, poi: PoiId, radius_km: f64) -> Vec<(usize, f64)> {
        self.grid.within_radius(poi.0 as usize, radius_km)
    }
}
