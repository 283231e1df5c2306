//! # prim-graph
//!
//! Graph substrate for the PRIM reproduction:
//!
//! * [`taxonomy::Taxonomy`] — the category taxonomy tree (Definition 3.2)
//!   with root paths and path distances;
//! * [`hetero::HeteroGraph`] — the heterogeneous POI relationship graph
//!   (Definition 3.3) and its per-`(target, relation)` CSR
//!   [`hetero::Adjacency`] used by every GNN model, plus the
//!   [`hetero::EdgeIncidence`] lists a mutating city keeps beside it;
//! * [`spatial::SpatialNeighbors`] — materialised spatial neighbour lists
//!   (Definition 3.1) with RBF weights for the spatial context extractor;
//! * [`split`] — transductive, inductive and sparse evaluation splits;
//! * [`sampling`] — negative-sampled triples and non-relation (φ) pairs.

pub mod hetero;
pub mod sampling;
pub mod spatial;
pub mod split;
pub mod taxonomy;

pub use hetero::{
    Adjacency, Edge, EdgeIncidence, EdgeKeySet, HeteroGraph, PairKeySet, Poi, PoiId, RelationId,
};
pub use sampling::{
    negative_sampled_triples, sample_non_relation_pairs, sample_pairs_outside, Triple,
};
pub use spatial::SpatialNeighbors;
pub use split::{inductive_split, sparse_subset, split_edges, EdgeSplit, InductiveSplit};
pub use taxonomy::{CategoryId, Taxonomy, TaxonomyNodeId};
