//! # prim-core
//!
//! The PRIM model — *Points-of-Interest Relationship Inference with
//! Spatial-enriched Graph Neural Networks* (VLDB 2021) — implemented from
//! scratch on the [`prim_tensor`] autodiff engine.
//!
//! The model's four components (paper Section 4) live in [`model`]:
//! a weighted relational GNN with spatial-aware multi-head attention,
//! category-taxonomy integration, a self-attentive spatial context
//! extractor, and a distance-specific DistMult scoring function with the
//! non-relation type φ competing in the argmax.
//!
//! ## Quick start
//!
//! ```no_run
//! use prim_core::{fit, ModelInputs, PrimConfig, PrimModel};
//! use prim_data::{Dataset, Scale};
//!
//! let ds = Dataset::beijing(Scale::Quick);
//! let cfg = PrimConfig::quick();
//! let inputs = ModelInputs::build(
//!     &ds.graph, &ds.taxonomy, &ds.attrs, ds.graph.edges(), None, &cfg);
//! let mut model = PrimModel::new(cfg, &inputs);
//! let report = fit(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);
//! println!("final loss {:.4}", report.final_loss());
//! let table = model.embed(&inputs);
//! ```
//! (The example uses `prim-data` for illustration; `prim-core` itself only
//! needs a [`prim_graph::HeteroGraph`], taxonomy and attribute matrix.)

pub mod config;
pub mod inputs;
pub mod model;
pub mod train;

pub use config::{GammaOp, PrimConfig, TaxonomyMode, Variant};
pub use inputs::{GraphPlans, ModelInputs, SubsetInputs};
pub use model::{EmbeddingTable, ForwardOutput, ModelDims, PrimModel, TripleBatch};
pub use train::{
    fit, fit_hooked, fit_observed, fit_resumed, train_step, train_step_observed, EpochSampler,
    EpochTriples, FitCkptView, FitHook, NoopHook, ResumeState, StepNorms, StepStats, TrainReport,
};
// Telemetry types callers of `fit_observed` need, re-exported for one-stop
// imports (the canonical home is `prim_obs`).
pub use prim_obs::{AbortKind, FiniteGuard, Recorder, Telemetry, TrainAbort};
