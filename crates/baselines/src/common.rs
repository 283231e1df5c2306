//! Shared scaffolding for all learned baselines.
//!
//! Every GNN baseline implements [`PairModel`]; a single generic trainer
//! ([`train_pair_model`]) and predictor ([`predict_pairs`]) then apply the
//! *same* objective PRIM uses (BCE with ω negatives, cross-relation
//! negatives and φ handling), which is what makes the Table 2 comparison
//! apples-to-apples.

use prim_core::{EpochSampler, ModelInputs};
use prim_graph::{Edge, HeteroGraph, PoiId};
use prim_nn::{Adam, Binding, ParamId, ParamStore};
use prim_obs::{Counter, EpochRecord, Phase, Telemetry, TrainAbort};
use prim_tensor::{Graph, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Hyper-parameters shared by every learned baseline.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Node embedding width.
    pub dim: usize,
    /// GNN layers (paper: 3 for all GNN methods).
    pub n_layers: usize,
    /// Attention heads where applicable (GAT, HAN, HGT).
    pub n_heads: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Training epochs (full-batch).
    pub epochs: usize,
    /// Negative samples per positive, ω.
    pub omega: usize,
    /// Validate every this many epochs, keeping the best checkpoint.
    pub val_check_every: usize,
    /// Gradient clip (global norm).
    pub grad_clip: f32,
    /// Geographic sectors for DeepR.
    pub n_sectors: usize,
    /// Add free per-POI embeddings to the initial features (off by default,
    /// mirroring [`prim_core::PrimConfig::use_node_embeddings`]).
    pub use_node_embeddings: bool,
    /// Parameter/sampling seed.
    pub seed: u64,
}

impl BaselineConfig {
    /// Laptop-scale defaults aligned with [`prim_core::PrimConfig::quick`].
    pub fn quick() -> Self {
        BaselineConfig {
            dim: 24,
            n_layers: 2,
            n_heads: 2,
            lr: 0.01,
            weight_decay: 5e-4,
            epochs: 120,
            omega: 5,
            val_check_every: 10,
            grad_clip: 5.0,
            n_sectors: 2,
            use_node_embeddings: false,
            seed: 17,
        }
    }

    /// Paper-faithful sizes.
    pub fn paper() -> Self {
        BaselineConfig {
            dim: 128,
            n_layers: 3,
            n_heads: 4,
            lr: 0.001,
            epochs: 200,
            n_sectors: 4,
            ..Self::quick()
        }
    }
}

/// A learned model that scores `(p_i, r, p_j)` triples on the tape.
pub trait PairModel {
    /// Tape handles produced by the forward pass.
    type Fwd;

    /// Display name.
    fn name(&self) -> &'static str;

    /// The parameter store.
    fn store(&self) -> &ParamStore;

    /// Mutable parameter store (for the optimiser).
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Shared hyper-parameters.
    fn config(&self) -> &BaselineConfig;

    /// Number of relation types (excluding φ).
    fn n_relations(&self) -> usize;

    /// Encodes the graph.
    fn forward(&self, g: &mut Graph, bind: &Binding, inputs: &ModelInputs) -> Self::Fwd;

    /// Scores triples, returning `n × 1` logits. `rel` entries equal to
    /// [`PairModel::n_relations`] denote φ.
    fn score(
        &self,
        g: &mut Graph,
        bind: &Binding,
        fwd: &Self::Fwd,
        src: &[usize],
        rel: &[usize],
        dst: &[usize],
    ) -> Var;
}

/// Initial node features shared by all GNN baselines:
/// `h⁰ = attrs·W_in + E_cat[category]` — attribute projection plus an
/// independently learned leaf-category embedding (no taxonomy structure;
/// that is PRIM's contribution).
pub struct InitialFeatures {
    /// Attribute projection.
    pub w_in: ParamId,
    /// Leaf-category embedding table.
    pub cat_table: ParamId,
    /// Free per-POI embeddings (transductive structure carrier).
    pub node_emb: ParamId,
}

impl InitialFeatures {
    /// Registers the parameters.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        attr_dim: usize,
        n_categories: usize,
        n_pois: usize,
        dim: usize,
    ) -> Self {
        InitialFeatures {
            w_in: store.add("w_in", prim_nn::init::xavier_uniform(rng, attr_dim, dim)),
            cat_table: store.add_no_decay(
                "cat_table",
                prim_nn::init::embedding(rng, n_categories, dim),
            ),
            node_emb: store.add_no_decay("node_emb", prim_nn::init::embedding(rng, n_pois, dim)),
        }
    }

    /// Builds `h⁰` on the tape.
    pub fn features(
        &self,
        g: &mut Graph,
        bind: &Binding,
        inputs: &ModelInputs,
        use_node_embeddings: bool,
    ) -> Var {
        let attrs = g.constant_ref(&inputs.attrs);
        let proj = g.matmul(attrs, bind.var(self.w_in));
        let cat = g.gather_rows_planned(bind.var(self.cat_table), &inputs.plans.leaf_gather);
        let with_cat = g.add(proj, cat);
        if use_node_embeddings {
            g.add(with_cat, bind.var(self.node_emb))
        } else {
            with_cat
        }
    }
}

/// DistMult scoring with a relation table whose last row is φ.
pub fn distmult_score(
    g: &mut Graph,
    h: Var,
    rel_table: Var,
    src: &[usize],
    rel: &[usize],
    dst: &[usize],
) -> Var {
    let h_src = g.gather_rows(h, src);
    let h_dst = g.gather_rows(h, dst);
    let hr = g.gather_rows(rel_table, rel);
    let lhs = g.mul(h_src, hr);
    g.rows_dot(lhs, h_dst)
}

/// Per-relation directed-edge index lists over an adjacency (edge positions,
/// not POI ids), used by encoders that treat each relation separately.
pub fn edges_by_relation(inputs: &ModelInputs) -> Vec<Vec<usize>> {
    let mut by_rel = vec![Vec::new(); inputs.n_relations];
    for (k, &r) in inputs.adjacency.rel().iter().enumerate() {
        by_rel[r as usize].push(k);
    }
    by_rel
}

/// Mean-normalisation coefficients per directed edge within its
/// `(dst, rel)` segment (`α = 1/|N^r_i|`).
pub fn segment_mean_coeffs(inputs: &ModelInputs) -> Vec<f32> {
    let seg = inputs.adjacency.intra_segment();
    let mut counts = vec![0usize; inputs.adjacency.num_segments()];
    for &s in seg {
        counts[s] += 1;
    }
    seg.iter().map(|&s| 1.0 / counts[s].max(1) as f32).collect()
}

/// Training report for baselines.
#[derive(Clone, Debug)]
pub struct BaselineReport {
    /// Per-epoch losses.
    pub losses: Vec<f32>,
    /// Wall-clock seconds per epoch.
    pub epoch_seconds: Vec<f64>,
    /// Best validation accuracy (if validation ran).
    pub best_val_accuracy: Option<f64>,
}

impl BaselineReport {
    /// Mean seconds per epoch.
    pub fn mean_epoch_seconds(&self) -> f64 {
        if self.epoch_seconds.is_empty() {
            0.0
        } else {
            self.epoch_seconds.iter().sum::<f64>() / self.epoch_seconds.len() as f64
        }
    }
}

/// Predicts the argmax relation in `R* = R ∪ {φ}` for each pair.
pub fn predict_pairs<M: PairModel>(
    model: &M,
    inputs: &ModelInputs,
    pairs: &[(PoiId, PoiId)],
) -> Vec<usize> {
    if pairs.is_empty() {
        return Vec::new();
    }
    let mut g = Graph::new();
    let bind = model.store().bind(&mut g);
    let fwd = model.forward(&mut g, &bind, inputs);
    let src: Vec<usize> = pairs.iter().map(|p| p.0 .0 as usize).collect();
    let dst: Vec<usize> = pairs.iter().map(|p| p.1 .0 as usize).collect();
    let n = pairs.len();
    let phi = model.n_relations();
    let mut best = vec![0usize; n];
    let mut best_score = vec![f32::NEG_INFINITY; n];
    for r in 0..=phi {
        let rel = vec![r; n];
        let logits = model.score(&mut g, &bind, &fwd, &src, &rel, &dst);
        let vals = g.value(logits);
        for i in 0..n {
            let s = vals[(i, 0)];
            if s > best_score[i] {
                best_score[i] = s;
                best[i] = r;
            }
        }
    }
    best
}

fn val_accuracy<M: PairModel>(
    model: &M,
    inputs: &ModelInputs,
    pairs: &[(PoiId, PoiId)],
    expected: &[usize],
) -> f64 {
    let preds = predict_pairs(model, inputs, pairs);
    let hits = preds
        .iter()
        .zip(expected.iter())
        .filter(|(p, e)| p == e)
        .count();
    hits as f64 / pairs.len().max(1) as f64
}

/// Trains any [`PairModel`] with the shared objective; mirrors
/// [`prim_core::fit`] minus the distance-specific machinery.
///
/// Telemetry comes from the environment (`PRIM_RUN_REPORT`,
/// `PRIM_GUARD_EVERY`), exactly as in [`prim_core::fit`].
///
/// # Panics
/// Panics when the environment-enabled finite guard aborts training. Use
/// [`train_pair_model_observed`] to handle [`TrainAbort`] as a value.
pub fn train_pair_model<M: PairModel>(
    model: &mut M,
    inputs: &ModelInputs,
    graph: &HeteroGraph,
    train_edges: &[Edge],
    visible: Option<&HashSet<PoiId>>,
    val_edges: Option<&[Edge]>,
) -> BaselineReport {
    let telemetry = Telemetry::from_env(model.name());
    let result = train_pair_model_observed(
        model,
        inputs,
        graph,
        train_edges,
        visible,
        val_edges,
        &telemetry,
    );
    telemetry.recorder.finish();
    match result {
        Ok(report) => report,
        Err(abort) => panic!("{abort}"),
    }
}

/// [`train_pair_model`] with explicit telemetry; guard aborts surface as
/// `Err`. The recorder is *not* finished — the caller flushes the report.
#[allow(clippy::too_many_arguments)] // full training context, flattened
pub fn train_pair_model_observed<M: PairModel>(
    model: &mut M,
    inputs: &ModelInputs,
    graph: &HeteroGraph,
    train_edges: &[Edge],
    visible: Option<&HashSet<PoiId>>,
    val_edges: Option<&[Edge]>,
    telemetry: &Telemetry,
) -> Result<BaselineReport, TrainAbort> {
    let cfg = model.config().clone();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xBA5E));
    let mut adam = Adam::new(cfg.lr)
        .with_weight_decay(cfg.weight_decay)
        .with_recorder(telemetry.recorder.clone());
    let sampler = EpochSampler::new(
        graph,
        train_edges,
        inputs.n_pois,
        inputs.n_relations,
        cfg.omega,
        visible,
    );
    let phi = model.n_relations();

    // Validation set: held-out edges plus φ pairs.
    let val = val_edges
        .filter(|v| !v.is_empty() && cfg.val_check_every > 0)
        .map(|v| {
            let mut pairs: Vec<(PoiId, PoiId)> = v.iter().map(|e| (e.src, e.dst)).collect();
            let mut expected: Vec<usize> = v.iter().map(|e| e.rel.0 as usize).collect();
            for (a, b) in prim_graph::sample_non_relation_pairs(graph, v.len(), &mut rng) {
                pairs.push((a, b));
                expected.push(phi);
            }
            (pairs, expected)
        });
    let mut best_val = f64::NEG_INFINITY;
    let mut best_snapshot = None;

    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut epoch_seconds = Vec::with_capacity(cfg.epochs);
    // One tape for the whole run; `reset()` keeps its buffers pooled so
    // steady-state epochs rebuild the tape without allocating.
    let mut g = Graph::new();
    let recorder = &telemetry.recorder;
    for epoch in 0..cfg.epochs {
        let t0 = std::time::Instant::now();
        let sample_t = recorder.phase(Phase::Sampling);
        let triples = sampler.sample(&mut rng);
        drop(sample_t);

        g.reset();
        let fwd_t = recorder.phase(Phase::Forward);
        let bind = model.store().bind(&mut g);
        let fwd = model.forward(&mut g, &bind, inputs);
        let logits = model.score(
            &mut g,
            &bind,
            &fwd,
            &triples.src,
            &triples.rel,
            &triples.dst,
        );
        let loss = g.bce_with_logits(logits, &triples.labels);
        let loss_val = g.value(loss).scalar();
        losses.push(loss_val);
        drop(fwd_t);
        let bwd_t = recorder.phase(Phase::Backward);
        let grads = g.backward(loss);
        model.store_mut().accumulate(&bind, &grads);
        g.recycle(grads);
        drop(bwd_t);
        // Full-batch training: one step per epoch, so the global step is
        // the epoch index. Gradients are checked before the loss so aborts
        // name a parameter group.
        if telemetry.guard.due(epoch as u64) {
            recorder.add(Counter::GuardChecks, 1);
            for (name, grad) in model.store().iter_grads() {
                telemetry
                    .guard
                    .check_gradient(epoch, epoch as u64, name, grad)?;
            }
            telemetry.guard.check_loss(epoch, epoch as u64, loss_val)?;
        }
        let norms = recorder
            .is_enabled()
            .then(|| (model.store().grad_norm(), model.store().param_grad_norms()));
        let opt_t = recorder.phase(Phase::Optimizer);
        model.store_mut().clip_grad_norm(cfg.grad_clip);
        adam.step(model.store_mut());
        drop(opt_t);
        recorder.add(Counter::Steps, 1);
        recorder.add(Counter::TriplesSeen, triples.labels.len() as u64);
        epoch_seconds.push(t0.elapsed().as_secs_f64());
        if let Some((grad_norm, per_param)) = norms {
            let mut record = EpochRecord::new(epoch, loss_val, grad_norm, adam.lr());
            record.param_grad_norms = per_param;
            record.pooled_buffers = g.pooled_buffers();
            recorder.record_epoch(record);
        }

        if let Some((pairs, expected)) = &val {
            if (epoch + 1) % cfg.val_check_every == 0 || epoch + 1 == cfg.epochs {
                let _eval_t = recorder.phase(Phase::Eval);
                recorder.add(Counter::ValChecks, 1);
                let acc = val_accuracy(model, inputs, pairs, expected);
                if acc > best_val {
                    best_val = acc;
                    best_snapshot = Some(model.store().snapshot());
                }
            }
        }
    }
    if let Some(snapshot) = &best_snapshot {
        model.store_mut().restore(snapshot);
    }
    Ok(BaselineReport {
        losses,
        epoch_seconds,
        best_val_accuracy: val.map(|_| best_val),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prim_core::PrimConfig;
    use prim_data::{Dataset, Scale};
    use prim_nn::init;

    /// A minimal PairModel: frozen random features + DistMult.
    struct Dummy {
        store: ParamStore,
        cfg: BaselineConfig,
        feats: InitialFeatures,
        rel_table: ParamId,
        n_relations: usize,
    }

    impl PairModel for Dummy {
        type Fwd = (Var, Var);
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn store(&self) -> &ParamStore {
            &self.store
        }
        fn store_mut(&mut self) -> &mut ParamStore {
            &mut self.store
        }
        fn config(&self) -> &BaselineConfig {
            &self.cfg
        }
        fn n_relations(&self) -> usize {
            self.n_relations
        }
        fn forward(&self, g: &mut Graph, bind: &Binding, inputs: &ModelInputs) -> Self::Fwd {
            let h = self
                .feats
                .features(g, bind, inputs, self.cfg.use_node_embeddings);
            (h, bind.var(self.rel_table))
        }
        fn score(
            &self,
            g: &mut Graph,
            bind: &Binding,
            fwd: &Self::Fwd,
            src: &[usize],
            rel: &[usize],
            dst: &[usize],
        ) -> Var {
            let _ = bind;
            distmult_score(g, fwd.0, fwd.1, src, rel, dst)
        }
    }

    fn dummy(inputs: &ModelInputs) -> Dummy {
        let cfg = BaselineConfig {
            epochs: 30,
            dim: 12,
            ..BaselineConfig::quick()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let feats = InitialFeatures::new(
            &mut store,
            &mut rng,
            inputs.attr_dim(),
            inputs.n_categories,
            inputs.n_pois,
            cfg.dim,
        );
        let rel_table = store.add(
            "rel",
            init::embedding(&mut rng, inputs.n_relations + 1, cfg.dim),
        );
        Dummy {
            store,
            cfg,
            feats,
            rel_table,
            n_relations: inputs.n_relations,
        }
    }

    fn small_inputs() -> (Dataset, ModelInputs) {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.2, 8);
        let cfg = PrimConfig::quick();
        let inputs = ModelInputs::build(
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            ds.graph.edges(),
            None,
            &cfg,
        );
        (ds, inputs)
    }

    #[test]
    fn generic_trainer_reduces_loss() {
        let (ds, inputs) = small_inputs();
        let mut model = dummy(&inputs);
        let report = train_pair_model(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);
        assert_eq!(report.losses.len(), 30);
        assert!(
            report.losses[29] < report.losses[0] * 0.9,
            "{:?}",
            &report.losses[..3]
        );
    }

    #[test]
    fn predictions_in_range() {
        let (ds, inputs) = small_inputs();
        let model = dummy(&inputs);
        let pairs = vec![(PoiId(0), PoiId(1)), (PoiId(1), PoiId(2))];
        let preds = predict_pairs(&model, &inputs, &pairs);
        assert!(preds.iter().all(|&p| p <= inputs.n_relations));
        let _ = ds;
    }

    #[test]
    fn segment_mean_coeffs_sum_to_one_per_segment() {
        let (_, inputs) = small_inputs();
        let coeffs = segment_mean_coeffs(&inputs);
        let mut sums = vec![0.0f32; inputs.adjacency.num_segments()];
        for (k, &s) in inputs.adjacency.intra_segment().iter().enumerate() {
            sums[s] += coeffs[k];
        }
        for s in sums {
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn edges_by_relation_partition() {
        let (_, inputs) = small_inputs();
        let by_rel = edges_by_relation(&inputs);
        let total: usize = by_rel.iter().map(|v| v.len()).sum();
        assert_eq!(total, inputs.adjacency.num_directed_edges());
        for (r, edges) in by_rel.iter().enumerate() {
            for &k in edges {
                assert_eq!(inputs.adjacency.rel()[k] as usize, r);
            }
        }
    }
}
