//! Training loop (paper Section 4.6).
//!
//! Each epoch: draw fresh negative samples (ω per positive, plus one
//! cross-relation negative per positive so relation types compete), add
//! non-relation (φ) positives and φ negatives, run one full-batch
//! forward/backward pass and an Adam step with decoupled weight decay.
//! Full-batch training replaces the paper's 512-sized mini-batches — with a
//! CPU autodiff engine one fused pass per epoch is dramatically faster than
//! re-running the GNN encoder per mini-batch and converges to the same
//! objective. When validation edges are provided, the best checkpoint by
//! validation accuracy is restored at the end (the paper tunes on a 10%
//! validation split).

//!
//! The loop is instrumented through [`prim_obs`]: [`fit_observed`] /
//! [`train_step_observed`] accept a [`Telemetry`] bundle (phase timers,
//! per-epoch records, NaN/Inf guard), while the plain [`fit`] / [`train_step`]
//! wrappers read it from the environment (`PRIM_RUN_REPORT`,
//! `PRIM_GUARD_EVERY`) and stay allocation-free when both are unset.

use crate::inputs::ModelInputs;
use crate::model::{PrimModel, TripleBatch};
use prim_graph::{
    negative_sampled_triples, sample_non_relation_pairs, sample_pairs_outside, Edge, EdgeKeySet,
    HeteroGraph, PairKeySet, PoiId,
};
use prim_nn::{Adam, AdamState};
use prim_obs::{Counter, EpochRecord, Phase, Telemetry, TrainAbort};
use prim_tensor::{kernel, pool, Graph, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

/// Statistics from one training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub losses: Vec<f32>,
    /// Wall-clock seconds per epoch.
    pub epoch_seconds: Vec<f64>,
    /// Total training seconds.
    pub total_seconds: f64,
    /// Best validation accuracy seen (if validation was enabled).
    pub best_val_accuracy: Option<f64>,
}

impl TrainReport {
    /// Mean seconds per epoch.
    pub fn mean_epoch_seconds(&self) -> f64 {
        if self.epoch_seconds.is_empty() {
            0.0
        } else {
            self.epoch_seconds.iter().sum::<f64>() / self.epoch_seconds.len() as f64
        }
    }

    /// Final training loss.
    pub fn final_loss(&self) -> f32 {
        self.losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// One epoch's labelled training triples, shared by PRIM and every GNN
/// baseline so all methods see the exact same training signal: positives,
/// ω corrupted negatives, one cross-relation negative per positive, φ
/// positives (non-relation pairs) and φ negatives (true edges under φ).
pub struct EpochTriples {
    /// Source POI id per triple.
    pub src: Vec<usize>,
    /// Relation id per triple (`phi` = non-relation).
    pub rel: Vec<usize>,
    /// Destination POI id per triple.
    pub dst: Vec<usize>,
    /// Binary label per triple.
    pub labels: Vec<f32>,
}

/// Draws each epoch's [`EpochTriples`] for one fit. The graph's edge-key
/// and connected-pair sets are built once here, not per epoch.
pub struct EpochSampler<'a> {
    train_edges: &'a [Edge],
    n_pois: usize,
    n_relations: usize,
    omega: usize,
    visible: Option<&'a HashSet<PoiId>>,
    graph_pois: usize,
    known: EdgeKeySet,
    connected: PairKeySet,
}

impl<'a> EpochSampler<'a> {
    /// A sampler over `train_edges`: corruptions draw from the first
    /// `n_pois` POIs and avoid `graph`'s edges, φ pairs avoid every
    /// connected pair of `graph`, and with `visible` set only pairs of
    /// visible POIs become φ positives.
    pub fn new(
        graph: &HeteroGraph,
        train_edges: &'a [Edge],
        n_pois: usize,
        n_relations: usize,
        omega: usize,
        visible: Option<&'a HashSet<PoiId>>,
    ) -> Self {
        EpochSampler {
            train_edges,
            n_pois,
            n_relations,
            omega,
            visible,
            graph_pois: graph.num_pois(),
            known: graph.edge_key_set(),
            connected: graph.pair_key_set(),
        }
    }

    /// Samples one epoch of training triples (see [`EpochTriples`]).
    pub fn sample(&self, rng: &mut StdRng) -> EpochTriples {
        let (train_edges, n_relations) = (self.train_edges, self.n_relations);
        let phi = n_relations;
        let n_phi = (train_edges.len() / n_relations.max(1)).max(1);
        let triples =
            negative_sampled_triples(train_edges, self.omega, self.n_pois, &self.known, rng);
        let mut phi_pos = sample_pairs_outside(&self.connected, self.graph_pois, n_phi * 2, rng);
        if let Some(vis) = self.visible {
            phi_pos.retain(|(a, b)| vis.contains(a) && vis.contains(b));
        }
        phi_pos.truncate(n_phi);
        let phi_neg_stride = (train_edges.len() / n_phi.max(1)).max(1);

        let capacity = triples.len() + n_phi * 2 + train_edges.len();
        let mut out = EpochTriples {
            src: Vec::with_capacity(capacity),
            rel: Vec::with_capacity(capacity),
            dst: Vec::with_capacity(capacity),
            labels: Vec::with_capacity(capacity),
        };
        let mut push = |a: PoiId, r: usize, b: PoiId, y: f32| {
            out.src.push(a.0 as usize);
            out.rel.push(r);
            out.dst.push(b.0 as usize);
            out.labels.push(y);
        };
        for t in &triples {
            push(t.src, t.rel.0 as usize, t.dst, t.label);
        }
        // Cross-relation negatives: a pair related by r must score low for
        // every other relation type (drives Macro-F1 class separation).
        if n_relations > 1 {
            for e in train_edges {
                let mut wrong = rng.gen_range(0..n_relations - 1);
                if wrong >= e.rel.0 as usize {
                    wrong += 1;
                }
                push(e.src, wrong, e.dst, 0.0);
            }
        }
        for &(a, b) in &phi_pos {
            push(a, phi, b, 1.0);
        }
        // φ negatives: actual relationships must NOT look like non-relations.
        for e in train_edges.iter().step_by(phi_neg_stride) {
            push(e.src, phi, e.dst, 0.0);
        }
        out
    }
}

/// One step's triples with their distance bins.
struct StepArrays {
    src: Vec<usize>,
    rel: Vec<usize>,
    dst: Vec<usize>,
    bins: Vec<usize>,
    labels: Vec<f32>,
}

impl StepArrays {
    /// Splits an epoch into steps of at most `batch` triples. With more
    /// than one step the epoch's order is first shuffled from `rng`, so each
    /// mini-batch is a random sample of the epoch rather than a slice of
    /// its sections (positives with their negatives, cross-relation
    /// negatives, φ positives, φ negatives). One step takes the arrays as
    /// they are and draws nothing.
    fn split(self, batch: usize, rng: &mut StdRng) -> Vec<StepArrays> {
        let n = self.labels.len();
        if n <= batch {
            return vec![self];
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        order
            .chunks(batch)
            .map(|idx| {
                let pick = |v: &[usize]| idx.iter().map(|&k| v[k as usize]).collect();
                StepArrays {
                    src: pick(&self.src),
                    rel: pick(&self.rel),
                    dst: pick(&self.dst),
                    bins: pick(&self.bins),
                    labels: idx.iter().map(|&k| self.labels[k as usize]).collect(),
                }
            })
            .collect()
    }
}

/// Validation set prepared once per run: held-out relation edges plus an
/// equal number of non-relation pairs expected to be classified φ.
struct ValSet {
    pairs: Vec<(PoiId, PoiId)>,
    expected: Vec<usize>,
}

impl ValSet {
    fn build(graph: &HeteroGraph, val_edges: &[Edge], phi: usize, rng: &mut StdRng) -> Self {
        let mut pairs = Vec::with_capacity(val_edges.len() * 2);
        let mut expected = Vec::with_capacity(val_edges.len() * 2);
        for e in val_edges {
            pairs.push((e.src, e.dst));
            expected.push(e.rel.0 as usize);
        }
        for (a, b) in sample_non_relation_pairs(graph, val_edges.len(), rng) {
            pairs.push((a, b));
            expected.push(phi);
        }
        ValSet { pairs, expected }
    }

    fn accuracy(&self, model: &PrimModel, inputs: &ModelInputs) -> f64 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        let table = model.embed(inputs);
        let preds = model.predict_pairs(&table, inputs, &self.pairs);
        let hits = preds
            .iter()
            .zip(self.expected.iter())
            .filter(|(p, e)| p == e)
            .count();
        hits as f64 / self.pairs.len() as f64
    }
}

/// Gradient norms sampled at one training step (telemetry-enabled runs).
#[derive(Clone, Debug)]
pub struct StepNorms {
    /// Global pre-clip gradient L2 norm.
    pub grad_norm: f32,
    /// Per-parameter-group gradient norms, in registration order.
    pub per_param: Vec<(String, f32)>,
}

/// Result of one observed training step.
#[derive(Clone, Debug)]
pub struct StepStats {
    /// The batch's mean BCE loss.
    pub loss: f32,
    /// Gradient norms — `Some` only when the recorder is enabled.
    pub norms: Option<StepNorms>,
}

/// Runs one full forward/backward/Adam step on a fixed triple batch.
///
/// The tape `g` is `reset()` first, so on every call after the first the
/// step reuses the pooled node-value and gradient buffers and performs
/// (nearly) zero heap allocations — the property the `micro_kernels` bench
/// measures with a counting allocator. Returns the batch's mean BCE loss.
pub fn train_step(
    model: &mut PrimModel,
    inputs: &ModelInputs,
    g: &mut Graph,
    adam: &mut Adam,
    batch: &TripleBatch,
    grad_clip: f32,
) -> f32 {
    // Disabled telemetry is allocation-free and branch-cheap, so this
    // wrapper preserves the steady-state allocation budget.
    match train_step_observed(
        model,
        inputs,
        g,
        adam,
        batch,
        grad_clip,
        &Telemetry::disabled(),
        0,
        0,
    ) {
        Ok(stats) => stats.loss,
        Err(abort) => unreachable!("disabled guard cannot abort: {abort}"),
    }
}

/// [`train_step`] with telemetry: phase timers around the forward, backward
/// and optimiser sections, gradient norms when the recorder is enabled, and
/// a NaN/Inf sweep (gradients first, then the loss, so aborts name a
/// parameter group) on guard-due steps. `epoch`/`step` label abort errors
/// and telemetry records.
#[allow(clippy::too_many_arguments)] // the hot-path step context, flattened
pub fn train_step_observed(
    model: &mut PrimModel,
    inputs: &ModelInputs,
    g: &mut Graph,
    adam: &mut Adam,
    batch: &TripleBatch,
    grad_clip: f32,
    telemetry: &Telemetry,
    epoch: usize,
    step: u64,
) -> Result<StepStats, TrainAbort> {
    let recorder = &telemetry.recorder;
    g.reset();
    // Pool snapshots bracket the phases so the recorder sees per-phase
    // worker utilization (share of job indices executed by pool workers
    // rather than the submitting thread).
    let step_pool = recorder.is_enabled().then(pool::stats);
    let fwd_t = recorder.phase(Phase::Forward);
    let bind = model.store.bind(g);
    let fwd = model.forward(g, &bind, inputs);
    // Scoring + BCE run batch-parallel off the tape; `backward_seeded`
    // resumes the reverse pass through the encoder from the seeds.
    let (loss_val, seeds) = model.scored_loss_parallel(g, &bind, &fwd, batch);
    drop(fwd_t);
    let after_fwd = step_pool.map(|prev| {
        let now = pool::stats();
        if let Some(share) = now.worker_share_since(&prev) {
            recorder.record_scalar("pool/forward_worker_share", share);
        }
        now
    });
    let bwd_t = recorder.phase(Phase::Backward);
    let grads = g.backward_seeded(seeds);
    model.store.accumulate(&bind, &grads);
    g.recycle(grads);
    drop(bwd_t);
    if let (Some(start), Some(prev)) = (step_pool, after_fwd) {
        let now = pool::stats();
        if let Some(share) = now.worker_share_since(&prev) {
            recorder.record_scalar("pool/backward_worker_share", share);
        }
        recorder.add(Counter::PoolParallelRuns, now.parallel_runs_since(&start));
        recorder.add(Counter::PoolInlineRuns, now.inline_runs_since(&start));
    }
    if telemetry.guard.due(step) {
        recorder.add(Counter::GuardChecks, 1);
        for (name, grad) in model.store.iter_grads() {
            telemetry.guard.check_gradient(epoch, step, name, grad)?;
        }
        telemetry.guard.check_loss(epoch, step, loss_val)?;
    }
    let norms = if recorder.is_enabled() {
        Some(StepNorms {
            grad_norm: model.store.grad_norm(),
            per_param: model.store.param_grad_norms(),
        })
    } else {
        None
    };
    {
        let _opt_t = recorder.phase(Phase::Optimizer);
        model.store.clip_grad_norm(grad_clip);
        adam.step(&mut model.store);
    }
    recorder.add(Counter::Steps, 1);
    recorder.add(Counter::TriplesSeen, batch.len() as u64);
    Ok(StepStats {
        loss: loss_val,
        norms,
    })
}

/// The training loop's mutable state at an epoch boundary. Feeding a
/// captured state back into [`fit_resumed`] continues the run
/// bitwise-identically to one that never stopped: same RNG stream, same
/// Adam bias correction and moments, same best-checkpoint bookkeeping.
///
/// Model parameters are *not* part of this struct — the caller persists
/// them alongside (the `prim-serve` checkpoint container stores both).
#[derive(Clone)]
pub struct ResumeState {
    /// First epoch the resumed run executes (= epochs already completed).
    pub next_epoch: usize,
    /// Optimisation steps taken so far (guard cadence + abort labels).
    pub global_step: u64,
    /// RNG state captured *after* the completed epoch's draws.
    pub rng: [u64; 4],
    /// Adam step counter, learning rate and moment buffers.
    pub adam: AdamState,
    /// Mean loss of every completed epoch.
    pub losses: Vec<f32>,
    /// Best validation accuracy seen, when validation ran.
    pub best_val: Option<f64>,
    /// Parameter snapshot at the best validation accuracy.
    pub best_snapshot: Option<Vec<Matrix>>,
}

/// A read-only view of the training loop handed to
/// [`FitHook::on_epoch_end`] after each completed epoch — everything a
/// checkpointer needs to persist a [`ResumeState`] plus the parameters.
pub struct FitCkptView<'a> {
    /// The epoch that just completed (0-based).
    pub epoch: usize,
    /// Optimisation steps taken so far.
    pub global_step: u64,
    /// Mean loss per completed epoch (index 0..=epoch).
    pub losses: &'a [f32],
    /// The model, post-update.
    pub model: &'a PrimModel,
    /// RNG state after this epoch's draws.
    pub rng: [u64; 4],
    /// The optimiser (export state via [`Adam::export_state`]).
    pub adam: &'a Adam,
    /// Best validation accuracy so far, when validation ran.
    pub best_val: Option<f64>,
    /// Parameter snapshot at the best validation accuracy.
    pub best_snapshot: Option<&'a [Matrix]>,
}

impl FitCkptView<'_> {
    /// Clones the view into an owned [`ResumeState`] resuming at the next
    /// epoch.
    pub fn resume_state(&self) -> ResumeState {
        ResumeState {
            next_epoch: self.epoch + 1,
            global_step: self.global_step,
            rng: self.rng,
            adam: self.adam.export_state(),
            losses: self.losses.to_vec(),
            best_val: self.best_val,
            best_snapshot: self.best_snapshot.map(|s| s.to_vec()),
        }
    }
}

/// Observer hooking into the epoch loop of [`fit_hooked`]. Used by tests to
/// perturb the model mid-training (e.g. the guard-rail poison test), by
/// callers that need per-epoch custom instrumentation, and by the
/// checkpointing layer in `prim-serve` (via [`FitHook::on_epoch_end`]).
pub trait FitHook {
    /// Called at the start of every epoch, before sampling.
    fn on_epoch_start(&mut self, epoch: usize, model: &mut PrimModel);

    /// Called after every completed epoch (post val-check) with a
    /// checkpointable view of the loop. Returning `Break` stops training
    /// at this epoch boundary — the checkpointing layer uses it to model
    /// a crash at an injected fault, and tests use it to kill a run
    /// mid-way. The default continues.
    fn on_epoch_end(&mut self, _view: &FitCkptView<'_>) -> std::ops::ControlFlow<()> {
        std::ops::ControlFlow::Continue(())
    }
}

/// The do-nothing hook.
pub struct NoopHook;

impl FitHook for NoopHook {
    fn on_epoch_start(&mut self, _epoch: usize, _model: &mut PrimModel) {}
}

impl<F: FnMut(usize, &mut PrimModel)> FitHook for F {
    fn on_epoch_start(&mut self, epoch: usize, model: &mut PrimModel) {
        self(epoch, model)
    }
}

/// Trains `model` on `train_edges` over `inputs`.
///
/// * `graph` supplies the global edge-key set for negative-sample rejection
///   and the φ pair sampler (it may contain val/test edges — they are then
///   correctly excluded from negatives).
/// * `visible` (if given) restricts φ pairs to visible POIs (inductive
///   protocol).
/// * `val_edges` (if given) enables best-checkpoint selection.
///
/// Telemetry comes from the environment: with `PRIM_RUN_REPORT` set the run
/// appends one report line on completion, and with `PRIM_GUARD_EVERY` ≥ 1 a
/// tripped NaN/Inf guard panics with the structured abort message. With both
/// unset (the default) this is exactly the un-instrumented loop.
///
/// # Panics
/// Panics when the environment-enabled finite guard aborts training. Use
/// [`fit_observed`] to handle [`TrainAbort`] as a value instead.
pub fn fit(
    model: &mut PrimModel,
    inputs: &ModelInputs,
    graph: &HeteroGraph,
    train_edges: &[Edge],
    visible: Option<&HashSet<PoiId>>,
    val_edges: Option<&[Edge]>,
) -> TrainReport {
    let telemetry = Telemetry::from_env("prim/fit");
    let result = fit_observed(
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

/// [`fit`] with explicit telemetry; the guard aborts surface as `Err`.
/// The recorder is *not* finished — the caller owns flushing the report.
pub fn fit_observed(
    model: &mut PrimModel,
    inputs: &ModelInputs,
    graph: &HeteroGraph,
    train_edges: &[Edge],
    visible: Option<&HashSet<PoiId>>,
    val_edges: Option<&[Edge]>,
    telemetry: &Telemetry,
) -> Result<TrainReport, TrainAbort> {
    fit_hooked(
        model,
        inputs,
        graph,
        train_edges,
        visible,
        val_edges,
        telemetry,
        &mut NoopHook,
    )
}

/// [`fit_observed`] with a per-epoch [`FitHook`].
#[allow(clippy::too_many_arguments)] // full training context, flattened
pub fn fit_hooked(
    model: &mut PrimModel,
    inputs: &ModelInputs,
    graph: &HeteroGraph,
    train_edges: &[Edge],
    visible: Option<&HashSet<PoiId>>,
    val_edges: Option<&[Edge]>,
    telemetry: &Telemetry,
    hook: &mut dyn FitHook,
) -> Result<TrainReport, TrainAbort> {
    fit_resumed(
        model,
        inputs,
        graph,
        train_edges,
        visible,
        val_edges,
        telemetry,
        hook,
        None,
    )
}

/// [`fit_hooked`] restarted from a captured [`ResumeState`].
///
/// With `resume = None` this is exactly [`fit_hooked`]. With a state, the
/// loop rebuilds the deterministic run prefix (validation set from the
/// seeded RNG), then overwrites the RNG/optimiser/bookkeeping with the
/// captured values and continues at `next_epoch` — producing bit-for-bit
/// the parameters, losses and epoch records of the uninterrupted run.
/// The caller must restore the model's parameters to the checkpointed
/// values *before* calling (they travel outside [`ResumeState`]).
#[allow(clippy::too_many_arguments)] // full training context, flattened
pub fn fit_resumed(
    model: &mut PrimModel,
    inputs: &ModelInputs,
    graph: &HeteroGraph,
    train_edges: &[Edge],
    visible: Option<&HashSet<PoiId>>,
    val_edges: Option<&[Edge]>,
    telemetry: &Telemetry,
    hook: &mut dyn FitHook,
    resume: Option<ResumeState>,
) -> Result<TrainReport, TrainAbort> {
    let cfg = model.config().clone();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x5EED));
    let mut adam = Adam::new(cfg.lr)
        .with_weight_decay(cfg.weight_decay)
        .with_recorder(telemetry.recorder.clone());
    if telemetry.recorder.is_enabled() {
        telemetry
            .recorder
            .set_meta("n_pois", prim_obs::json::int(inputs.n_pois as u64));
        telemetry.recorder.set_meta(
            "n_relations",
            prim_obs::json::int(inputs.n_relations as u64),
        );
        telemetry.recorder.set_meta(
            "num_parameters",
            prim_obs::json::int(model.num_parameters() as u64),
        );
    }
    let sampler = EpochSampler::new(
        graph,
        train_edges,
        inputs.n_pois,
        inputs.n_relations,
        cfg.omega,
        visible,
    );
    let phi = model.phi();

    let val = val_edges
        .filter(|v| !v.is_empty() && cfg.val_check_every > 0)
        .map(|v| ValSet::build(graph, v, phi, &mut rng));
    let mut best_val = f64::NEG_INFINITY;
    let mut best_snapshot = None;

    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut epoch_seconds = Vec::with_capacity(cfg.epochs);
    let mut global_step = 0u64;
    let mut start_epoch = 0usize;
    if let Some(state) = resume {
        // The ValSet above was rebuilt from the seeded RNG exactly as the
        // original run built it (same draws); only now does the captured
        // mid-run state take over.
        rng = StdRng::from_state(state.rng);
        adam.import_state(state.adam);
        global_step = state.global_step;
        start_epoch = state.next_epoch.min(cfg.epochs);
        losses = state.losses;
        best_val = state.best_val.unwrap_or(f64::NEG_INFINITY);
        best_snapshot = state.best_snapshot;
        telemetry.recorder.add(Counter::Resumes, 1);
        if telemetry.recorder.is_enabled() {
            telemetry.recorder.set_meta(
                "resumed_from_epoch",
                prim_obs::json::int(start_epoch as u64),
            );
        }
    }

    let start = Instant::now();
    // One tape for the whole run: `reset()` keeps every node-value and
    // gradient buffer in the graph's pool, so steady-state steps rebuild a
    // structurally identical tape without touching the allocator.
    let mut g = Graph::new();
    for epoch in start_epoch..cfg.epochs {
        let t0 = Instant::now();
        let epoch_pool = telemetry.recorder.is_enabled().then(pool::stats);
        hook.on_epoch_start(epoch, model);
        let sample_t = telemetry.recorder.phase(Phase::Sampling);
        let EpochTriples {
            src,
            rel,
            dst,
            labels,
        } = sampler.sample(&mut rng);
        let bins = inputs.pair_bins(&src, &dst, &cfg);
        let n_triples = labels.len();
        let arrays = StepArrays {
            src,
            rel,
            dst,
            bins,
            labels,
        };
        let steps = arrays.split(cfg.batch_size.unwrap_or(n_triples).max(1), &mut rng);
        drop(sample_t);

        let mut epoch_loss = 0.0f64;
        let mut last_norms = None;
        for step in steps.into_iter().filter(|s| !s.labels.is_empty()) {
            let len = step.labels.len();
            let triples = TripleBatch::from_vecs(
                model,
                inputs,
                step.src,
                step.rel,
                step.dst,
                step.bins,
                &step.labels,
            );
            let stats = train_step_observed(
                model,
                inputs,
                &mut g,
                &mut adam,
                &triples,
                cfg.grad_clip,
                telemetry,
                epoch,
                global_step,
            )?;
            global_step += 1;
            epoch_loss += stats.loss as f64 * len as f64;
            if stats.norms.is_some() {
                last_norms = stats.norms;
            }
        }
        let mean_loss = (epoch_loss / n_triples.max(1) as f64) as f32;
        losses.push(mean_loss);
        epoch_seconds.push(t0.elapsed().as_secs_f64());
        if telemetry.recorder.is_enabled() {
            let mut record = EpochRecord::new(epoch, mean_loss, 0.0, adam.lr());
            if let Some(norms) = last_norms {
                record.grad_norm = norms.grad_norm;
                record.param_grad_norms = norms.per_param;
            }
            record.pooled_buffers = g.pooled_buffers();
            telemetry.recorder.record_epoch(record);
            if let Some(prev) = epoch_pool {
                let now = pool::stats();
                let rec = &telemetry.recorder;
                rec.record_scalar("pool/threads", kernel::configured_threads() as f64);
                rec.record_scalar("pool/workers", now.workers as f64);
                rec.record_scalar("pool/peak_queue_depth", now.peak_queue_depth as f64);
                if let Some(share) = now.worker_share_since(&prev) {
                    rec.record_scalar("pool/epoch_worker_share", share);
                }
            }
        }

        if let Some(val) = &val {
            let last = epoch + 1 == cfg.epochs;
            if (epoch + 1) % cfg.val_check_every == 0 || last {
                let _eval_t = telemetry.recorder.phase(Phase::Eval);
                telemetry.recorder.add(Counter::ValChecks, 1);
                let acc = val.accuracy(model, inputs);
                if acc > best_val {
                    best_val = acc;
                    best_snapshot = Some(model.store.snapshot());
                }
            }
        }

        let flow = hook.on_epoch_end(&FitCkptView {
            epoch,
            global_step,
            losses: &losses,
            model,
            rng: rng.state(),
            adam: &adam,
            best_val: best_val.is_finite().then_some(best_val),
            best_snapshot: best_snapshot.as_deref(),
        });
        if flow.is_break() {
            break;
        }
    }

    if let Some(snapshot) = &best_snapshot {
        model.store.restore(snapshot);
    }

    Ok(TrainReport {
        losses,
        epoch_seconds,
        total_seconds: start.elapsed().as_secs_f64(),
        best_val_accuracy: val.map(|_| best_val),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrimConfig;
    use prim_data::{Dataset, Scale};

    #[test]
    fn loss_decreases_on_small_dataset() {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.15, 4);
        let cfg = PrimConfig {
            dim: 12,
            cat_dim: 6,
            n_layers: 2,
            n_heads: 2,
            epochs: 25,
            val_check_every: 0,
            ..PrimConfig::quick()
        };
        let inputs = ModelInputs::build(
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            ds.graph.edges(),
            None,
            &cfg,
        );
        let mut model = PrimModel::new(cfg, &inputs);
        let report = fit(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);
        assert_eq!(report.losses.len(), 25);
        let first: f32 = report.losses[..5].iter().sum::<f32>() / 5.0;
        let last: f32 = report.losses[20..].iter().sum::<f32>() / 5.0;
        assert!(
            last < first * 0.8,
            "loss did not decrease: first {first}, last {last}"
        );
        assert!(report.losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn mini_batch_training_converges_too() {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.12, 4);
        let cfg = PrimConfig {
            dim: 12,
            cat_dim: 6,
            n_layers: 1,
            n_heads: 2,
            epochs: 8,
            batch_size: Some(256),
            val_check_every: 0,
            ..PrimConfig::quick()
        };
        let inputs = ModelInputs::build(
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            ds.graph.edges(),
            None,
            &cfg,
        );
        let mut model = PrimModel::new(cfg, &inputs);
        let report = fit(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);
        assert_eq!(report.losses.len(), 8);
        assert!(report.losses.iter().all(|l| l.is_finite()));
        assert!(
            report.final_loss() < report.losses[0],
            "mini-batch training did not reduce the loss: {:?}",
            report.losses
        );
    }

    #[test]
    fn training_beats_untrained_on_held_out_positives() {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.55, 6);
        let cfg = PrimConfig {
            epochs: 60,
            ..PrimConfig::quick()
        };
        let mut split_rng = StdRng::seed_from_u64(99);
        let split = prim_graph::split_edges(&ds.graph, 0.6, &mut split_rng);
        let (train, val, test) = (&split.train[..], &split.val[..], &split.test[..]);
        let inputs = ModelInputs::build(&ds.graph, &ds.taxonomy, &ds.attrs, train, None, &cfg);
        let mut model = PrimModel::new(cfg, &inputs);

        let accuracy = |model: &PrimModel| -> f64 {
            let table = model.embed(&inputs);
            let pairs: Vec<_> = test.iter().map(|e| (e.src, e.dst)).collect();
            let preds = model.predict_pairs(&table, &inputs, &pairs);
            let hit = preds
                .iter()
                .zip(test.iter())
                .filter(|(&p, e)| p == e.rel.0 as usize)
                .count();
            hit as f64 / test.len() as f64
        };

        let before = accuracy(&model);
        let report = fit(&mut model, &inputs, &ds.graph, train, None, Some(val));
        let after = accuracy(&model);
        assert!(
            after > before + 0.1 && after > 0.45,
            "training had little effect: before {before:.3}, after {after:.3} (best val {:?})",
            report.best_val_accuracy
        );
    }

    /// A 300-POI, two-relation graph built from integer formulas alone (no
    /// generator, no libm), and its first 400 edges for training.
    fn pinned_graph() -> (HeteroGraph, Vec<Edge>) {
        use prim_geo::Location;
        use prim_graph::{CategoryId, Poi, RelationId};
        let n = 300u32;
        let pois = (0..n)
            .map(|_| Poi {
                location: Location::new(116.0, 40.0),
                category: CategoryId(0),
            })
            .collect();
        let mut graph = HeteroGraph::new(pois, 2);
        for i in 0..n {
            let j = (i * 37 + 11) % n;
            if j != i {
                graph.add_edge(PoiId(i), PoiId(j), RelationId((i % 2) as u8));
            }
            let k = (i * 101 + 7) % n;
            if k != i && k != j {
                graph.add_edge(PoiId(i), PoiId(k), RelationId(((i / 3) % 2) as u8));
            }
        }
        let train = graph.edges()[..400].to_vec();
        (graph, train)
    }

    /// FNV-1a over one epoch's `(src, rel, dst, label bits)` and the RNG
    /// state after the draw.
    fn epoch_fingerprint(triples: &EpochTriples, rng: &StdRng) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for k in 0..triples.labels.len() {
            eat(&(triples.src[k] as u32).to_le_bytes());
            eat(&(triples.rel[k] as u64).to_le_bytes());
            eat(&(triples.dst[k] as u32).to_le_bytes());
            eat(&triples.labels[k].to_bits().to_le_bytes());
        }
        for word in rng.state() {
            eat(&word.to_le_bytes());
        }
        h
    }

    /// The sampler's draws, pinned: any change to what an epoch draws, or
    /// to how much of the RNG stream it uses, changes these fingerprints
    /// (recorded when the sampler still used std's SipHash sets and built
    /// the connected-pair set per epoch).
    #[test]
    fn sampler_draws_are_pinned() {
        let (graph, train) = pinned_graph();
        let visible: HashSet<PoiId> = (0..300).filter(|i| i % 3 != 0).map(PoiId).collect();
        for (vis, len, expected) in [
            (None, 3200, 0x5c66_dbb0_f211_886e_u64),
            (Some(&visible), 3175, 0xa529_c229_b594_9fac),
        ] {
            let sampler = EpochSampler::new(&graph, &train, 300, 2, 5, vis);
            let mut rng = StdRng::seed_from_u64(42);
            let triples = sampler.sample(&mut rng);
            assert_eq!(triples.labels.len(), len, "visible: {}", vis.is_some());
            assert_eq!(
                epoch_fingerprint(&triples, &rng),
                expected,
                "visible: {}",
                vis.is_some()
            );
        }
    }

    #[test]
    fn every_mini_batch_holds_both_labels() {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.12, 4);
        let cfg = PrimConfig::quick();
        let edges = ds.graph.edges();
        let (n_pois, n_relations) = (ds.graph.num_pois(), ds.graph.num_relations());
        let sampler = EpochSampler::new(&ds.graph, edges, n_pois, n_relations, cfg.omega, None);
        let mut rng = StdRng::seed_from_u64(7);
        let t = sampler.sample(&mut rng);
        let n = t.labels.len();
        let epoch = || StepArrays {
            src: t.src.clone(),
            rel: t.rel.clone(),
            dst: t.dst.clone(),
            bins: vec![0; n],
            labels: t.labels.clone(),
        };
        // One full batch draws nothing and keeps the sampler's order.
        let before = rng.state();
        let whole = epoch().split(n, &mut rng);
        assert_eq!(rng.state(), before);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].labels, t.labels);
        // Mini-batches cover the epoch once, and each holds both labels
        // (in the sampler's order, the φ sections end in one-label runs).
        let steps = epoch().split(256, &mut rng);
        assert_eq!(steps.len(), n.div_ceil(256));
        let mut seen: Vec<_> = steps
            .iter()
            .flat_map(|s| (0..s.labels.len()).map(|k| (s.src[k], s.rel[k], s.dst[k])))
            .collect();
        let mut all: Vec<_> = (0..n).map(|k| (t.src[k], t.rel[k], t.dst[k])).collect();
        seen.sort_unstable();
        all.sort_unstable();
        assert_eq!(seen, all);
        for (i, step) in steps.iter().enumerate() {
            let positives = step.labels.iter().filter(|&&y| y == 1.0).count();
            assert!(
                positives > 0 && positives < step.labels.len(),
                "mini-batch {i} of {} holds {positives} positives in {} triples",
                steps.len(),
                step.labels.len()
            );
        }
    }
}
