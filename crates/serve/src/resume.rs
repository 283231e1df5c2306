//! Fault-tolerant training: periodic crash-safe checkpoints, resume, and
//! NaN/Inf rollback.
//!
//! [`fit_resumable`] wraps [`prim_core::fit_resumed`] with the rotation
//! layer ([`crate::rotate::CkptRotator`]):
//!
//! * On entry it restores the newest valid checkpoint in the directory (if
//!   any) — parameters plus the `train.*` resume state — and continues
//!   training **bitwise-identically** to a run that never stopped.
//! * Every epoch it writes a rotation slot carrying parameters +
//!   optimiser moments + RNG/epoch state, each step atomic.
//! * When the `prim-obs` finite guard aborts training (NaN/Inf loss or
//!   gradient), the rollback policy restores the last good checkpoint,
//!   multiplies the learning rate by `LR_DECAY` (0.5) and retries — at most
//!   `max_retries` times, after which the abort surfaces as
//!   [`ResumeError::Aborted`]. Every recovery event lands in the
//!   telemetry: `Counter::Resumes` / `Counter::Rollbacks` /
//!   `Counter::CkptSaves` plus `resilience/*` scalar series.
//!
//! Checkpoint I/O flows through a [`FileIo`], so the fault-injection
//! suite can kill the save sequence at any operation index and assert the
//! directory still resolves to a valid checkpoint.

use crate::chaos::{FileIo, RealIo};
use crate::ckpt::{encode_checkpoint, CkptError};
use crate::rotate::CkptRotator;
use prim_core::{
    fit_resumed, FitCkptView, FitHook, ModelInputs, NoopHook, PrimModel, ResumeState, TrainReport,
};
use prim_graph::{Edge, HeteroGraph, PoiId, Taxonomy};
use prim_obs::{Counter, Telemetry, TrainAbort};
use prim_tensor::Matrix;
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::path::Path;

/// Learning-rate multiplier applied at each rollback.
const LR_DECAY: f32 = 0.5;

/// Knobs for checkpoint retention and the rollback policy.
#[derive(Clone, Debug)]
pub struct ResilienceOpts {
    /// Rotation slots kept on disk.
    pub retain: usize,
    /// Rollback attempts before a `TrainAbort` becomes fatal.
    pub max_retries: u32,
}

impl Default for ResilienceOpts {
    fn default() -> Self {
        ResilienceOpts {
            retain: 3,
            max_retries: 3,
        }
    }
}

/// Why a resumable run could not complete.
#[derive(Debug)]
pub enum ResumeError {
    /// A checkpoint failed to decode or did not fit the model.
    Ckpt(CkptError),
    /// Checkpoint persistence failed (training stops at the failed save —
    /// the run behaves exactly like a process killed there, and a rerun
    /// resumes from the last durable slot).
    Io(std::io::Error),
    /// The finite guard aborted and the retry budget ran out.
    Aborted {
        /// The final abort.
        abort: TrainAbort,
        /// Rollbacks performed before giving up.
        rollbacks: u32,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Ckpt(e) => write!(f, "resumable training checkpoint error: {e}"),
            ResumeError::Io(e) => write!(f, "resumable training io error: {e}"),
            ResumeError::Aborted { abort, rollbacks } => {
                write!(f, "training aborted after {rollbacks} rollbacks: {abort}")
            }
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<CkptError> for ResumeError {
    fn from(e: CkptError) -> Self {
        ResumeError::Ckpt(e)
    }
}

/// Outcome of a completed resumable run.
pub struct ResumableRun {
    /// The training report (losses include epochs restored from disk).
    pub report: TrainReport,
    /// Epoch the run resumed at, when it picked up a checkpoint.
    pub resumed_from: Option<usize>,
    /// NaN/Inf rollbacks performed along the way.
    pub rollbacks: u32,
}

/// The per-epoch checkpointing hook: delegates to the user hook, then
/// encodes and rotates a resumable checkpoint. A failed save breaks the
/// training loop — the crash model — and is surfaced by the caller as
/// [`ResumeError::Io`].
struct CkptHook<'a> {
    rotator: &'a CkptRotator,
    io: &'a dyn FileIo,
    run: &'a str,
    graph: &'a HeteroGraph,
    taxonomy: &'a Taxonomy,
    attrs: &'a Matrix,
    relation_names: &'a [String],
    telemetry: &'a Telemetry,
    user: &'a mut dyn FitHook,
    save_error: Option<std::io::Error>,
}

impl FitHook for CkptHook<'_> {
    fn on_epoch_start(&mut self, epoch: usize, model: &mut PrimModel) {
        self.user.on_epoch_start(epoch, model);
    }

    fn on_epoch_end(&mut self, view: &FitCkptView<'_>) -> ControlFlow<()> {
        if self.user.on_epoch_end(view).is_break() {
            return ControlFlow::Break(());
        }
        let state = view.resume_state();
        let bytes = encode_checkpoint(
            self.run,
            view.model,
            self.graph,
            self.taxonomy,
            self.attrs,
            self.relation_names,
            Some(&state),
            None,
        );
        match self.rotator.save(self.io, view.epoch, &bytes) {
            Ok(_) => {
                self.telemetry.recorder.add(Counter::CkptSaves, 1);
                ControlFlow::Continue(())
            }
            Err(e) => {
                self.save_error = Some(e);
                ControlFlow::Break(())
            }
        }
    }
}

/// Fault-tolerant training into a rotation directory. See the module docs
/// for the recovery semantics.
#[allow(clippy::too_many_arguments)] // full training + persistence context
pub fn fit_resumable(
    model: &mut PrimModel,
    inputs: &ModelInputs,
    graph: &HeteroGraph,
    taxonomy: &Taxonomy,
    attrs: &Matrix,
    relation_names: &[String],
    train_edges: &[Edge],
    visible: Option<&HashSet<PoiId>>,
    val_edges: Option<&[Edge]>,
    dir: &Path,
    opts: &ResilienceOpts,
    telemetry: &Telemetry,
) -> Result<ResumableRun, ResumeError> {
    fit_resumable_hooked(
        model,
        inputs,
        graph,
        taxonomy,
        attrs,
        relation_names,
        train_edges,
        visible,
        val_edges,
        dir,
        opts,
        telemetry,
        &mut NoopHook,
        &RealIo,
    )
}

/// [`fit_resumable`] with an explicit user hook and [`FileIo`] (the
/// fault-injection entry point).
#[allow(clippy::too_many_arguments)] // full training + persistence context
pub fn fit_resumable_hooked(
    model: &mut PrimModel,
    inputs: &ModelInputs,
    graph: &HeteroGraph,
    taxonomy: &Taxonomy,
    attrs: &Matrix,
    relation_names: &[String],
    train_edges: &[Edge],
    visible: Option<&HashSet<PoiId>>,
    val_edges: Option<&[Edge]>,
    dir: &Path,
    opts: &ResilienceOpts,
    telemetry: &Telemetry,
    user_hook: &mut dyn FitHook,
    io: &dyn FileIo,
) -> Result<ResumableRun, ResumeError> {
    let rotator = CkptRotator::new(dir, opts.retain).map_err(ResumeError::Io)?;
    let run = "resumable";

    let mut resume: Option<ResumeState> = None;
    let mut resumed_from = None;
    if let Some((_path, ckpt)) = rotator.latest_valid() {
        model
            .params_mut()
            .import_named(&ckpt.params)
            .map_err(|e| ResumeError::Ckpt(CkptError::Incompatible(e)))?;
        resumed_from = ckpt.train_state.as_ref().map(|s| s.next_epoch);
        resume = ckpt.train_state;
        if let Some(epoch) = resumed_from {
            telemetry
                .recorder
                .record_scalar("resilience/resumed_from_epoch", epoch as f64);
        }
    }

    let mut rollbacks = 0u32;
    loop {
        let mut hook = CkptHook {
            rotator: &rotator,
            io,
            run,
            graph,
            taxonomy,
            attrs,
            relation_names,
            telemetry,
            user: user_hook,
            save_error: None,
        };
        let result = fit_resumed(
            model,
            inputs,
            graph,
            train_edges,
            visible,
            val_edges,
            telemetry,
            &mut hook,
            resume.clone(),
        );
        let save_error = hook.save_error.take();
        match result {
            Ok(report) => {
                // A failed save broke the loop early: the run "crashed"
                // there, so report it as such rather than as success.
                if let Some(e) = save_error {
                    return Err(ResumeError::Io(e));
                }
                return Ok(ResumableRun {
                    report,
                    resumed_from,
                    rollbacks,
                });
            }
            Err(abort) => {
                if rollbacks >= opts.max_retries {
                    return Err(ResumeError::Aborted { abort, rollbacks });
                }
                rollbacks += 1;
                telemetry.recorder.add(Counter::Rollbacks, 1);
                telemetry
                    .recorder
                    .record_scalar("resilience/rollback_epoch", abort.epoch as f64);
                // The abort fired between gradient accumulation and the
                // optimiser step, so the store still holds the non-finite
                // gradients; they must not leak into the retried step.
                model.params_mut().zero_grads();
                match rotator.latest_valid() {
                    Some((_path, ckpt)) => {
                        model
                            .params_mut()
                            .import_named(&ckpt.params)
                            .map_err(|e| ResumeError::Ckpt(CkptError::Incompatible(e)))?;
                        let mut state = match ckpt.train_state {
                            Some(s) => s,
                            // A scoring-only checkpoint restores the
                            // parameters but restarts bookkeeping.
                            None => {
                                resume = None;
                                continue;
                            }
                        };
                        state.adam.lr *= LR_DECAY;
                        telemetry
                            .recorder
                            .record_scalar("resilience/lr_after_rollback", state.adam.lr as f64);
                        resume = Some(state);
                    }
                    None => {
                        // No good checkpoint yet: restart from scratch
                        // with a decayed rate.
                        let mut cfg = model.config().clone();
                        cfg.lr *= LR_DECAY.powi(rollbacks as i32);
                        telemetry
                            .recorder
                            .record_scalar("resilience/lr_after_rollback", cfg.lr as f64);
                        *model = PrimModel::new(cfg, inputs);
                        resume = None;
                    }
                }
            }
        }
    }
}
