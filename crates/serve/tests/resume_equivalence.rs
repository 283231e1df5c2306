//! Resume equivalence: training N epochs straight must be **bitwise
//! identical** to training k epochs, dying mid-checkpoint, and resuming
//! for the remaining N−k — parameters, losses, telemetry epoch records
//! and the final embedding table, at one and at four kernel threads.
//!
//! The kill is injected through the deterministic fault layer: the save
//! at the end of epoch k fails at its first file operation and the run
//! surfaces `ResumeError::Io`, exactly as a process killed there would.
//! Also covered: the NaN rollback policy (restore last good checkpoint,
//! decay the learning rate, retry) and retry-budget exhaustion.

use prim_core::{
    fit_observed, FiniteGuard, FitCkptView, FitHook, ModelInputs, NoopHook, PrimConfig, PrimModel,
    Recorder, Telemetry,
};
use prim_data::{Dataset, Scale};
use prim_graph::Edge;
use prim_obs::{Counter, EpochRecord};
use prim_serve::{
    fit_resumable, fit_resumable_hooked, ChaosIo, FaultPlan, ResilienceOpts, ResumeError,
};
use prim_tensor::kernel;
use std::ops::ControlFlow;
use std::path::Path;

const EPOCHS: usize = 6;
/// Epoch whose end-of-epoch checkpoint save is killed.
const KILL_EPOCH: usize = 3;
/// File ops per save in this scenario: slot (write + rename) + LATEST
/// (write + rename); retention is deep enough that nothing is pruned.
const OPS_PER_SAVE: usize = 4;

fn setup() -> (Dataset, PrimConfig, ModelInputs, Vec<Edge>) {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.15, 11);
    let cfg = PrimConfig {
        dim: 12,
        cat_dim: 6,
        n_layers: 2,
        n_heads: 2,
        epochs: EPOCHS,
        val_check_every: 2,
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
    let val: Vec<Edge> = ds.graph.edges().iter().take(40).cloned().collect();
    (ds, cfg, inputs, val)
}

fn opts() -> ResilienceOpts {
    ResilienceOpts {
        retain: 16,
        max_retries: 0,
    }
}

mod common;
use common::Scratch;

fn param_bits(model: &PrimModel) -> Vec<(String, Vec<u32>)> {
    model
        .params()
        .entries()
        .map(|(n, m, _)| {
            (
                n.to_string(),
                m.data().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

fn table_bits(model: &PrimModel, inputs: &ModelInputs) -> Vec<u32> {
    let table = model.embed(inputs);
    table.pois.data().iter().map(|v| v.to_bits()).collect()
}

fn epoch_bits(records: &[EpochRecord]) -> Vec<(usize, u32, u32, u32)> {
    records
        .iter()
        .map(|r| {
            (
                r.epoch,
                r.loss.to_bits(),
                r.grad_norm.to_bits(),
                r.lr.to_bits(),
            )
        })
        .collect()
}

struct StraightRun {
    losses: Vec<u32>,
    params: Vec<(String, Vec<u32>)>,
    table: Vec<u32>,
    epochs: Vec<EpochRecord>,
}

fn run_straight(threads: usize) -> StraightRun {
    let (ds, cfg, inputs, val) = setup();
    let mut model = PrimModel::new(cfg, &inputs);
    let telemetry = Telemetry {
        recorder: Recorder::enabled("straight"),
        guard: FiniteGuard::disabled(),
    };
    kernel::set_threads(threads);
    let report = fit_observed(
        &mut model,
        &inputs,
        &ds.graph,
        ds.graph.edges(),
        None,
        Some(&val),
        &telemetry,
    )
    .unwrap();
    kernel::set_threads(0);
    StraightRun {
        losses: report.losses.iter().map(|l| l.to_bits()).collect(),
        params: param_bits(&model),
        table: table_bits(&model, &inputs),
        epochs: telemetry.recorder.epochs(),
    }
}

/// Phase 1 trains with a kill injected into the checkpoint save at the
/// end of `KILL_EPOCH`; phase 2 resumes from the surviving checkpoint in
/// a fresh process-equivalent (new model object, new telemetry).
fn run_killed_then_resumed(threads: usize, dir: &Path) -> (StraightRun, Option<usize>) {
    let (ds, cfg, inputs, val) = setup();
    kernel::set_threads(threads);

    let mut model = PrimModel::new(cfg.clone(), &inputs);
    let crash_telemetry = Telemetry {
        recorder: Recorder::enabled("crashed"),
        guard: FiniteGuard::disabled(),
    };
    let io = ChaosIo::with_plan(FaultPlan::kill_at(KILL_EPOCH * OPS_PER_SAVE));
    let crash = fit_resumable_hooked(
        &mut model,
        &inputs,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        ds.graph.edges(),
        None,
        Some(&val),
        dir,
        &opts(),
        &crash_telemetry,
        &mut NoopHook,
        &io,
    );
    assert!(
        matches!(crash, Err(ResumeError::Io(_))),
        "the killed save must surface as an io failure"
    );

    let mut resumed_model = PrimModel::new(cfg, &inputs);
    let resume_telemetry = Telemetry {
        recorder: Recorder::enabled("resumed"),
        guard: FiniteGuard::disabled(),
    };
    let run = fit_resumable(
        &mut resumed_model,
        &inputs,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        ds.graph.edges(),
        None,
        Some(&val),
        dir,
        &opts(),
        &resume_telemetry,
    )
    .unwrap();
    kernel::set_threads(0);
    assert_eq!(run.rollbacks, 0);
    (
        StraightRun {
            losses: run.report.losses.iter().map(|l| l.to_bits()).collect(),
            params: param_bits(&resumed_model),
            table: table_bits(&resumed_model, &inputs),
            epochs: resume_telemetry.recorder.epochs(),
        },
        run.resumed_from,
    )
}

#[test]
fn killed_and_resumed_run_is_bitwise_identical_to_straight_run() {
    let scratch = Scratch::new("resume-eq");
    for &threads in &[1usize, 4] {
        let straight = run_straight(threads);
        let dir = scratch.path(&format!("kill-{threads}"));
        let (resumed, resumed_from) = run_killed_then_resumed(threads, &dir);

        // The save at the end of KILL_EPOCH died, so the newest durable
        // checkpoint is epoch KILL_EPOCH−1 and the resume restarts at
        // KILL_EPOCH.
        assert_eq!(resumed_from, Some(KILL_EPOCH), "threads={threads}");
        assert_eq!(
            straight.losses, resumed.losses,
            "threads={threads}: per-epoch losses drifted"
        );
        assert_eq!(
            straight.params, resumed.params,
            "threads={threads}: parameters drifted"
        );
        assert_eq!(
            straight.table, resumed.table,
            "threads={threads}: final embedding table drifted"
        );
        // The resumed recorder holds records for the epochs it actually
        // ran; they must match the straight run's tail exactly.
        assert_eq!(
            epoch_bits(&straight.epochs[KILL_EPOCH..]),
            epoch_bits(&resumed.epochs),
            "threads={threads}: telemetry epoch records drifted"
        );
    }
}

#[test]
fn resume_is_identical_across_thread_counts() {
    let scratch = Scratch::new("resume-eq");
    let dir1 = scratch.path("xthread-1");
    let (r1, _) = run_killed_then_resumed(1, &dir1);
    let dir4 = scratch.path("xthread-4");
    let (r4, _) = run_killed_then_resumed(4, &dir4);
    assert_eq!(
        r1.params, r4.params,
        "resumed params drifted across threads"
    );
    assert_eq!(
        r1.losses, r4.losses,
        "resumed losses drifted across threads"
    );
}

/// Poisons one parameter with NaN at the start of `at_epoch`, once.
struct Poison {
    at_epoch: usize,
    armed: bool,
}

impl FitHook for Poison {
    fn on_epoch_start(&mut self, epoch: usize, model: &mut PrimModel) {
        if epoch == self.at_epoch && self.armed {
            self.armed = false;
            let id = model.params().ids().next().unwrap();
            model.params_mut().value_mut(id).data_mut()[0] = f32::NAN;
        }
    }

    fn on_epoch_end(&mut self, _view: &FitCkptView<'_>) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

#[test]
fn nan_rollback_restores_last_good_checkpoint_and_decays_lr() {
    let (ds, cfg, inputs, _) = setup();
    let scratch = Scratch::new("resume-eq");
    let dir = scratch.path("rollback");
    let mut model = PrimModel::new(cfg, &inputs);
    let telemetry = Telemetry {
        recorder: Recorder::enabled("rollback"),
        guard: FiniteGuard::every(1),
    };
    let opts = ResilienceOpts {
        max_retries: 2,
        ..opts()
    };
    let mut poison = Poison {
        at_epoch: 3,
        armed: true,
    };
    let run = fit_resumable_hooked(
        &mut model,
        &inputs,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        ds.graph.edges(),
        None,
        None,
        &dir,
        &opts,
        &telemetry,
        &mut poison,
        &prim_serve::RealIo,
    )
    .expect("rollback must recover the run");
    assert_eq!(run.rollbacks, 1, "exactly one rollback");
    assert_eq!(run.report.losses.len(), EPOCHS);
    assert!(
        run.report.losses.iter().all(|l| l.is_finite()),
        "post-rollback losses are finite: {:?}",
        run.report.losses
    );
    assert_eq!(telemetry.recorder.counter(Counter::Rollbacks), 1);
    assert!(
        telemetry
            .recorder
            .scalar_summary("resilience/lr_after_rollback")
            .is_some(),
        "the decayed learning rate is recorded"
    );
}

#[test]
fn exhausted_retry_budget_surfaces_the_abort() {
    let (ds, cfg, inputs, _) = setup();
    let scratch = Scratch::new("resume-eq");
    let dir = scratch.path("exhausted");
    let mut model = PrimModel::new(cfg, &inputs);
    let telemetry = Telemetry {
        recorder: Recorder::enabled("exhausted"),
        guard: FiniteGuard::every(1),
    };
    let mut poison = Poison {
        at_epoch: 1,
        armed: true,
    };
    let result = fit_resumable_hooked(
        &mut model,
        &inputs,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        ds.graph.edges(),
        None,
        None,
        &dir,
        &opts(), // max_retries: 0
        &telemetry,
        &mut poison,
        &prim_serve::RealIo,
    );
    match result {
        Err(ResumeError::Aborted { rollbacks, .. }) => assert_eq!(rollbacks, 0),
        other => panic!("expected Aborted, got {:?}", other.is_ok()),
    }
}
