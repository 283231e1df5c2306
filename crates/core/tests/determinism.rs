//! End-to-end thread-count determinism.
//!
//! The kernel layer's contract (see `prim_tensor::kernel`) is that every
//! parallel kernel partitions work only along mathematically independent
//! axes, so outputs are bitwise identical for any thread count. These tests
//! verify the contract holds composed through the entire model: a forward
//! pass and a full fixed-seed training epoch must produce identical bits on
//! one thread and on a multi-thread pool.

use prim_core::{
    fit, fit_hooked, fit_observed, FitCkptView, FitHook, ModelInputs, PrimConfig, PrimModel,
    Recorder, ResumeState, Telemetry,
};
use prim_data::{Dataset, Scale};
use prim_tensor::kernel;
use std::ops::ControlFlow;

fn setup() -> (Dataset, PrimConfig, ModelInputs) {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.15, 11);
    let cfg = PrimConfig {
        dim: 12,
        cat_dim: 6,
        n_layers: 2,
        n_heads: 2,
        epochs: 1,
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
    (ds, cfg, inputs)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn forward_is_bitwise_identical_across_thread_counts() {
    let (_, cfg, inputs) = setup();
    let model = PrimModel::new(cfg, &inputs);

    kernel::set_threads(1);
    let serial = model.embed(&inputs);
    kernel::set_threads(4);
    let parallel = model.embed(&inputs);
    kernel::set_threads(0);

    assert_eq!(
        bits(serial.pois.data()),
        bits(parallel.pois.data()),
        "POI embeddings drifted"
    );
    assert_eq!(
        bits(serial.relations.data()),
        bits(parallel.relations.data()),
        "relation embeddings drifted"
    );
}

#[test]
fn one_epoch_of_training_is_bitwise_identical_across_thread_counts() {
    let run = |threads: usize| {
        let (ds, cfg, inputs) = setup();
        let mut model = PrimModel::new(cfg, &inputs);
        kernel::set_threads(threads);
        let report = fit(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);
        kernel::set_threads(0);
        let table = model.embed(&inputs);
        (report.losses, bits(table.pois.data()))
    };

    let (losses_1, pois_1) = run(1);
    let (losses_4, pois_4) = run(4);

    assert_eq!(
        bits(&losses_1),
        bits(&losses_4),
        "training losses differ between 1 and 4 threads"
    );
    assert_eq!(
        pois_1, pois_4,
        "trained embeddings differ between 1 and 4 threads"
    );
}

/// Multi-epoch training drives the tape arena through its steady state
/// (epoch 1 fills the pool, epochs 2+ reuse it) — the pooled buffers and the
/// parallel segment reductions together must still be bitwise deterministic:
/// identical loss curve and identical final parameters at 1 and 4 threads.
#[test]
fn pooled_multi_epoch_training_is_bitwise_identical_across_thread_counts() {
    let run = |threads: usize| {
        let (ds, cfg, inputs) = setup();
        let cfg = PrimConfig { epochs: 4, ..cfg };
        let mut model = PrimModel::new(cfg, &inputs);
        kernel::set_threads(threads);
        let report = fit(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);
        kernel::set_threads(0);
        let table = model.embed(&inputs);
        (
            report.losses,
            bits(table.pois.data()),
            bits(table.relations.data()),
        )
    };

    let (losses_1, pois_1, rels_1) = run(1);
    let (losses_4, pois_4, rels_4) = run(4);

    assert_eq!(losses_1.len(), 4);
    assert_eq!(
        bits(&losses_1),
        bits(&losses_4),
        "pooled loss curve differs between 1 and 4 threads"
    );
    assert_eq!(
        pois_1, pois_4,
        "pooled trained POI embeddings differ between 1 and 4 threads"
    );
    assert_eq!(
        rels_1, rels_4,
        "pooled trained relation embeddings differ between 1 and 4 threads"
    );
}

/// On a city with no spatial edge the spatial-context extractor runs over
/// empty neighbour lists, forward and backward. Its zero context and zero
/// gradients change no bit, so a fit with it on matches a fit with it
/// off, loss for loss and parameter for parameter.
#[test]
fn fit_through_empty_spatial_plans_matches_the_extractor_off() {
    let (ds, cfg, _) = setup();
    let cfg = PrimConfig {
        epochs: 2,
        spatial_radius_km: 1e-3,
        ..cfg
    };
    let inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &cfg,
    );
    assert!(inputs.spatial.is_empty());
    let run = |use_spatial_context: bool| {
        let cfg = PrimConfig {
            use_spatial_context,
            ..cfg.clone()
        };
        let mut model = PrimModel::new(cfg, &inputs);
        let report = fit(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);
        let params: Vec<(String, Vec<u32>)> = model
            .params()
            .entries()
            .map(|(name, m, _)| (name.to_string(), bits(m.data())))
            .collect();
        (bits(&report.losses), params)
    };
    let (on, off) = (run(true), run(false));
    assert_eq!(on.0.len(), 2);
    assert_eq!(on.0, off.0, "losses");
    assert_eq!(on.1, off.1, "parameters");
}

/// Captures the final checkpointable view of a `fit` run.
#[derive(Default)]
struct CaptureState(Option<ResumeState>);

impl FitHook for CaptureState {
    fn on_epoch_start(&mut self, _epoch: usize, _model: &mut PrimModel) {}
    fn on_epoch_end(&mut self, view: &FitCkptView<'_>) -> ControlFlow<()> {
        self.0 = Some(view.resume_state());
        ControlFlow::Continue(())
    }
}

/// The strongest form of the contract, over the worker pool at 1, 2 and 8
/// threads: not just losses and embeddings but the *complete* training
/// state — every parameter matrix, both Adam moment buffers, and the RNG
/// position after the final epoch's draws — must be bitwise identical.
#[test]
fn full_fit_state_is_bitwise_identical_at_1_2_and_8_threads() {
    let run = |threads: usize| {
        let (ds, cfg, inputs) = setup();
        let cfg = PrimConfig { epochs: 3, ..cfg };
        let mut model = PrimModel::new(cfg, &inputs);
        let mut hook = CaptureState::default();
        kernel::set_threads(threads);
        fit_hooked(
            &mut model,
            &inputs,
            &ds.graph,
            ds.graph.edges(),
            None,
            None,
            &Telemetry::disabled(),
            &mut hook,
        )
        .expect("clean run must not abort");
        kernel::set_threads(0);
        let params: Vec<Vec<u32>> = model
            .params()
            .snapshot()
            .iter()
            .map(|m| bits(m.data()))
            .collect();
        let state = hook.0.expect("hook sees at least one epoch");
        let moments: Vec<(Vec<u32>, Vec<u32>)> = state
            .adam
            .moments
            .iter()
            .map(|(m, v)| (bits(m.data()), bits(v.data())))
            .collect();
        (params, moments, state.rng, state.adam.t)
    };

    let (params_1, moments_1, rng_1, t_1) = run(1);
    let (params_2, moments_2, rng_2, t_2) = run(2);
    let (params_8, moments_8, rng_8, t_8) = run(8);

    assert_eq!(params_1, params_2, "parameters drifted at 2 threads");
    assert_eq!(params_1, params_8, "parameters drifted at 8 threads");
    assert_eq!(moments_1, moments_2, "Adam moments drifted at 2 threads");
    assert_eq!(moments_1, moments_8, "Adam moments drifted at 8 threads");
    assert_eq!(rng_1, rng_2, "RNG position drifted at 2 threads");
    assert_eq!(rng_1, rng_8, "RNG position drifted at 8 threads");
    assert_eq!(t_1, t_2);
    assert_eq!(t_1, t_8);
}

/// The telemetry layer must not perturb determinism, and the *recorded*
/// streams themselves must be deterministic: running the same fixed-seed
/// training with an enabled recorder on 1 and on 4 threads yields bitwise
/// identical per-epoch loss and gradient-norm streams (timings and buffer
/// stats are runtime diagnostics and are excluded).
#[test]
fn recorded_telemetry_streams_are_bitwise_identical_across_thread_counts() {
    let run = |threads: usize| {
        let (ds, cfg, inputs) = setup();
        let cfg = PrimConfig { epochs: 3, ..cfg };
        let mut model = PrimModel::new(cfg, &inputs);
        let telemetry = Telemetry::with_recorder(Recorder::enabled("determinism"));
        kernel::set_threads(threads);
        fit_observed(
            &mut model,
            &inputs,
            &ds.graph,
            ds.graph.edges(),
            None,
            None,
            &telemetry,
        )
        .expect("clean run must not abort");
        kernel::set_threads(0);
        telemetry.recorder.epochs()
    };

    let epochs_1 = run(1);
    let epochs_4 = run(4);

    assert_eq!(epochs_1.len(), 3);
    assert_eq!(epochs_1.len(), epochs_4.len());
    for (a, b) in epochs_1.iter().zip(epochs_4.iter()) {
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(
            a.loss.to_bits(),
            b.loss.to_bits(),
            "epoch {} loss drifted between 1 and 4 threads",
            a.epoch
        );
        assert_eq!(
            a.grad_norm.to_bits(),
            b.grad_norm.to_bits(),
            "epoch {} grad norm drifted between 1 and 4 threads",
            a.epoch
        );
        assert_eq!(a.lr.to_bits(), b.lr.to_bits());
        assert_eq!(a.param_grad_norms.len(), b.param_grad_norms.len());
        for ((name_a, norm_a), (name_b, norm_b)) in
            a.param_grad_norms.iter().zip(b.param_grad_norms.iter())
        {
            assert_eq!(name_a, name_b);
            assert_eq!(
                norm_a.to_bits(),
                norm_b.to_bits(),
                "epoch {} `{name_a}` grad norm drifted between 1 and 4 threads",
                a.epoch
            );
        }
    }
}
