//! `train`: full-batch PRIM training with the quick configuration for a
//! fixed number of epochs, validating at the configuration's cadence.

use crate::common::{self, Meter, Outcome};
use crate::trace::Trace;
use crate::{alloc, fixture, procfs, stats, Args};
use prim_core::{fit_hooked, FitHook, ModelInputs, PrimConfig, PrimModel, Telemetry};
use prim_data::Dataset;
use prim_eval::{transductive_task, Task};
use prim_obs::{json, Counter, Phase, Recorder};
use prim_tensor::pool;
use std::time::{Duration, Instant};

/// Timed epochs per second of `--seconds` (an epoch takes about 0.37 s on
/// a 2-vCPU host). The count is fixed by the argument.
const EPOCHS_PER_SEC: f64 = 2.5;
/// Share of the city's edges trained on; the rest split into validation
/// and test as in the repository's quickstart.
const TRAIN_FRAC: f64 = 0.6;
/// Builds per set-up phase. One build takes tens of ms, about as long as
/// the host's faster and slower spells last, so a phase times several
/// builds back to back and takes their mean.
const BUILDS_PER_PHASE: usize = 8;
/// Set-up phases before the timed fit, and again after it; `setup_s` is
/// the median of all of them. The two groups are a timed phase apart, so
/// they see more of the host's states than one group would.
const PHASES_EACH_SIDE: usize = 4;

pub fn epochs(seconds: u64) -> usize {
    ((seconds as f64 * EPOCHS_PER_SEC).ceil() as usize).max(2)
}

/// Wall-clock stamp and allocation count at the start of every epoch.
#[derive(Default)]
pub struct EpochClock {
    pub starts: Vec<(Instant, u64)>,
}

impl FitHook for EpochClock {
    fn on_epoch_start(&mut self, _epoch: usize, _model: &mut PrimModel) {
        self.starts.push((Instant::now(), alloc::total()));
    }
}

impl EpochClock {
    /// Per-epoch wall time (ms) and allocations, the last epoch ending now.
    pub fn epochs(&self) -> Vec<(f64, u64)> {
        let end = (Instant::now(), alloc::total());
        self.starts
            .iter()
            .zip(self.starts.iter().skip(1).chain(std::iter::once(&end)))
            .map(|(a, b)| ((b.0 - a.0).as_secs_f64() * 1e3, b.1 - a.1))
            .collect()
    }

    /// Per-epoch wall time (ms), the last epoch ending now.
    pub fn epoch_ms(&self) -> Vec<f64> {
        self.epochs().iter().map(|e| e.0).collect()
    }
}

pub struct Prepared {
    pub ds: Dataset,
    pub task: Task,
    pub cfg: PrimConfig,
    pub inputs: ModelInputs,
    pub model: PrimModel,
    /// Mean set-up time (s) of each phase run so far.
    pub setup_phases: Vec<f64>,
}

/// The training set-up: graph inputs and a freshly initialised model.
fn build(ds: &Dataset, task: &Task, cfg: &PrimConfig) -> (ModelInputs, PrimModel) {
    let inputs = ModelInputs::build(&ds.graph, &ds.taxonomy, &ds.attrs, &task.train, None, cfg);
    let model = PrimModel::new(cfg.clone(), &inputs);
    (inputs, model)
}

/// One set-up phase: `builds` builds back to back, each timed alone (the
/// previous build is dropped outside the clock). Returns the last build
/// and the mean time per build (s).
fn setup_phase(
    ds: &Dataset,
    task: &Task,
    cfg: &PrimConfig,
    builds: usize,
) -> ((ModelInputs, PrimModel), f64) {
    let mut total = Duration::ZERO;
    let mut last = None;
    for _ in 0..builds {
        drop(last.take());
        let t = Instant::now();
        last = Some(build(ds, task, cfg));
        total += t.elapsed();
    }
    (
        last.expect("builds > 0"),
        total.as_secs_f64() / builds as f64,
    )
}

/// Data, split and set-up (`phases` set-up phases, the model of the last
/// one kept), then a warm-up epoch.
pub fn prepare(args: &Args, phases: usize, builds: usize) -> Prepared {
    let ds = fixture::city();
    let task = transductive_task(&ds, TRAIN_FRAC, args.seed);
    let cfg = PrimConfig {
        epochs: epochs(args.seconds),
        ..PrimConfig::quick()
    };
    let mut setup_phases = Vec::with_capacity(2 * phases);
    let mut built = None;
    for _ in 0..phases {
        drop(built.take());
        let (b, mean_s) = setup_phase(&ds, &task, &cfg, builds);
        setup_phases.push(mean_s);
        built = Some(b);
    }
    let (inputs, model) = built.expect("phases > 0");
    // Warm-up: one epoch on a throwaway model starts the worker pool and
    // fills the allocator's free lists.
    let mut scratch = PrimModel::new(
        PrimConfig {
            epochs: 1,
            ..cfg.clone()
        },
        &inputs,
    );
    fit(
        &ds,
        &task,
        &inputs,
        &mut scratch,
        &Telemetry::disabled(),
        &mut EpochClock::default(),
    );
    Prepared {
        ds,
        task,
        cfg,
        inputs,
        model,
        setup_phases,
    }
}

/// One training run over the prepared inputs.
pub fn fit(
    ds: &Dataset,
    task: &Task,
    inputs: &ModelInputs,
    model: &mut PrimModel,
    telemetry: &Telemetry,
    clock: &mut EpochClock,
) -> Vec<f32> {
    fit_hooked(
        model,
        inputs,
        &ds.graph,
        &task.train,
        None,
        Some(&task.val),
        telemetry,
        clock,
    )
    .expect("training completes")
    .losses
}

/// Losses must stay finite and the last must be below the first.
pub fn check_losses(losses: &[f32], out: &mut Outcome) {
    for (e, l) in losses.iter().enumerate() {
        if !l.is_finite() {
            out.fail(format!("epoch {e}: loss {l}"));
        }
    }
    match (losses.first(), losses.last()) {
        (Some(first), Some(last)) if last < first => {}
        _ => out.fail(format!("loss did not fall: {losses:?}")),
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    let mut p = prepare(args, PHASES_EACH_SIDE, BUILDS_PER_PHASE);
    let mut clock = EpochClock::default();
    let meter = Meter::start();
    let losses = fit(
        &p.ds,
        &p.task,
        &p.inputs,
        &mut p.model,
        &Telemetry::disabled(),
        &mut clock,
    );
    let epoch_ms = clock.epoch_ms();
    let metered = meter.finish(false);
    out.attempted = p.cfg.epochs as u64;
    check_losses(&losses, out);
    let rss_mb = procfs::vm_hwm_mb();
    for _ in 0..PHASES_EACH_SIDE {
        let (built, mean_s) = setup_phase(&p.ds, &p.task, &p.cfg, BUILDS_PER_PHASE);
        drop(built);
        p.setup_phases.push(mean_s);
    }

    let lat = stats::Latency::of(&epoch_ms);
    out.metric("setup_s", stats::median(&p.setup_phases));
    out.metric("rss_mb", rss_mb);
    out.metric("p50_ms", lat.p50);
    out.metric(
        "cpu_ms_per_op",
        metered.program_cpu.as_secs_f64() * 1e3 / epoch_ms.len().max(1) as f64,
    );
    out.note(
        "epochs",
        format!(
            "{} (validation every {})",
            p.cfg.epochs, p.cfg.val_check_every
        ),
    );
    out.note(
        "setup_phases_ms",
        format!(
            "{:.2?} ({BUILDS_PER_PHASE} builds each; before and after the timed fit)",
            p.setup_phases.iter().map(|s| s * 1e3).collect::<Vec<_>>()
        ),
    );
    out.note("train_edges", p.task.train.len());
    out.note(
        "loss",
        format!("{:.5} -> {:.5}", losses[0], losses[losses.len() - 1]),
    );
    out.note("p99_ms", format!("{:.1}", lat.p99));
    out.note(
        "p99_samples",
        format!("{} of {} beyond", lat.beyond_p99, lat.n),
    );
    out.note(
        "epochs_per_s",
        format!("{:.3}", lat.n as f64 / metered.wall.as_secs_f64()),
    );
    out.note("timed_phase", metered.describe());
}

/// One traced fit: a fresh model, the recorder on, allocations counted
/// for the whole fit and split per epoch by the hook.
struct TracedFit {
    recorder: Recorder,
    /// `(wall ms, allocations)` per epoch.
    epochs: Vec<(f64, u64)>,
    pool_runs: u64,
    worker_share: f64,
}

fn traced_fit(p: &Prepared, trace: &mut Trace, pass: u64) -> TracedFit {
    let mut model = PrimModel::new(p.cfg.clone(), &p.inputs);
    let recorder = Recorder::enabled("perfbench-train");
    let telemetry = Telemetry::with_recorder(recorder.clone());
    let mut clock = EpochClock::default();
    let pool0 = pool::stats();
    let start = Instant::now();
    alloc::set_counting(true);
    fit(
        &p.ds, &p.task, &p.inputs, &mut model, &telemetry, &mut clock,
    );
    alloc::set_counting(false);
    let epochs = clock.epochs();
    let pool1 = pool::stats();
    let fit_span = trace.record("fit", pass, None, start, Instant::now(), 0);
    for (e, (&(t, _), &(ms, allocs))) in clock.starts.iter().zip(&epochs).enumerate() {
        let until = t + Duration::from_secs_f64(ms / 1e3);
        trace.record("epoch", e as u64, Some(fit_span), t, until, allocs);
    }
    TracedFit {
        recorder,
        epochs,
        pool_runs: pool1.parallel_runs_since(&pool0),
        worker_share: pool1.worker_share_since(&pool0).unwrap_or(0.0),
    }
}

/// Traced run: an untraced fit (the baseline for tracing overhead), then
/// two identical traced fits whose exact counts must agree.
pub fn run_traced(args: &Args, out: &mut Outcome) {
    let mut p = prepare(args, 1, 1);
    let mut clock = EpochClock::default();
    let losses = fit(
        &p.ds,
        &p.task,
        &p.inputs,
        &mut p.model,
        &Telemetry::disabled(),
        &mut clock,
    );
    check_losses(&losses, out);
    out.attempted = p.cfg.epochs as u64;
    let base = stats::median(&clock.epoch_ms());

    let mut trace = Trace::new();
    let a = traced_fit(&p, &mut trace, 0);
    let b = traced_fit(&p, &mut trace, 1);
    let n = a.epochs.len().max(1) as f64;

    let records = a.recorder.epochs();
    let phase_ms = |ph: Phase| -> f64 {
        let v: Vec<f64> = records
            .iter()
            .map(|r| r.phase_ns[ph as usize] as f64 / 1e6)
            .collect();
        stats::median(&v)
    };
    out.metric("train.sampling_ms", phase_ms(Phase::Sampling));
    out.metric("train.forward_ms", phase_ms(Phase::Forward));
    out.metric("train.backward_ms", phase_ms(Phase::Backward));
    out.metric("train.optimizer_ms", phase_ms(Phase::Optimizer));
    // Validation runs after an epoch's record is closed, so its time is
    // taken from the run total and spread over every epoch.
    let eval_total = a
        .recorder
        .render_report()
        .and_then(|r| json::parse(&r).ok())
        .and_then(|v| v.get("phase_ms_total")?.get("eval")?.as_f64())
        .unwrap_or(0.0);
    out.metric("train.eval_ms", eval_total / n);
    let allocs: Vec<f64> = a.epochs.iter().map(|e| e.1 as f64).collect();
    out.metric("train.allocs_per_step", stats::median(&allocs));
    out.metric(
        "train.triples_per_epoch",
        a.recorder.counter(Counter::TriplesSeen) as f64 / n,
    );
    out.metric("pool.parallel_runs_per_op", a.pool_runs as f64 / n);
    out.metric("pool.worker_share", a.worker_share);
    let traced = stats::median(&a.epochs.iter().map(|e| e.0).collect::<Vec<_>>());
    out.metric("trace.overhead_pct", 100.0 * (traced - base) / base);

    let a_allocs: Vec<u64> = a.epochs.iter().map(|e| e.1).collect();
    let b_allocs: Vec<u64> = b.epochs.iter().map(|e| e.1).collect();
    let mut differ = Vec::new();
    if a_allocs != b_allocs {
        differ.push(format!(
            "train.allocs_per_step per epoch {a_allocs:?} vs {b_allocs:?}"
        ));
    }
    if a.pool_runs != b.pool_runs {
        differ.push(format!(
            "pool.parallel_runs {} vs {}",
            a.pool_runs, b.pool_runs
        ));
    }
    common::note_repeat(out, &differ);
    out.note(
        "epoch_p50_ms",
        format!("untraced {base:.2}, traced {traced:.2}"),
    );
    common::write_trace(out, &trace, "train", args.seed);
}
