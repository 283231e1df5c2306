//! The telemetry recorder: scoped phase timers, monotonic counters,
//! per-epoch training records and per-split eval records, with an optional
//! append-only JSON sink.
//!
//! Design constraints (DESIGN.md §8):
//!
//! * **Zero overhead when disabled.** A disabled [`Recorder`] is
//!   `Option::None` behind the handle — every operation is one branch, no
//!   allocation, no clock read, no lock. The `micro_kernels` steady-state
//!   allocation budget holds with the disabled recorder compiled into the
//!   training step.
//! * **Lock-cheap when enabled.** State lives behind one `Mutex` taken at
//!   phase boundaries and epoch ends (a handful of times per epoch), never
//!   per element.
//! * **Thread-safe and clonable.** Handles are `Arc`-shared; timings from
//!   concurrent scopes accumulate atomically under the lock.

use crate::json;
use crate::sink::JsonSink;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Training/inference phases with dedicated timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Negative sampling + epoch batch assembly.
    Sampling,
    /// Tape construction and forward pass.
    Forward,
    /// Backward pass (gradient tape walk).
    Backward,
    /// Gradient accumulation, clipping and the optimiser update.
    Optimizer,
    /// Validation / test-set evaluation.
    Eval,
    /// Online inference: request handling inside `prim-serve`'s engine
    /// (scoring, candidate generation, cache management).
    Serve,
}

impl Phase {
    /// All phases, in report order.
    pub const ALL: [Phase; 6] = [
        Phase::Sampling,
        Phase::Forward,
        Phase::Backward,
        Phase::Optimizer,
        Phase::Eval,
        Phase::Serve,
    ];

    /// Stable snake-case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Sampling => "sampling",
            Phase::Forward => "forward",
            Phase::Backward => "backward",
            Phase::Optimizer => "optimizer",
            Phase::Eval => "eval",
            Phase::Serve => "serve",
        }
    }
}

/// Number of phases (array sizing).
pub const N_PHASES: usize = Phase::ALL.len();

/// Monotonic counters the stack increments as it works.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Optimisation steps taken.
    Steps,
    /// Training epochs completed.
    Epochs,
    /// Labelled triples consumed (positives + negatives + φ).
    TriplesSeen,
    /// Validation accuracy checks performed.
    ValChecks,
    /// Finite-guard sweeps performed (loss + all gradients = one sweep).
    GuardChecks,
    /// Evaluation pairs scored.
    EvalPairs,
    /// Serving requests answered (score, top-k and batch alike).
    ServeRequests,
    /// POI pairs scored while serving (batch requests count every pair).
    ServePairs,
    /// Batched scoring-kernel passes: one per `batch` request and one
    /// per top-k rescoring pass.
    ServeBatches,
    /// Score-cache hits.
    ServeCacheHits,
    /// Score-cache misses.
    ServeCacheMisses,
    /// Checkpoints written (rotation slots, not temp files).
    CkptSaves,
    /// Training runs restored from a checkpoint.
    Resumes,
    /// Rollbacks to a good checkpoint after a `TrainAbort`.
    Rollbacks,
    /// Client connections that ended in broken-pipe/reset (clean
    /// disconnects, not server errors).
    ServeDisconnects,
    /// Requests shed by the admission gate with an `overloaded` error.
    ServeOverloads,
    /// Requests that exhausted their deadline (`deadline_exceeded`).
    ServeDeadlines,
    /// `top_k` requests answered by the grid-only degraded path.
    ServeDegraded,
    /// Hot checkpoint reloads applied through the engine slot.
    ServeReloads,
    /// Requests naming a city this process does not host (answered with a
    /// structured `unknown_tenant` error).
    ServeUnknownTenant,
    /// Request lines exceeding `ServeLimits::max_line_bytes` (answered
    /// with `bad_request` and resynchronised at the next newline).
    ServeOversized,
    /// Parallel regions distributed to the tensor worker pool.
    PoolParallelRuns,
    /// Tensor parallel regions that took the inline/serial path (below
    /// threshold, single job, nested, or serial config).
    PoolInlineRuns,
    /// ANN graph nodes whose quantized similarity was evaluated (beam
    /// traversal plus upper-level descent).
    AnnNodesVisited,
    /// Candidates the ANN layer generated (quant-scan candidates or
    /// ground-level beam evaluations).
    AnnCandidates,
    /// ANN candidates rejected by the spatial radius filter.
    AnnRadiusPruned,
    /// ANN candidates re-scored through the exact f32 kernel.
    AnnRescored,
    /// Mutations accepted into the ingest WAL (staged, durable, not yet
    /// visible to queries).
    IngestStaged,
    /// Mutations applied to a published store (visible to queries).
    IngestApplied,
    /// Ingest apply batches published through the engine slot.
    IngestBatches,
    /// Mutations replayed from the WAL at ingest pipeline open.
    IngestReplayed,
    /// Mutations rejected with a structured error before staging.
    IngestRejected,
    /// Ingest snapshot checkpoints written (one per compacting flush).
    IngestSnapshots,
    /// WAL segment files pruned by snapshot-coupled compaction.
    WalSegmentsPruned,
    /// `repl_sync` requests answered (tail and snapshot frames alike).
    ReplSyncs,
    /// Mutations a follower applied from replication tail frames.
    ReplApplied,
    /// Followers promoted to accepting writes.
    Promotions,
}

impl Counter {
    /// All counters, in report order.
    pub const ALL: [Counter; 37] = [
        Counter::Steps,
        Counter::Epochs,
        Counter::TriplesSeen,
        Counter::ValChecks,
        Counter::GuardChecks,
        Counter::EvalPairs,
        Counter::ServeRequests,
        Counter::ServePairs,
        Counter::ServeBatches,
        Counter::ServeCacheHits,
        Counter::ServeCacheMisses,
        Counter::CkptSaves,
        Counter::Resumes,
        Counter::Rollbacks,
        Counter::ServeDisconnects,
        Counter::ServeOverloads,
        Counter::ServeDeadlines,
        Counter::ServeDegraded,
        Counter::ServeReloads,
        Counter::ServeUnknownTenant,
        Counter::ServeOversized,
        Counter::PoolParallelRuns,
        Counter::PoolInlineRuns,
        Counter::AnnNodesVisited,
        Counter::AnnCandidates,
        Counter::AnnRadiusPruned,
        Counter::AnnRescored,
        Counter::IngestStaged,
        Counter::IngestApplied,
        Counter::IngestBatches,
        Counter::IngestReplayed,
        Counter::IngestRejected,
        Counter::IngestSnapshots,
        Counter::WalSegmentsPruned,
        Counter::ReplSyncs,
        Counter::ReplApplied,
        Counter::Promotions,
    ];

    /// Stable snake-case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Steps => "steps",
            Counter::Epochs => "epochs",
            Counter::TriplesSeen => "triples_seen",
            Counter::ValChecks => "val_checks",
            Counter::GuardChecks => "guard_checks",
            Counter::EvalPairs => "eval_pairs",
            Counter::ServeRequests => "serve_requests",
            Counter::ServePairs => "serve_pairs",
            Counter::ServeBatches => "serve_batches",
            Counter::ServeCacheHits => "serve_cache_hits",
            Counter::ServeCacheMisses => "serve_cache_misses",
            Counter::CkptSaves => "ckpt_saves",
            Counter::Resumes => "resumes",
            Counter::Rollbacks => "rollbacks",
            Counter::ServeDisconnects => "serve_disconnects",
            Counter::ServeOverloads => "serve_overloads",
            Counter::ServeDeadlines => "serve_deadlines",
            Counter::ServeDegraded => "serve_degraded",
            Counter::ServeReloads => "serve_reloads",
            Counter::ServeUnknownTenant => "serve_unknown_tenant",
            Counter::ServeOversized => "serve_oversized_lines",
            Counter::PoolParallelRuns => "pool_parallel_runs",
            Counter::PoolInlineRuns => "pool_inline_runs",
            Counter::AnnNodesVisited => "ann_nodes_visited",
            Counter::AnnCandidates => "ann_candidates",
            Counter::AnnRadiusPruned => "ann_radius_pruned",
            Counter::AnnRescored => "ann_rescored",
            Counter::IngestStaged => "ingest_staged",
            Counter::IngestApplied => "ingest_applied",
            Counter::IngestBatches => "ingest_batches",
            Counter::IngestReplayed => "ingest_replayed",
            Counter::IngestRejected => "ingest_rejected",
            Counter::IngestSnapshots => "ingest_snapshots",
            Counter::WalSegmentsPruned => "wal_segments_pruned",
            Counter::ReplSyncs => "repl_syncs",
            Counter::ReplApplied => "repl_applied",
            Counter::Promotions => "promotions",
        }
    }
}

const N_COUNTERS: usize = Counter::ALL.len();

/// One epoch's training telemetry.
///
/// `loss`, `grad_norm`, `lr` and `param_grad_norms` are exact model
/// quantities — with deterministic kernels they are bitwise reproducible
/// across thread counts. `phase_ns` and `pooled_buffers` are runtime
/// diagnostics and excluded from determinism comparisons.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's steps.
    pub loss: f32,
    /// Global gradient norm at the epoch's last step, pre-clipping.
    pub grad_norm: f32,
    /// Optimiser learning rate during the epoch.
    pub lr: f32,
    /// Per-parameter-group gradient norms at the epoch's last step.
    pub param_grad_norms: Vec<(String, f32)>,
    /// Idle buffers held by the tape arena at epoch end
    /// (see `prim_tensor::Graph::pooled_buffers`).
    pub pooled_buffers: usize,
    /// Per-phase nanoseconds accrued during this epoch. Filled in by
    /// [`Recorder::record_epoch`] from the phase accumulators; any value
    /// passed in is overwritten.
    pub phase_ns: [u64; N_PHASES],
}

impl EpochRecord {
    /// A record with only the exact model quantities filled in.
    pub fn new(epoch: usize, loss: f32, grad_norm: f32, lr: f32) -> Self {
        EpochRecord {
            epoch,
            loss,
            grad_norm,
            lr,
            param_grad_norms: Vec::new(),
            pooled_buffers: 0,
            phase_ns: [0; N_PHASES],
        }
    }

    fn json(&self) -> String {
        let phase_ms: Vec<(&str, String)> = Phase::ALL
            .iter()
            .map(|&p| (p.name(), json::num(self.phase_ns[p as usize] as f64 / 1e6)))
            .collect();
        let params: Vec<String> = self
            .param_grad_norms
            .iter()
            .map(|(name, n)| json::arr(&[json::str(name), json::num(*n as f64)]))
            .collect();
        json::obj(&[
            ("epoch", json::int(self.epoch as u64)),
            ("loss", json::num(self.loss as f64)),
            ("grad_norm", json::num(self.grad_norm as f64)),
            ("lr", json::num(self.lr as f64)),
            ("pooled_buffers", json::int(self.pooled_buffers as u64)),
            ("phase_ms", json::obj(&phase_ms)),
            ("param_grad_norms", json::arr(&params)),
        ])
    }
}

/// One evaluation's telemetry: split label, timing and a confusion summary.
#[derive(Clone, Debug)]
pub struct EvalRecord {
    /// Split label (`"val"`, `"test"`, a bench-specific tag, …).
    pub label: String,
    /// Pairs scored.
    pub n_pairs: usize,
    /// Macro-averaged F1.
    pub macro_f1: f64,
    /// Micro-averaged F1 (accuracy).
    pub micro_f1: f64,
    /// Wall-clock seconds spent scoring.
    pub seconds: f64,
    /// Per-class `(support, f1)` — the confusion-matrix summary.
    pub per_class: Vec<(usize, f64)>,
}

impl EvalRecord {
    fn json(&self) -> String {
        let per_class: Vec<String> = self
            .per_class
            .iter()
            .map(|&(support, f1)| json::arr(&[json::int(support as u64), json::num(f1)]))
            .collect();
        json::obj(&[
            ("label", json::str(&self.label)),
            ("n_pairs", json::int(self.n_pairs as u64)),
            ("macro_f1", json::num(self.macro_f1)),
            ("micro_f1", json::num(self.micro_f1)),
            ("seconds", json::num(self.seconds)),
            ("per_class", json::arr(&per_class)),
        ])
    }
}

/// Summary statistics of one recorded scalar series.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SeriesSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Last recorded value.
    pub last: f64,
    /// Mean of recorded values.
    pub mean: f64,
    /// Maximum recorded value.
    pub max: f64,
}

#[derive(Clone, Debug, Default)]
struct Series {
    count: u64,
    sum: f64,
    last: f64,
    max: f64,
}

struct State {
    phase_acc: [u64; N_PHASES],
    phase_total: [u64; N_PHASES],
    counters: [u64; N_COUNTERS],
    epochs: Vec<EpochRecord>,
    evals: Vec<EvalRecord>,
    // Named scalar series (e.g. `adam/update_norm`), summarised in reports.
    scalars: Vec<(&'static str, Series)>,
    // Extra `key → raw JSON` metadata for the run line.
    meta: Vec<(String, String)>,
}

// Manual: `Default` is not derivable past 32-element arrays.
impl Default for State {
    fn default() -> Self {
        State {
            phase_acc: [0; N_PHASES],
            phase_total: [0; N_PHASES],
            counters: [0; N_COUNTERS],
            epochs: Vec::new(),
            evals: Vec::new(),
            scalars: Vec::new(),
            meta: Vec::new(),
        }
    }
}

struct Inner {
    run: String,
    state: Mutex<State>,
    sink: Option<JsonSink>,
}

/// Telemetry recorder handle. Cloning shares the underlying state.
///
/// The default handle is *disabled*: every method is a no-op costing one
/// branch, and constructing it performs no allocation.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The disabled recorder (all operations are branch-cheap no-ops).
    pub const fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An enabled in-memory recorder (no sink) for run `run`.
    pub fn enabled(run: impl Into<String>) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                run: run.into(),
                state: Mutex::new(State::default()),
                sink: None,
            })),
        }
    }

    /// An enabled recorder that appends its run report to `sink` on
    /// [`Recorder::finish`].
    pub fn with_sink(run: impl Into<String>, sink: JsonSink) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                run: run.into(),
                state: Mutex::new(State::default()),
                sink: Some(sink),
            })),
        }
    }

    /// Recorder driven by the environment: enabled with a sink when
    /// `PRIM_RUN_REPORT` names a path, disabled (and allocation-free)
    /// otherwise.
    pub fn from_env(run: &str) -> Self {
        match JsonSink::from_env() {
            Some(sink) => Recorder::with_sink(run, sink),
            None => Recorder::disabled(),
        }
    }

    /// True when this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The run name (empty when disabled).
    pub fn run_name(&self) -> &str {
        self.inner.as_deref().map(|i| i.run.as_str()).unwrap_or("")
    }

    /// Starts a scoped phase timer; the elapsed time is added to `phase`
    /// when the returned guard drops. Disabled recorders return an inert
    /// guard without reading the clock.
    #[inline]
    pub fn phase(&self, phase: Phase) -> PhaseGuard<'_> {
        PhaseGuard {
            active: self.inner.as_deref().map(|i| (i, phase, Instant::now())),
        }
    }

    /// Adds `n` to a monotonic counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.state.lock().unwrap().counters[counter as usize] += n;
        }
    }

    /// Current value of a counter (0 when disabled).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.inner
            .as_deref()
            .map(|i| i.state.lock().unwrap().counters[counter as usize])
            .unwrap_or(0)
    }

    /// Appends a value to a named scalar series (summarised in the report).
    #[inline]
    pub fn record_scalar(&self, key: &'static str, value: f64) {
        if let Some(inner) = self.inner.as_deref() {
            let mut state = inner.state.lock().unwrap();
            let series = match state.scalars.iter_mut().find(|(k, _)| *k == key) {
                Some((_, s)) => s,
                None => {
                    state.scalars.push((key, Series::default()));
                    &mut state.scalars.last_mut().unwrap().1
                }
            };
            series.count += 1;
            series.sum += value;
            series.last = value;
            series.max = if series.count == 1 {
                value
            } else {
                series.max.max(value)
            };
        }
    }

    /// Summary of a recorded scalar series, if present.
    pub fn scalar_summary(&self, key: &str) -> Option<SeriesSummary> {
        let inner = self.inner.as_deref()?;
        let state = inner.state.lock().unwrap();
        state
            .scalars
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, s)| SeriesSummary {
                count: s.count,
                last: s.last,
                mean: if s.count == 0 {
                    0.0
                } else {
                    s.sum / s.count as f64
                },
                max: s.max,
            })
    }

    /// Attaches raw-JSON metadata to the run line (last write per key wins).
    pub fn set_meta(&self, key: &str, raw_json_value: String) {
        if let Some(inner) = self.inner.as_deref() {
            let mut state = inner.state.lock().unwrap();
            if let Some(slot) = state.meta.iter_mut().find(|(k, _)| k == key) {
                slot.1 = raw_json_value;
            } else {
                state.meta.push((key.to_string(), raw_json_value));
            }
        }
    }

    /// Records one epoch. The record's `phase_ns` is overwritten with the
    /// per-phase time accrued since the previous epoch record.
    pub fn record_epoch(&self, mut record: EpochRecord) {
        if let Some(inner) = self.inner.as_deref() {
            let mut state = inner.state.lock().unwrap();
            record.phase_ns = state.phase_acc;
            for p in 0..N_PHASES {
                state.phase_total[p] += state.phase_acc[p];
                state.phase_acc[p] = 0;
            }
            state.counters[Counter::Epochs as usize] += 1;
            state.epochs.push(record);
        }
    }

    /// Records one evaluation.
    pub fn record_eval(&self, record: EvalRecord) {
        if let Some(inner) = self.inner.as_deref() {
            inner.state.lock().unwrap().evals.push(record);
        }
    }

    /// Copies out the recorded epoch stream (empty when disabled).
    pub fn epochs(&self) -> Vec<EpochRecord> {
        self.inner
            .as_deref()
            .map(|i| i.state.lock().unwrap().epochs.clone())
            .unwrap_or_default()
    }

    /// Copies out the recorded eval stream (empty when disabled).
    pub fn evals(&self) -> Vec<EvalRecord> {
        self.inner
            .as_deref()
            .map(|i| i.state.lock().unwrap().evals.clone())
            .unwrap_or_default()
    }

    /// Renders the run-report line for the current state.
    pub fn render_report(&self) -> Option<String> {
        let inner = self.inner.as_deref()?;
        let mut state = inner.state.lock().unwrap();
        // Fold un-recorded phase time into the totals so short runs that
        // never call `record_epoch` still report their timings.
        for p in 0..N_PHASES {
            state.phase_total[p] += state.phase_acc[p];
            state.phase_acc[p] = 0;
        }
        let epochs: Vec<String> = state.epochs.iter().map(EpochRecord::json).collect();
        let evals: Vec<String> = state.evals.iter().map(EvalRecord::json).collect();
        let counters: Vec<(&str, String)> = Counter::ALL
            .iter()
            .map(|&c| (c.name(), json::int(state.counters[c as usize])))
            .collect();
        let phase_ms: Vec<(&str, String)> = Phase::ALL
            .iter()
            .map(|&p| {
                (
                    p.name(),
                    json::num(state.phase_total[p as usize] as f64 / 1e6),
                )
            })
            .collect();
        let scalars: Vec<(&str, String)> = state
            .scalars
            .iter()
            .map(|(k, s)| {
                (
                    *k,
                    json::obj(&[
                        ("count", json::int(s.count)),
                        ("last", json::num(s.last)),
                        (
                            "mean",
                            json::num(if s.count == 0 {
                                0.0
                            } else {
                                s.sum / s.count as f64
                            }),
                        ),
                        ("max", json::num(s.max)),
                    ]),
                )
            })
            .collect();
        let meta: Vec<(&str, String)> = state
            .meta
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        Some(json::obj(&[
            ("schema", json::str(crate::SCHEMA)),
            ("kind", json::str("run")),
            ("run", json::str(&inner.run)),
            ("epochs", json::arr(&epochs)),
            ("evals", json::arr(&evals)),
            ("counters", json::obj(&counters)),
            ("phase_ms_total", json::obj(&phase_ms)),
            ("scalars", json::obj(&scalars)),
            ("meta", json::obj(&meta)),
        ]))
    }

    /// Appends the run report to the sink (if any) and clears the recorded
    /// state, so a reused handle starts the next run fresh. No-op when
    /// disabled. Returns the rendered line when a sink write happened.
    pub fn finish(&self) -> Option<String> {
        let inner = self.inner.as_deref()?;
        let line = self.render_report()?;
        *inner.state.lock().unwrap() = State::default();
        if let Some(sink) = &inner.sink {
            sink.append_line(&line);
            Some(line)
        } else {
            None
        }
    }
}

/// RAII guard accumulating elapsed time into a phase timer on drop.
pub struct PhaseGuard<'a> {
    active: Option<(&'a Inner, Phase, Instant)>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some((inner, phase, start)) = self.active.take() {
            let ns = start.elapsed().as_nanos() as u64;
            inner.state.lock().unwrap().phase_acc[phase as usize] += ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::validate_report;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let _t = rec.phase(Phase::Forward);
        }
        rec.add(Counter::Steps, 5);
        rec.record_scalar("x", 1.0);
        rec.record_epoch(EpochRecord::new(0, 0.5, 1.0, 0.01));
        assert_eq!(rec.counter(Counter::Steps), 0);
        assert!(rec.epochs().is_empty());
        assert!(rec.render_report().is_none());
        assert!(rec.finish().is_none());
    }

    #[test]
    fn counters_epochs_and_phases_accumulate() {
        let rec = Recorder::enabled("test-run");
        rec.add(Counter::Steps, 2);
        rec.add(Counter::Steps, 3);
        assert_eq!(rec.counter(Counter::Steps), 5);
        {
            let _t = rec.phase(Phase::Forward);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let mut e0 = EpochRecord::new(0, 0.7, 2.0, 0.01);
        e0.param_grad_norms.push(("w_in".into(), 1.5));
        rec.record_epoch(e0);
        rec.record_epoch(EpochRecord::new(1, 0.6, 1.8, 0.01));
        let epochs = rec.epochs();
        assert_eq!(epochs.len(), 2);
        // Epoch counter is maintained by record_epoch itself.
        assert_eq!(rec.counter(Counter::Epochs), 2);
        // The forward time landed in epoch 0's delta, and epoch 1 saw none.
        assert!(epochs[0].phase_ns[Phase::Forward as usize] > 0);
        assert_eq!(epochs[1].phase_ns[Phase::Forward as usize], 0);
    }

    #[test]
    fn scalar_series_summary() {
        let rec = Recorder::enabled("s");
        rec.record_scalar("adam/grad_norm", 1.0);
        rec.record_scalar("adam/grad_norm", 3.0);
        let s = rec.scalar_summary("adam/grad_norm").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.last, 3.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.max, 3.0);
        assert!(rec.scalar_summary("missing").is_none());
    }

    #[test]
    fn clones_share_state() {
        let rec = Recorder::enabled("shared");
        let clone = rec.clone();
        clone.add(Counter::TriplesSeen, 7);
        assert_eq!(rec.counter(Counter::TriplesSeen), 7);
    }

    #[test]
    fn report_renders_and_validates() {
        let rec = Recorder::enabled("render");
        rec.set_meta("n_pois", json::int(100));
        rec.set_meta("n_pois", json::int(200)); // overwrite wins
        {
            let _t = rec.phase(Phase::Sampling);
        }
        rec.record_epoch(EpochRecord::new(0, 0.69, 2.5, 0.01));
        rec.record_eval(EvalRecord {
            label: "test".into(),
            n_pairs: 10,
            macro_f1: 0.8,
            micro_f1: 0.9,
            seconds: 0.01,
            per_class: vec![(5, 0.8), (5, 0.9)],
        });
        let line = rec.render_report().unwrap();
        let summary = validate_report(&line).unwrap();
        assert_eq!(summary.epoch_records, 1);
        assert_eq!(summary.eval_records, 1);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("run").unwrap().as_str(), Some("render"));
        assert_eq!(
            v.get("meta").unwrap().get("n_pois").unwrap().as_f64(),
            Some(200.0)
        );
    }

    #[test]
    fn finish_appends_to_sink_and_resets() {
        let scratch = crate::Scratch::new("recorder");
        let path = scratch.0.join("finish.jsonl");
        let rec = Recorder::with_sink("r1", JsonSink::new(&path));
        rec.record_epoch(EpochRecord::new(0, 0.7, 1.0, 0.1));
        assert!(rec.finish().is_some());
        // State cleared: a second finish appends an epoch-less line.
        assert!(rec.epochs().is_empty());
        rec.add(Counter::Steps, 1);
        rec.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = validate_report(&text).unwrap();
        assert_eq!(summary.lines, 2);
        assert_eq!(summary.runs_with_epochs, 1);
    }
}
