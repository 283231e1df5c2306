//! Resilience-path costs: what fault tolerance charges the training loop
//! and how fast recovery is when it is needed.
//!
//! Measures:
//! * checkpoint save latency (encode + atomic rotation write) and restore
//!   latency (decode + parameter import) for a real model;
//! * training overhead of per-epoch crash-safe checkpointing —
//!   [`prim_serve::fit_resumable`] vs the plain observed fit on the same
//!   seed and data;
//! * crash-recovery wall time: kill the run mid-checkpoint through the
//!   fault layer, then time the resumed run's restore-to-first-epoch gap;
//! * hot checkpoint reload latency through the serve `reload` op.
//!
//! Results land in `BENCH_resilience.json` at the repo root, with the
//! saved file's size against its value count (`ckpt_bytes`,
//! `ckpt_values`) and the epoch the crashed run resumed at; CI gates both
//! through `check_bench_regression`.

use prim_bench::json;
use prim_core::{
    fit_observed, FiniteGuard, ModelInputs, PrimConfig, PrimModel, Recorder, Telemetry,
};
use prim_data::{Dataset, Scale};
use prim_serve::{
    decode_bytes, encode_checkpoint, fit_resumable, fit_resumable_hooked, ChaosIo, CkptRotator,
    EmbeddingStore, EngineOpts, FaultPlan, ResilienceOpts, ResumeError, ServeCtx, ServeEngine,
};
use std::path::PathBuf;
use std::time::Instant;

const EPOCHS: usize = 6;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prim-bench-resilience-{name}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn setup() -> (Dataset, PrimConfig, ModelInputs) {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.3, 11);
    let cfg = PrimConfig {
        epochs: EPOCHS,
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

fn opts() -> ResilienceOpts {
    ResilienceOpts {
        retain: 3,
        max_retries: 0,
    }
}

fn telemetry(run: &str) -> Telemetry {
    Telemetry {
        recorder: Recorder::enabled(run),
        guard: FiniteGuard::disabled(),
    }
}

fn main() {
    prim_bench::ensure_run_report("resilience");
    let (ds, cfg, inputs) = setup();

    // -- Checkpoint save / restore latency --------------------------------
    let mut model = PrimModel::new(cfg.clone(), &inputs);
    let t = telemetry("ckpt-latency");
    fit_observed(
        &mut model,
        &inputs,
        &ds.graph,
        ds.graph.edges(),
        None,
        None,
        &t,
    )
    .unwrap();
    let dir = tmpdir("latency");
    let rot = CkptRotator::new(&dir, 3).unwrap();
    let mut save_ms = Vec::new();
    let mut saved = Vec::new();
    for epoch in 0..8 {
        let t0 = Instant::now();
        let bytes = encode_checkpoint(
            "bench",
            &model,
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            &ds.relation_names,
            None,
            None,
        );
        rot.save_real(epoch, &bytes).unwrap();
        save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        saved = bytes;
    }
    let bytes_len = saved.len();
    let save_ms_mean = save_ms.iter().sum::<f64>() / save_ms.len() as f64;
    // Values the file stores, at whatever width each tensor takes.
    let ckpt_values: usize = decode_bytes(&saved)
        .unwrap()
        .tensors
        .iter()
        .map(|t| t.rows * t.cols)
        .sum();

    let mut restore_ms = Vec::new();
    for _ in 0..8 {
        let t0 = Instant::now();
        let (_path, ckpt) = rot.latest_valid().unwrap();
        let mut fresh = PrimModel::new(cfg.clone(), &inputs);
        fresh.params_mut().import_named(&ckpt.params).unwrap();
        restore_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let restore_ms_mean = restore_ms.iter().sum::<f64>() / restore_ms.len() as f64;
    std::fs::remove_dir_all(&dir).unwrap();
    println!(
        "resilience: save {save_ms_mean:.2}ms restore {restore_ms_mean:.2}ms \
         ({:.1} KiB checkpoint, {:.2} B per value)",
        bytes_len as f64 / 1024.0,
        bytes_len as f64 / ckpt_values as f64
    );

    // -- Training overhead of per-epoch checkpointing ---------------------
    let mut plain_model = PrimModel::new(cfg.clone(), &inputs);
    let t0 = Instant::now();
    fit_observed(
        &mut plain_model,
        &inputs,
        &ds.graph,
        ds.graph.edges(),
        None,
        None,
        &telemetry("plain"),
    )
    .unwrap();
    let plain_s = t0.elapsed().as_secs_f64();

    let dir = tmpdir("overhead");
    let mut resumable_model = PrimModel::new(cfg.clone(), &inputs);
    let t0 = Instant::now();
    let run = fit_resumable(
        &mut resumable_model,
        &inputs,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        ds.graph.edges(),
        None,
        None,
        &dir,
        &opts(),
        &telemetry("resumable"),
    )
    .unwrap();
    let resumable_s = t0.elapsed().as_secs_f64();
    assert_eq!(run.rollbacks, 0);
    let overhead_pct = (resumable_s / plain_s - 1.0) * 100.0;
    std::fs::remove_dir_all(&dir).unwrap();
    println!(
        "resilience: plain {plain_s:.2}s, per-epoch checkpointing {resumable_s:.2}s \
         ({overhead_pct:+.1}% overhead)"
    );

    // -- Crash-recovery wall time -----------------------------------------
    // Kill the save at the end of epoch 3 (first op of its 4-op sequence),
    // then time how long the rerun spends restoring before training resumes.
    let dir = tmpdir("recovery");
    let mut crashed = PrimModel::new(cfg.clone(), &inputs);
    let crash = fit_resumable_hooked(
        &mut crashed,
        &inputs,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        ds.graph.edges(),
        None,
        None,
        &dir,
        &opts(),
        &telemetry("crashed"),
        &mut prim_core::NoopHook,
        &ChaosIo::with_plan(FaultPlan::kill_at(3 * 4)),
    );
    assert!(matches!(crash, Err(ResumeError::Io(_))));

    let t0 = Instant::now();
    let rot = CkptRotator::new(&dir, 3).unwrap();
    let (_path, ckpt) = rot.latest_valid().expect("a durable checkpoint survives");
    let mut recovered = PrimModel::new(cfg.clone(), &inputs);
    recovered.params_mut().import_named(&ckpt.params).unwrap();
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    let resumed_at = ckpt.train_state.as_ref().map(|s| s.next_epoch).unwrap_or(0);
    std::fs::remove_dir_all(&dir).unwrap();
    println!("resilience: recovery-to-train {recovery_ms:.2}ms (resumes at epoch {resumed_at})");

    // -- Hot reload latency through the serve op --------------------------
    let ckpt_path = std::env::temp_dir().join("prim_bench_resilience_reload.ckpt");
    prim_serve::save_checkpoint(
        &ckpt_path,
        "reload",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
    )
    .unwrap();
    let store = EmbeddingStore::from_model(&model, &inputs, ds.relation_names.clone());
    let engine = ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::enabled("reload-bench"),
    );
    let ctx = ServeCtx::direct(std::sync::Arc::new(engine));
    let req = format!(
        "{{\"op\":\"reload\",\"path\":\"{}\"}}",
        ckpt_path.display().to_string().replace('\\', "/")
    );
    let mut reload_ms = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let resp = prim_serve::handle_line(&ctx, &req);
        reload_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(
            resp.response.contains("\"ok\": true"),
            "reload failed: {}",
            resp.response
        );
    }
    let reload_ms_mean = reload_ms.iter().sum::<f64>() / reload_ms.len() as f64;
    std::fs::remove_file(&ckpt_path).ok();
    println!("resilience: hot reload {reload_ms_mean:.2}ms");

    let section = json::obj(&[
        ("ckpt_bytes", json::int(bytes_len as u64)),
        ("ckpt_values", json::int(ckpt_values as u64)),
        ("ckpt_save_ms", json::num(save_ms_mean)),
        ("ckpt_restore_ms", json::num(restore_ms_mean)),
        ("train_plain_s", json::num(plain_s)),
        ("train_checkpointed_s", json::num(resumable_s)),
        ("checkpoint_overhead_pct", json::num(overhead_pct)),
        ("recovery_to_train_ms", json::num(recovery_ms)),
        ("resumed_at_epoch", json::int(resumed_at as u64)),
        ("epochs", json::int(EPOCHS as u64)),
        ("hot_reload_ms", json::num(reload_ms_mean)),
    ]);
    let path = json::bench_json_path("BENCH_resilience.json");
    json::update_section(&path, "resilience", &section);
    println!(
        "resilience: checkpoint overhead {overhead_pct:+.1}%, recovery {recovery_ms:.2}ms, \
         reload {reload_ms_mean:.2}ms; recorded to {}",
        path.display()
    );
}
