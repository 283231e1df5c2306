//! New-POI onboarding, promoted to a serving-path scenario.
//!
//! The paper's Section 5.5.2 property — a trained PRIM model infers
//! relationships for POIs that arrive *after* training, no retraining —
//! is what makes streaming onboarding sound. This example exercises the
//! full production path: train → checkpoint → serve over TCP → stream
//! `add_poi`/`add_edge`/`retire_poi` mutations through the wire protocol
//! (staged in the fsynced WAL, applied via incremental k-hop
//! re-embedding, published by lock-free engine swap) → query the freshly
//! onboarded POIs' top-k. Query responses go to stdout in exact mode, so
//! two runs diff bitwise — CI's golden check.
//!
//! Modes (`cargo run --release --example new_poi_onboarding -- <mode>`):
//!
//! * *(none)* — self-contained demo: trains a small model to a temp
//!   checkpoint, then runs the `golden` scenario against it.
//! * `train <ckpt>` — train a quick-scale model and save the checkpoint.
//! * `golden <ckpt>` — serve, stream the deterministic mutation script
//!   over TCP, flush, query the onboarded POIs (stdout = golden lines).
//! * `mutate-kill <ckpt> <wal>` — serve, stream the same script over TCP
//!   (every ack is an fsynced WAL record), then die abruptly *before*
//!   applying — `exit(3)`, no flush, no clean shutdown.
//! * `replay-query <ckpt> <wal>` — reopen the WAL (replaying the
//!   acknowledged mutations onto the pristine checkpoint), serve, and run
//!   the same queries. Output must diff clean against `golden` — the
//!   kill lost nothing and replay converged bitwise.
//!
//! The pipeline keeps its snapshots in `<wal>.snap`. `mutate-kill` dies
//! before any flush, so no snapshot exists and `replay-query` replays the
//! whole WAL.

use prim_core::{fit, ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_ingest::{CityIngest, IngestOpts};
use prim_obs::Recorder;
use prim_serve::{
    load_checkpoint, save_checkpoint, ChaosClient, EmbeddingStore, EngineOpts, EngineSlot, RealIo,
    ServeCtx, ServeEngine, TcpServer, TenantSpec,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        None => {
            let dir = std::env::temp_dir().join(format!("prim-onboard-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let ckpt = dir.join("demo.ckpt");
            train(&ckpt);
            let wal = dir.join("demo.wal");
            remove_state(&wal);
            serve_scenario(&ckpt, &wal, Scenario::Golden);
            std::fs::remove_dir_all(&dir).ok();
        }
        Some("train") => train(Path::new(&args[1])),
        Some("golden") => {
            let wal = std::env::temp_dir().join(format!("prim-onboard-{}.wal", std::process::id()));
            remove_state(&wal);
            serve_scenario(Path::new(&args[1]), &wal, Scenario::Golden);
            remove_state(&wal);
        }
        Some("mutate-kill") => serve_scenario(
            Path::new(&args[1]),
            Path::new(&args[2]),
            Scenario::MutateKill,
        ),
        Some("replay-query") => serve_scenario(
            Path::new(&args[1]),
            Path::new(&args[2]),
            Scenario::ReplayQuery,
        ),
        Some(other) => {
            eprintln!("new_poi_onboarding: unknown mode {other:?}");
            eprintln!(
                "modes: train <ckpt> | golden <ckpt> | mutate-kill <ckpt> <wal> | \
                 replay-query <ckpt> <wal>"
            );
            std::process::exit(2);
        }
    }
}

/// The snapshot directory beside `wal`: `<wal>.snap`.
fn snapshot_dir(wal: &Path) -> PathBuf {
    let mut dir = wal.as_os_str().to_owned();
    dir.push(".snap");
    PathBuf::from(dir)
}

/// Removes the WAL and its snapshot directory.
fn remove_state(wal: &Path) {
    let _ = std::fs::remove_dir_all(wal);
    let _ = std::fs::remove_dir_all(snapshot_dir(wal));
}

/// Trains a small city model and writes its checkpoint.
fn train(ckpt: &Path) {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.4, 11);
    let cfg = PrimConfig {
        epochs: 40,
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
    eprintln!(
        "onboarding: trained {} POIs in {:.1}s (final loss {:.4})",
        ds.graph.num_pois(),
        report.total_seconds,
        report.final_loss()
    );
    save_checkpoint(
        ckpt,
        "onboard:beijing",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
    )
    .unwrap();
    eprintln!("onboarding: checkpoint saved to {}", ckpt.display());
}

#[derive(PartialEq, Clone, Copy)]
enum Scenario {
    /// Stream mutations, flush, query — stdout is the golden transcript.
    Golden,
    /// Stream mutations (fsynced acks), then die before applying.
    MutateKill,
    /// Reopen the WAL (replay), then run the golden queries.
    ReplayQuery,
}

/// The deterministic mutation script, as protocol lines. Onboards three
/// POIs (one far outside the original bounding box), wires edges
/// (including new↔new), and retires one original and one onboarded POI.
fn script(ckpt: &prim_serve::PrimCheckpoint) -> Vec<String> {
    let n = ckpt.graph.num_pois() as u32;
    let anchor = |i: u32| ckpt.graph.poi(prim_graph::PoiId(i)).location;
    let cat = |i: u32| ckpt.graph.poi(prim_graph::PoiId(i)).category.0;
    let attrs: Vec<String> = (0..ckpt.attrs.cols())
        .map(|c| format!("{}", 0.1 * (c as f64 + 1.0)))
        .collect();
    let attrs = format!("[{}]", attrs.join(", "));
    let add = |lon: f64, lat: f64, category: u32| {
        format!(
            "{{\"op\": \"add_poi\", \"city\": \"beijing\", \"lon\": {lon}, \"lat\": {lat}, \
             \"category\": {category}, \"attrs\": {attrs}}}"
        )
    };
    let (a, b, c) = (n, n + 1, n + 2); // ids assigned in onboarding order
    let a0 = anchor(0);
    let a10 = anchor(10);
    vec![
        add(a0.lon + 0.002, a0.lat + 0.001, cat(3)),
        add(a10.lon + 0.001, a10.lat - 0.001, cat(1)),
        format!(
            "{{\"op\": \"add_edge\", \"city\": \"beijing\", \"src\": {a}, \"dst\": 5, \
             \"relation\": \"competitive\"}}"
        ),
        format!(
            "{{\"op\": \"add_edge\", \"city\": \"beijing\", \"src\": {b}, \"dst\": {a}, \
             \"relation\": \"complementary\"}}"
        ),
        "{\"op\": \"retire_poi\", \"city\": \"beijing\", \"poi\": 7}".to_string(),
        // Out-of-bbox onboarding: lands in the serve grid's overflow list.
        add(a0.lon + 0.5, a0.lat + 0.3, cat(2)),
        format!(
            "{{\"op\": \"add_edge\", \"city\": \"beijing\", \"src\": {c}, \"dst\": 12, \
             \"relation\": \"complementary\"}}"
        ),
        format!("{{\"op\": \"retire_poi\", \"city\": \"beijing\", \"poi\": {b}}}"),
    ]
}

/// The golden queries: exact-mode top-k for the surviving onboarded POIs
/// plus a pair score — every response is bitwise deterministic.
fn queries(n0: u32) -> Vec<String> {
    let (a, c) = (n0, n0 + 2);
    vec![
        format!(
            "{{\"op\": \"top_k\", \"city\": \"beijing\", \"src\": {a}, \"k\": 5, \
             \"radius_km\": 3.0, \"relation\": \"competitive\", \"exact\": true}}"
        ),
        format!(
            "{{\"op\": \"top_k\", \"city\": \"beijing\", \"src\": {a}, \"k\": 5, \
             \"radius_km\": 3.0, \"relation\": \"complementary\", \"exact\": true}}"
        ),
        format!(
            "{{\"op\": \"top_k\", \"city\": \"beijing\", \"src\": {c}, \"k\": 5, \
             \"radius_km\": 50.0, \"relation\": \"competitive\", \"exact\": true}}"
        ),
        format!("{{\"op\": \"score\", \"city\": \"beijing\", \"src\": {a}, \"dst\": 5}}"),
    ]
}

fn serve_scenario(ckpt_path: &Path, wal_path: &Path, scenario: Scenario) {
    let ckpt = load_checkpoint(ckpt_path).unwrap_or_else(|e| {
        eprintln!("onboarding: cannot load {}: {e}", ckpt_path.display());
        std::process::exit(2);
    });
    let n0 = ckpt.graph.num_pois() as u32;
    let mutations = script(&ckpt);
    let store = EmbeddingStore::from_checkpoint(&ckpt).expect("checkpoint rebuilds");
    let engine = Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::from_env("onboard:beijing"),
    ));
    let slot = EngineSlot::new(Arc::clone(&engine));
    let ingest = CityIngest::open_replicated(
        Some(ckpt),
        wal_path,
        snapshot_dir(wal_path),
        Arc::new(RealIo),
        Arc::clone(&slot),
        EngineOpts::default(),
        IngestOpts::default(),
    )
    .unwrap_or_else(|e| {
        eprintln!("onboarding: ingest pipeline failed to open: {e}");
        std::process::exit(2);
    });
    let status = ingest.status();
    eprintln!(
        "onboarding: serving {} POIs ({} mutations replayed from {})",
        status.n_pois,
        status.applied,
        wal_path.display()
    );

    let ctx = ServeCtx::multi(vec![TenantSpec::new("beijing", Arc::clone(&engine))
        .with_slot(Arc::clone(&slot))
        .with_ingest(ingest)]);
    let server = TcpServer::bind("127.0.0.1:0", ctx).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let mut client = ChaosClient::connect(addr).expect("loopback client connects");

    let expect_ok = |resp: &str, line: &str| {
        if !resp.contains("\"ok\": true") {
            eprintln!("onboarding: request failed\n  sent {line}\n  got  {resp}");
            std::process::exit(1);
        }
    };

    // Stream the onboarding script over the wire (not in replay mode —
    // there the WAL already holds it).
    if scenario != Scenario::ReplayQuery {
        for line in &mutations {
            let resp = client.request(line).expect("mutation round-trips");
            expect_ok(&resp, line);
            eprintln!("onboarding: staged {resp}");
        }
        if scenario == Scenario::MutateKill {
            // Die hard: acknowledged mutations are fsynced in the WAL,
            // nothing has been applied or published, no clean shutdown.
            eprintln!("onboarding: killing process before apply (exit 3)");
            std::process::exit(3);
        }
        let resp = client
            .request("{\"op\": \"ingest_flush\", \"city\": \"beijing\"}")
            .expect("flush round-trips");
        expect_ok(&resp, "ingest_flush");
        eprintln!("onboarding: flushed {resp}");
    }

    // Query the onboarded POIs through the serving path. Exact mode makes
    // every line bitwise deterministic — this is the golden transcript.
    for line in queries(n0) {
        let resp = client.request(&line).expect("query round-trips");
        expect_ok(&resp, &line);
        println!("{resp}");
    }

    engine.recorder().finish();
    let _ = client.request("{\"op\": \"shutdown\"}");
    server_thread.join().unwrap().ok();
}
