//! Warm-standby failover, end to end across a real process boundary.
//!
//! A primary serves one city over TCP while a follower replicates its
//! acknowledged mutation log (`repl_sync` snapshot + tail frames over
//! the same JSONL protocol) into its own WAL, snapshot rotator, and
//! serving slot. This example choreographs the whole lifecycle CI needs
//! to trust promotion: the primary is a *separate OS process* that gets
//! `SIGKILL`ed — no clean shutdown, no flush-on-exit — and the promoted
//! follower then answers the golden queries. Exact-mode responses are
//! bitwise deterministic, so the promoted transcript must diff clean
//! against the `golden` oracle (a from-scratch pipeline that staged the
//! same acknowledged history).
//!
//! Modes (`cargo run --release --example poi_failover -- <mode>`):
//!
//! * *(none)* — self-contained demo: train to a temp checkpoint, run
//!   `golden` and `failover` in-process, assert the transcripts match.
//! * `train <ckpt>` — train a quick-scale model and save the checkpoint.
//! * `golden <ckpt>` — oracle: plain single-node pipeline stages the
//!   script, flushes, answers the queries (stdout = golden transcript).
//! * `primary <ckpt> <wal> <snap>` — bind a TCP server on an ephemeral
//!   port (printed to stdout as `PORT <n>`), serve until killed.
//! * `failover <ckpt> <dir>` — spawn `primary` as a child process,
//!   stream the mutation script over TCP, replicate into an in-process
//!   follower until lag 0, `SIGKILL` the child, promote, answer the
//!   queries from the promoted follower (stdout = transcript to diff).

use prim_core::{fit, ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_geo::Location;
use prim_ingest::{CityIngest, IngestOpts, Mutation, ReplFollower};
use prim_obs::Recorder;
use prim_serve::{
    handle_line, load_checkpoint, save_checkpoint, ChaosClient, EmbeddingStore, EngineOpts,
    EngineSlot, IngestBackend, PrimCheckpoint, RealIo, ServeCtx, ServeEngine, TcpServer,
    TenantSpec,
};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        None => {
            let dir = std::env::temp_dir().join(format!("prim-failover-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let ckpt = dir.join("demo.ckpt");
            train(&ckpt);
            let golden_lines = golden(&ckpt);
            let promoted_lines = failover(&ckpt, &dir);
            assert_eq!(
                golden_lines, promoted_lines,
                "promoted transcript diverged from the golden oracle"
            );
            eprintln!(
                "failover: promoted transcript matches golden ({} lines)",
                golden_lines.len()
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        Some("train") => train(Path::new(&args[1])),
        Some("golden") => {
            for line in golden(Path::new(&args[1])) {
                println!("{line}");
            }
        }
        Some("primary") => primary(
            Path::new(&args[1]),
            Path::new(&args[2]),
            Path::new(&args[3]),
        ),
        Some("failover") => {
            for line in failover(Path::new(&args[1]), Path::new(&args[2])) {
                println!("{line}");
            }
        }
        Some(other) => {
            eprintln!("poi_failover: unknown mode {other:?}");
            eprintln!(
                "modes: train <ckpt> | golden <ckpt> | primary <ckpt> <wal> <snap> | \
                 failover <ckpt> <dir>"
            );
            std::process::exit(2);
        }
    }
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
        "failover: trained {} POIs in {:.1}s (final loss {:.4})",
        ds.graph.num_pois(),
        report.total_seconds,
        report.final_loss()
    );
    save_checkpoint(
        ckpt,
        "failover:beijing",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
    )
    .unwrap();
    eprintln!("failover: checkpoint saved to {}", ckpt.display());
}

/// The deterministic mutation script the primary acknowledges before it
/// dies: onboard two POIs, wire edges (including new↔new), retire one.
fn script(ckpt: &PrimCheckpoint) -> Vec<Mutation> {
    let anchor = |i: u32| ckpt.graph.poi(prim_graph::PoiId(i)).location;
    let cat = |i: u32| ckpt.graph.poi(prim_graph::PoiId(i)).category.0;
    let attr_dim = ckpt.attrs.cols();
    let attrs = |s: f32| -> Vec<f32> { (0..attr_dim).map(|c| s * (c as f32 + 1.0)).collect() };
    let n = ckpt.graph.num_pois() as u32;
    vec![
        Mutation::AddPoi {
            location: Location::new(anchor(0).lon + 0.002, anchor(0).lat + 0.001),
            category: cat(3),
            attrs: attrs(0.1),
        },
        Mutation::AddEdge {
            src: n,
            dst: 5,
            relation: 0,
        },
        Mutation::RetirePoi { poi: 7 },
        Mutation::AddPoi {
            location: Location::new(anchor(10).lon + 0.001, anchor(10).lat - 0.001),
            category: cat(1),
            attrs: attrs(-0.05),
        },
        Mutation::AddEdge {
            src: n + 1,
            dst: n,
            relation: 1,
        },
    ]
}

/// One mutation as a protocol line (what the drive loop sends over TCP).
fn mutation_line(m: &Mutation) -> String {
    match m {
        Mutation::AddPoi {
            location,
            category,
            attrs,
        } => {
            let attrs: Vec<String> = attrs.iter().map(|a| format!("{a}")).collect();
            format!(
                "{{\"op\": \"add_poi\", \"city\": \"beijing\", \"lon\": {}, \"lat\": {}, \
                 \"category\": {category}, \"attrs\": [{}]}}",
                location.lon,
                location.lat,
                attrs.join(", ")
            )
        }
        Mutation::AddEdge { src, dst, relation } => format!(
            "{{\"op\": \"add_edge\", \"city\": \"beijing\", \"src\": {src}, \"dst\": {dst}, \
             \"relation\": {relation}}}"
        ),
        Mutation::RetirePoi { poi } => {
            format!("{{\"op\": \"retire_poi\", \"city\": \"beijing\", \"poi\": {poi}}}")
        }
    }
}

/// The golden queries: exact-mode top-k for the surviving onboarded POI
/// plus replication-visible status — every response line is bitwise
/// deterministic given the same acknowledged history.
fn queries(n0: u32) -> Vec<String> {
    let a = n0;
    let b = n0 + 1;
    vec![
        format!(
            "{{\"op\": \"top_k\", \"city\": \"beijing\", \"src\": {a}, \"k\": 5, \
             \"radius_km\": 3.0, \"relation\": \"competitive\", \"exact\": true}}"
        ),
        format!(
            "{{\"op\": \"top_k\", \"city\": \"beijing\", \"src\": {b}, \"k\": 5, \
             \"radius_km\": 3.0, \"relation\": \"complementary\", \"exact\": true}}"
        ),
        format!("{{\"op\": \"score\", \"city\": \"beijing\", \"src\": {a}, \"dst\": 5}}"),
        // Retired POI 7 must be absent from every candidate set; query a
        // neighborhood that would have contained it.
        format!(
            "{{\"op\": \"top_k\", \"city\": \"beijing\", \"src\": 3, \"k\": 10, \
             \"radius_km\": 5.0, \"relation\": \"competitive\", \"exact\": true}}"
        ),
    ]
}

fn engine_for(ckpt: &PrimCheckpoint) -> (Arc<ServeEngine>, Arc<EngineSlot>) {
    let store = EmbeddingStore::from_checkpoint(ckpt).expect("checkpoint rebuilds");
    let engine = Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::from_env("failover:beijing"),
    ));
    let slot = EngineSlot::new(Arc::clone(&engine));
    (engine, slot)
}

/// Oracle: a from-scratch single-node pipeline that stages exactly the
/// acknowledged history, then answers the queries.
fn golden(ckpt_path: &Path) -> Vec<String> {
    let ckpt = load_checkpoint(ckpt_path).unwrap_or_else(|e| {
        eprintln!("failover: cannot load {}: {e}", ckpt_path.display());
        std::process::exit(2);
    });
    let n0 = ckpt.graph.num_pois() as u32;
    let muts = script(&ckpt);
    let (engine, slot) = engine_for(&ckpt);
    let wal = std::env::temp_dir().join(format!("prim-failover-golden-{}.wal", std::process::id()));
    let snap = wal.with_extension("snap");
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&snap);
    let ingest = CityIngest::open_replicated(
        Some(ckpt),
        &wal,
        &snap,
        Arc::new(RealIo),
        Arc::clone(&slot),
        EngineOpts::default(),
        IngestOpts::default(),
    )
    .expect("oracle pipeline opens");
    for m in muts {
        ingest.stage(m).expect("oracle stage");
    }
    ingest.flush();
    let ctx = ServeCtx::multi(vec![TenantSpec::new("beijing", engine)
        .with_slot(slot)
        .with_ingest(ingest)]);
    let out = run_queries(&ctx, n0);
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&snap);
    out
}

fn run_queries(ctx: &ServeCtx, n0: u32) -> Vec<String> {
    queries(n0)
        .iter()
        .map(|line| {
            let resp = handle_line(ctx, line).response;
            if !resp.contains("\"ok\": true") {
                eprintln!("failover: query failed\n  sent {line}\n  got  {resp}");
                std::process::exit(1);
            }
            resp
        })
        .collect()
}

/// Child-process mode: a replicated primary serving one city over TCP
/// until it is killed from outside. Prints `PORT <n>` once bound.
fn primary(ckpt_path: &Path, wal: &Path, snap: &Path) {
    let ckpt = load_checkpoint(ckpt_path).unwrap_or_else(|e| {
        eprintln!("failover: cannot load {}: {e}", ckpt_path.display());
        std::process::exit(2);
    });
    let (engine, slot) = engine_for(&ckpt);
    let ingest = CityIngest::open_replicated(
        Some(ckpt),
        wal,
        snap,
        Arc::new(RealIo),
        Arc::clone(&slot),
        EngineOpts::default(),
        IngestOpts::default(),
    )
    .unwrap_or_else(|e| {
        eprintln!("failover: primary pipeline failed to open: {e}");
        std::process::exit(2);
    });
    let ctx = ServeCtx::multi(vec![TenantSpec::new("beijing", engine)
        .with_slot(slot)
        .with_ingest(ingest as Arc<dyn IngestBackend>)]);
    let server = TcpServer::bind("127.0.0.1:0", ctx).unwrap();
    let addr = server.local_addr().unwrap();
    // The parent reads this line to find us; flush so it isn't buffered.
    println!("PORT {}", addr.port());
    use std::io::Write;
    std::io::stdout().flush().unwrap();
    eprintln!(
        "failover: primary serving on {addr} (pid {})",
        std::process::id()
    );
    server.run().ok();
}

/// Orchestrator: spawn the primary, drive mutations, replicate, SIGKILL
/// the primary, promote, and answer the queries from the standby.
fn failover(ckpt_path: &Path, dir: &Path) -> Vec<String> {
    std::fs::create_dir_all(dir).unwrap();
    let scrub = |name: &str| -> PathBuf {
        let p = dir.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    };
    let (pwal, psnap, fwal, fsnap) = (
        scrub("primary.wal"),
        scrub("primary.snap"),
        scrub("follower.wal"),
        scrub("follower.snap"),
    );

    // Spawn the primary as a real child process.
    let exe = std::env::current_exe().expect("own path");
    let mut child = std::process::Command::new(exe)
        .args([
            "primary",
            &ckpt_path.display().to_string(),
            &pwal.display().to_string(),
            &psnap.display().to_string(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("primary spawns");
    let port = {
        let stdout = child.stdout.take().expect("primary stdout piped");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("primary printed its port")
            .expect("primary stdout readable");
        line.strip_prefix("PORT ")
            .and_then(|p| p.parse::<u16>().ok())
            .unwrap_or_else(|| panic!("bad port line {line:?}"))
    };
    eprintln!("failover: primary up on port {port} (pid {})", child.id());

    let ckpt = load_checkpoint(ckpt_path).expect("checkpoint loads");
    let n0 = ckpt.graph.num_pois() as u32;
    let muts = script(&ckpt);

    // Follower: its own pipeline, slot, WAL and snapshot rotator.
    let (engine, fslot) = engine_for(&ckpt);
    let follower = ReplFollower::new(
        Some(ckpt),
        "beijing",
        &fwal,
        &fsnap,
        Arc::new(RealIo),
        Arc::clone(&fslot),
        EngineOpts::default(),
        IngestOpts::default(),
    )
    .expect("follower opens");

    // Drive the script over TCP, replicating after every acknowledged
    // mutation — the follower trails the primary by at most one round.
    let mut drive = ChaosClient::connect(("127.0.0.1", port)).expect("drive client connects");
    let mut link = ChaosClient::connect(("127.0.0.1", port)).expect("repl link connects");
    for (i, m) in muts.iter().enumerate() {
        let line = mutation_line(m);
        let resp = drive.request(&line).expect("mutation round-trips");
        if !resp.contains("\"ok\": true") {
            eprintln!("failover: mutation rejected\n  sent {line}\n  got  {resp}");
            std::process::exit(1);
        }
        if i % 2 == 1 {
            let resp = drive
                .request("{\"op\": \"ingest_flush\", \"city\": \"beijing\"}")
                .expect("flush round-trips");
            eprintln!("failover: primary flushed {resp}");
        }
        let synced = follower.catch_up(&mut link).expect("follower catches up");
        eprintln!("failover: follower synced through seq {synced}");
    }
    let acked = muts.len() as u64;
    assert_eq!(follower.synced_seq(), acked, "follower must reach lag 0");

    // SIGKILL the primary: no clean shutdown, no final flush. Every
    // mutation above was acknowledged (fsynced) before this point.
    child.kill().expect("primary killed");
    child.wait().ok();
    eprintln!("failover: primary SIGKILLed");
    // The link is dead; one last pull must fail without moving state.
    assert!(
        follower.catch_up(&mut link).is_err(),
        "dead primary still answered"
    );
    assert_eq!(follower.synced_seq(), acked);

    // Promote and serve: the standby becomes the write path.
    let next = follower.promote();
    assert_eq!(next, acked + 1, "promotion continues the WAL numbering");
    eprintln!("failover: follower promoted; next_seq {next}");
    let ctx = ServeCtx::multi(vec![TenantSpec::new("beijing", engine)
        .with_slot(fslot)
        .with_ingest(follower as Arc<dyn IngestBackend>)]);
    run_queries(&ctx, n0)
}
