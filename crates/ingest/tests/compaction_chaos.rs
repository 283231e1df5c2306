//! Kill-anywhere safety of snapshot-coupled WAL compaction.
//!
//! A replicated pipeline ([`CityIngest::open_replicated`]) interleaves
//! three durable structures: the segmented WAL, the snapshot rotation
//! directory, and the pruning that couples them. This suite drives the
//! same mutation script as `wal_chaos.rs` but with per-record segments
//! and a flush (publish + snapshot + compact) every two mutations, then
//! kills every file operation in turn — WAL appends, snapshot temp
//! writes, renames, `LATEST` updates, segment unlinks. The invariant at
//! **every** kill index:
//!
//! - recovery (newest valid snapshot + WAL tail replay) converges
//!   **bitwise** to a clean pipeline that staged exactly the
//!   acknowledged mutations — the state is always "pre-compaction" or
//!   "post-compaction", never a torn hybrid;
//! - sequence numbering continues from the acknowledged prefix, even
//!   when every covered segment was pruned before the kill.

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_geo::Location;
use prim_ingest::{CityIngest, IngestOpts, Mutation, StageError};
use prim_obs::Recorder;
use prim_serve::{
    load_checkpoint, save_checkpoint, ChaosIo, EmbeddingStore, EngineOpts, EngineSlot, FaultPlan,
    FileIo, PrimCheckpoint, RealIo, ServeEngine,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prim-compaction-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn ckpt_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.12, 11);
        let cfg = PrimConfig {
            dim: 8,
            cat_dim: 4,
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
        let model = PrimModel::new(cfg, &inputs);
        let path = tmp("compaction-city.ckpt");
        save_checkpoint(
            &path,
            "compaction-chaos",
            &model,
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            &ds.relation_names,
        )
        .unwrap();
        path
    })
}

fn load() -> PrimCheckpoint {
    load_checkpoint(ckpt_path()).unwrap()
}

/// Same shape as the `wal_chaos.rs` script: adds, edges (old↔new and
/// new↔new) and a retirement.
fn script(ckpt: &PrimCheckpoint) -> Vec<Mutation> {
    let anchor = |i: u32| ckpt.graph.poi(prim_graph::PoiId(i)).location;
    let cat = |i: u32| ckpt.graph.poi(prim_graph::PoiId(i)).category.0;
    let attr_dim = ckpt.attrs.cols();
    let attrs = |s: f32| -> Vec<f32> { (0..attr_dim).map(|c| s * (c as f32 + 1.0)).collect() };
    let n = ckpt.graph.num_pois() as u32;
    vec![
        Mutation::AddPoi {
            location: Location::new(anchor(0).lon + 0.002, anchor(0).lat + 0.001),
            category: cat(2),
            attrs: attrs(0.04),
        },
        Mutation::AddEdge {
            src: n,
            dst: 3,
            relation: 0,
        },
        Mutation::RetirePoi { poi: 5 },
        Mutation::AddPoi {
            location: Location::new(anchor(8).lon - 0.001, anchor(8).lat + 0.002),
            category: cat(0),
            attrs: attrs(-0.02),
        },
        Mutation::AddEdge {
            src: n + 1,
            dst: n,
            relation: 0,
        },
        Mutation::AddEdge {
            src: 1,
            dst: 7,
            relation: 0,
        },
    ]
}

/// Opens a replicated pipeline (per-record WAL segments, manual flushes)
/// over `wal`/`snap` through `io`.
fn open_repl(
    io: Arc<dyn FileIo>,
    wal: &PathBuf,
    snap: &PathBuf,
) -> Result<(Arc<CityIngest>, Arc<EngineSlot>), prim_ingest::IngestError> {
    let ckpt = load();
    let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    let slot = EngineSlot::new(Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::disabled(),
    )));
    let ingest = CityIngest::open_replicated(
        Some(ckpt),
        wal,
        snap,
        io,
        Arc::clone(&slot),
        EngineOpts::default(),
        IngestOpts {
            batch_max: 1000, // flushes are the only publish/snapshot points
            wal_segment_bytes: 1,
        },
    )?;
    Ok((ingest, slot))
}

/// Published POI-table bits of a clean *non-replicated* pipeline that
/// staged exactly the first `j` mutations — the oracle the snapshot
/// recovery path must reproduce bitwise.
fn expected_bits(j: usize) -> Vec<u32> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Vec<u32>>>> = OnceLock::new();
    // Held while the oracle runs: tests asking for the same prefix
    // concurrently would otherwise share, and delete, one WAL directory.
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap();
    if let Some(b) = cache.get(&j) {
        return b.clone();
    }
    let wal = tmp(&format!("oracle-{j}.wal"));
    let _ = std::fs::remove_dir_all(&wal);
    let ckpt = load();
    let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    let slot = EngineSlot::new(Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::disabled(),
    )));
    let ingest = CityIngest::open(
        ckpt,
        &wal,
        Arc::new(RealIo),
        Arc::clone(&slot),
        EngineOpts::default(),
        IngestOpts {
            batch_max: 1000,
            ..IngestOpts::default()
        },
    )
    .unwrap();
    let muts = script(&load());
    for m in muts.into_iter().take(j) {
        ingest.stage(m).unwrap();
    }
    ingest.flush();
    let bits: Vec<u32> = slot
        .get()
        .store()
        .pois
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let _ = std::fs::remove_dir_all(&wal);
    cache.insert(j, bits.clone());
    bits
}

fn store_bits(slot: &EngineSlot) -> Vec<u32> {
    slot.get()
        .store()
        .pois
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Stages the script with a flush every `cadence` mutations, stopping at
/// the first WAL error (process death). Returns acknowledged count, or
/// `None` if the pipeline never opened.
fn run_until_death(
    plan: FaultPlan,
    wal: &PathBuf,
    snap: &PathBuf,
    cadence: usize,
) -> Option<usize> {
    let _ = std::fs::remove_dir_all(wal);
    let _ = std::fs::remove_dir_all(snap);
    let io = Arc::new(ChaosIo::with_plan(plan));
    let (ingest, _slot) = match open_repl(io, wal, snap) {
        Ok(p) => p,
        Err(_) => return None,
    };
    let mut acked = 0;
    for (i, m) in script(&load()).into_iter().enumerate() {
        match ingest.stage(m) {
            Ok(_) => acked += 1,
            Err(StageError::Wal(_)) => break, // process dies here
            Err(StageError::Invalid(e)) => panic!("unexpected rejection: {e}"),
        }
        if (i + 1) % cadence == 0 {
            // Publish + snapshot + compact, all through the chaos io.
            // Snapshot failures are swallowed by design (the WAL still
            // covers everything); a dead io surfaces at the next append.
            ingest.flush();
        }
    }
    Some(acked)
}

/// Restart after the kill with a clean io: newest valid snapshot + WAL
/// tail must converge bitwise to the acknowledged prefix.
fn assert_converges(wal: &PathBuf, snap: &PathBuf, acked: usize, label: &str) {
    let (ingest, slot) = open_repl(Arc::new(RealIo), wal, snap)
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    let status = ingest.status();
    assert_eq!(status.staged, 0, "{label}: recovery must apply everything");
    assert_eq!(
        status.next_seq,
        acked as u64 + 1,
        "{label}: sequence must continue from the acknowledged prefix"
    );
    assert_eq!(
        store_bits(&slot),
        expected_bits(acked),
        "{label}: recovered store must be bitwise the clean-prefix store"
    );
}

/// Clean run: snapshots actually bound the log (every flushed segment is
/// pruned) and recovery starts from the snapshot, not seq 1.
#[test]
fn snapshots_prune_covered_segments() {
    let wal = tmp("prune.wal");
    let snap = tmp("prune.snap");
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&snap);
    let (ingest, _slot) = open_repl(Arc::new(RealIo), &wal, &snap).unwrap();
    for m in script(&load()) {
        ingest.stage(m).unwrap();
        ingest.flush();
    }
    let status = ingest.status();
    assert_eq!(
        status.snapshot_seq, 6,
        "every flush snapshots its high-water"
    );
    // Compaction retains the newest flush interval `(prev_snapshot, high]`
    // so a one-interval-behind standby can always tail; with per-record
    // segments and snapshots at every seq, exactly seq 6 survives.
    assert_eq!(status.wal_segments, 1, "only the newest interval survives");
    assert!(status.wal_bytes > 0);
    drop(ingest);

    // Recovery from the snapshot + retained tail: the next sequence
    // number continues the acknowledged numbering.
    assert_converges(&wal, &snap, 6, "post-compaction reopen");
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&snap);
}

/// Exhaustive sweep: kill every file operation (appends, snapshot slot
/// writes, `LATEST` updates, prunes) and demand bitwise convergence.
#[test]
fn kill_at_every_op_recovers_pre_or_post_compaction() {
    let probe_wal = tmp("probe.wal");
    let probe_snap = tmp("probe.snap");
    let _ = std::fs::remove_dir_all(&probe_wal);
    let _ = std::fs::remove_dir_all(&probe_snap);
    let io = Arc::new(ChaosIo::counting());
    {
        let (ingest, _slot) =
            open_repl(io.clone() as Arc<dyn FileIo>, &probe_wal, &probe_snap).unwrap();
        for (i, m) in script(&load()).into_iter().enumerate() {
            ingest.stage(m).unwrap();
            if (i + 1) % 2 == 0 {
                ingest.flush();
            }
        }
    }
    let total_ops = io.ops();
    // 6 appends + 3 flushes × (snapshot temp/rename/LATEST temp/rename +
    // prunes) — the sweep must cover well beyond the appends alone.
    assert!(total_ops >= 15, "scenario too small: {total_ops} ops");

    for at in 0..total_ops {
        let wal = tmp(&format!("kill-{at}.wal"));
        let snap = tmp(&format!("kill-{at}.snap"));
        match run_until_death(FaultPlan::kill_at(at), &wal, &snap, 2) {
            None => assert_eq!(at, 0, "only the open may abort the pipeline"),
            Some(acked) => assert_converges(&wal, &snap, acked, &format!("kill@{at}")),
        }
        let _ = std::fs::remove_dir_all(&wal);
        let _ = std::fs::remove_dir_all(&snap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random kill index × random flush cadence: recovery is always
    /// bitwise the acknowledged prefix, whatever the interleaving of
    /// appends, snapshots and prunes the kill lands in.
    #[test]
    fn random_kill_and_cadence_converges(at in 0usize..40, cadence in 1usize..4) {
        let wal = tmp(&format!("prop-{at}-{cadence}.wal"));
        let snap = tmp(&format!("prop-{at}-{cadence}.snap"));
        match run_until_death(FaultPlan::kill_at(at), &wal, &snap, cadence) {
            None => prop_assert_eq!(at, 0),
            Some(acked) => assert_converges(&wal, &snap, acked, &format!("prop kill@{at}/{cadence}")),
        }
        let _ = std::fs::remove_dir_all(&wal);
        let _ = std::fs::remove_dir_all(&snap);
    }
}
