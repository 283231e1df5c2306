//! Kill-anywhere safety of the mutation WAL.
//!
//! The crash model: every file operation the pipeline performs runs
//! through [`ChaosIo`], and a [`FaultPlan`] fails (or tears, or corrupts)
//! the sequence at one chosen operation index; the harness stops staging
//! at the first error, emulating process death. The invariant, swept at
//! **every** index:
//!
//! - every mutation acknowledged before the kill survives restart;
//! - the restarted pipeline's published embeddings are **bitwise** the
//!   embeddings of a clean process that staged exactly those mutations;
//! - a torn append (any persisted prefix of the record) is truncated on
//!   reopen and the next sequence number continues from the clean prefix;
//! - silent corruption of an *acknowledged* record (bit flip) is never
//!   replayed as data: reopen either reports a structured error or stops
//!   at the preceding clean prefix.

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_geo::Location;
use prim_ingest::{CityIngest, IngestOpts, Mutation, MutationWal, StageError, WalError};
use prim_obs::Recorder;
use prim_serve::{
    decode_bytes, decode_checkpoint, encode_checkpoint, ChaosIo, EmbeddingStore, EngineOpts,
    EngineSlot, Fault, FaultPlan, FileIo, PrimCheckpoint, RealIo, ServeEngine,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

mod common;
use common::Scratch;

fn ckpt_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
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
        encode_checkpoint(
            "ingest-chaos",
            &model,
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            &ds.relation_names,
            None,
            None,
        )
    })
}

fn load() -> PrimCheckpoint {
    decode_checkpoint(decode_bytes(ckpt_bytes()).unwrap()).unwrap()
}

/// The mutation stream under test: adds, edges (old↔new and new↔new)
/// and a retirement.
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

/// Opens a pipeline over `wal` and an empty snapshot directory beside
/// it, so every open replays the whole log onto the base checkpoint.
fn open_pipeline(
    io: Arc<dyn FileIo>,
    wal: &Path,
    batch_max: usize,
) -> Result<(Arc<CityIngest>, Arc<EngineSlot>), prim_ingest::IngestError> {
    let snap = wal.with_extension("snap");
    let _ = std::fs::remove_dir_all(&snap);
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
            batch_max,
            ..IngestOpts::default()
        },
    )?;
    Ok((ingest, slot))
}

/// Published POI-table bits of a clean pipeline that stages exactly the
/// first `j` mutations, flushes once and never reopens, so it never reads
/// a snapshot (memoised — the sweep asks for each prefix many times).
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
    let scratch = Scratch::new("ingest-chaos-oracle");
    let wal = scratch.path("expected.wal");
    let (ingest, slot) = open_pipeline(Arc::new(RealIo), &wal, 1000).unwrap();
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
    cache.insert(j, bits.clone());
    bits
}

fn store_bits(store: &EmbeddingStore) -> Vec<u32> {
    store.pois.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs the scenario with `plan` injected, stopping at the first error
/// (process death). Returns the number of acknowledged mutations, or
/// `None` if the pipeline never opened.
fn run_until_death(plan: FaultPlan, wal: &Path) -> Option<usize> {
    let _ = std::fs::remove_dir_all(wal);
    let io = Arc::new(ChaosIo::with_plan(plan));
    let (ingest, _slot) = match open_pipeline(io, wal, 2) {
        Ok(p) => p,
        Err(_) => return None,
    };
    let muts = script(&load());
    let mut acked = 0;
    for m in muts {
        match ingest.stage(m) {
            Ok(_) => acked += 1,
            Err(StageError::Wal(_)) => break, // process dies here
            Err(StageError::Invalid(e)) => panic!("unexpected rejection: {e}"),
        }
    }
    Some(acked)
}

/// Restart after the kill: reopen over the surviving file with a clean
/// io, and demand bitwise convergence to the acknowledged prefix.
fn assert_converges(wal: &Path, acked: usize, label: &str) {
    let (ingest, slot) = open_pipeline(Arc::new(RealIo), wal, 2)
        .unwrap_or_else(|e| panic!("{label}: replay failed: {e}"));
    let status = ingest.status();
    assert_eq!(status.staged, 0, "{label}: replay must apply everything");
    assert_eq!(
        status.applied as usize, acked,
        "{label}: acknowledged mutations must all replay"
    );
    assert_eq!(
        status.next_seq,
        acked as u64 + 1,
        "{label}: sequence must continue from the clean prefix"
    );
    assert_eq!(
        store_bits(slot.get().store()),
        expected_bits(acked),
        "{label}: replayed store must be bitwise the clean-prefix store"
    );
}

/// Exhaustive FailOp sweep: kill every file-operation index in turn.
#[test]
fn kill_at_every_op_replays_to_acknowledged_prefix() {
    // Clean run measures the op budget the sweep must cover.
    let scratch = Scratch::new("ingest-chaos");
    let probe = scratch.path("probe.wal");
    let io = Arc::new(ChaosIo::counting());
    {
        let (ingest, _slot) = open_pipeline(io.clone() as Arc<dyn FileIo>, &probe, 2).unwrap();
        for m in script(&load()) {
            ingest.stage(m).unwrap();
        }
    }
    let total_ops = io.ops();
    assert!(total_ops >= 6, "scenario too small: {total_ops} ops");

    for at in 0..total_ops {
        let wal = scratch.path(&format!("kill-{at}.wal"));
        let acked = run_until_death(FaultPlan::kill_at(at), &wal);
        match acked {
            // Killed before the WAL even opened: nothing acknowledged,
            // nothing on disk to converge from. (A fresh segmented log
            // performs no file operations at open, so in practice every
            // kill index lands on an append.)
            None => assert_eq!(at, 0, "only the open read may abort the pipeline"),
            Some(acked) => assert_converges(&wal, acked, &format!("kill@{at}")),
        }
        let _ = std::fs::remove_dir_all(&wal);
    }
}

/// Torn-append sweep: at every op, persist only a prefix of the record
/// (several tear points), then error. The torn tail must be truncated on
/// reopen and never surface as a mutation.
#[test]
fn torn_append_at_every_op_truncates_and_converges() {
    let scratch = Scratch::new("ingest-chaos");
    for at in 1..8 {
        for keep in [0usize, 1, 7, 13, 21] {
            let wal = scratch.path(&format!("torn-{at}-{keep}.wal"));
            let acked = run_until_death(FaultPlan::torn_at(at, keep), &wal)
                .expect("torn plans only fail appends");
            assert_converges(&wal, acked, &format!("torn@{at} keep {keep}"));
            let _ = std::fs::remove_dir_all(&wal);
        }
    }
}

/// A bit flip inside an *acknowledged* record must never replay as data:
/// reopen yields a structured error (or, when the flip reads as a longer
/// record at the tail, a clean shorter prefix) — never a panic, never a
/// silently altered mutation.
#[test]
fn bitflip_in_acknowledged_record_is_loud() {
    let muts = script(&load());
    let scratch = Scratch::new("ingest-chaos");
    for at in 1..6 {
        let wal = scratch.path(&format!("flip-{at}.wal"));
        let io = Arc::new(ChaosIo::with_plan(FaultPlan {
            at_op: at,
            fault: Fault::BitFlip { offset: 9 },
            then_dead: false,
        }));
        let (ingest, _slot) = open_pipeline(io, &wal, 1000).unwrap();
        let mut acked = 0;
        for m in muts.iter().cloned() {
            match ingest.stage(m) {
                Ok(_) => acked += 1,
                Err(_) => break,
            }
        }
        assert_eq!(acked, muts.len(), "bit flips are silent at append time");
        drop(ingest);
        match MutationWal::open(Arc::new(RealIo), &wal) {
            Err(WalError::BadMagic { .. })
            | Err(WalError::Corrupt { .. })
            | Err(WalError::OutOfOrder { .. }) => {}
            Ok(w) => {
                // The flip enlarged a length field at the tail: the
                // decoder may only shorten the stream, never alter it.
                let mut replay = Vec::new();
                w.tail(0)
                    .unwrap()
                    .for_each(&mut |_seq, m| {
                        replay.push(m);
                        Ok(())
                    })
                    .unwrap();
                assert!(
                    replay.len() < muts.len(),
                    "flip@{at}: corrupt stream replayed fully"
                );
                assert_eq!(replay, muts[..replay.len()], "flip@{at}: altered mutation");
                assert_eq!(w.next_seq(), replay.len() as u64 + 1);
            }
            Err(WalError::Io(e)) => panic!("flip@{at}: unexpected io error {e}"),
        }
        let _ = std::fs::remove_dir_all(&wal);
    }
}

/// Auto-apply batching must not change what replay converges to: the
/// same stream staged with batch sizes 1, 2 and 1000 publishes the same
/// bits.
#[test]
fn replay_convergence_is_batch_size_independent() {
    let muts = script(&load());
    let mut all = Vec::new();
    let scratch = Scratch::new("ingest-chaos");
    for batch_max in [1usize, 2, 1000] {
        let wal = scratch.path(&format!("batch-{batch_max}.wal"));
        let (ingest, slot) = open_pipeline(Arc::new(RealIo), &wal, batch_max).unwrap();
        for m in muts.iter().cloned() {
            ingest.stage(m).unwrap();
        }
        ingest.flush();
        all.push(store_bits(slot.get().store()));
        // And a replay of the same WAL converges to the same bits again.
        let (_ingest2, slot2) = open_pipeline(Arc::new(RealIo), &wal, 3).unwrap();
        all.push(store_bits(slot2.get().store()));
        let _ = std::fs::remove_dir_all(&wal);
    }
    let first = all[0].clone();
    for (i, b) in all.iter().enumerate() {
        assert_eq!(*b, first, "run {i} diverged");
    }
}
