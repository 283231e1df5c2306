//! Kill-anywhere safety of snapshot-coupled WAL compaction.
//!
//! A replicated pipeline ([`CityIngest::open_replicated`]) interleaves
//! three durable structures: the segmented WAL, the snapshot rotation
//! directory, and the pruning that couples them. This suite drives the
//! same mutation script as `wal_chaos.rs` but with per-record segments
//! and a flush (publish + snapshot + compact) every two mutations, then
//! kills every file operation in turn — WAL appends, snapshot temp
//! writes, renames, `LATEST` updates, segment unlinks. A second scenario
//! uses multi-record segments, where a flush snapshots only after the log
//! has rolled, so kills also land on flushes that skip the snapshot. The
//! invariant at **every** kill index:
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
use prim_ingest::{encode_record, CityIngest, IngestOpts, IngestStatus, Mutation, StageError};
use prim_obs::Recorder;
use prim_serve::{
    decode_bytes, decode_checkpoint, encode_checkpoint, ChaosIo, EmbeddingStore, EngineOpts,
    EngineSlot, FaultPlan, FileIo, PrimCheckpoint, RealIo, ServeEngine,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
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
            "compaction-chaos",
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

/// A longer script for multi-record segments: five onboardings, each
/// wired to an old POI, edges between old POIs, and one retirement —
/// long enough for a 256 B log to roll several times.
fn long_script(ckpt: &PrimCheckpoint) -> Vec<Mutation> {
    let anchor = |i: u32| ckpt.graph.poi(prim_graph::PoiId(i)).location;
    let cat = |i: u32| ckpt.graph.poi(prim_graph::PoiId(i)).category.0;
    let attr_dim = ckpt.attrs.cols();
    let n = ckpt.graph.num_pois() as u32;
    let mut muts = Vec::new();
    for k in 0..5u32 {
        let at = anchor(10 + k);
        muts.push(Mutation::AddPoi {
            location: Location::new(at.lon + 0.001, at.lat - 0.001),
            category: cat(k),
            attrs: (0..attr_dim)
                .map(|c| 0.01 * (k + c as u32) as f32)
                .collect(),
        });
        muts.push(Mutation::AddEdge {
            src: n + k,
            dst: 3 + k,
            relation: 0,
        });
        muts.push(Mutation::AddEdge {
            src: 20 + k,
            dst: 40 + k,
            relation: 0,
        });
        if k == 2 {
            muts.push(Mutation::RetirePoi { poi: 60 });
        }
    }
    muts
}

/// A mutation script and the WAL segment budget it runs under.
#[derive(Clone, Copy)]
struct Scenario {
    name: &'static str,
    script: fn(&PrimCheckpoint) -> Vec<Mutation>,
    segment_bytes: usize,
}

/// One record per segment: every flush after new records snapshots.
const PER_RECORD: Scenario = Scenario {
    name: "per-record",
    script,
    segment_bytes: 1,
};

/// Several records per segment: only flushes after a roll snapshot.
const MULTI_RECORD: Scenario = Scenario {
    name: "multi-record",
    script: long_script,
    segment_bytes: 256,
};

/// Opens a replicated pipeline (per-record WAL segments, manual flushes)
/// over `wal`/`snap` through `io`.
fn open_repl(
    io: Arc<dyn FileIo>,
    wal: &PathBuf,
    snap: &PathBuf,
) -> Result<(Arc<CityIngest>, Arc<EngineSlot>), prim_ingest::IngestError> {
    open_repl_with(PER_RECORD, io, wal, snap, Recorder::disabled())
}

/// [`open_repl`] with the scenario's WAL segments, recording into
/// `recorder`.
fn open_repl_with(
    sc: Scenario,
    io: Arc<dyn FileIo>,
    wal: &PathBuf,
    snap: &PathBuf,
    recorder: Recorder,
) -> Result<(Arc<CityIngest>, Arc<EngineSlot>), prim_ingest::IngestError> {
    let ckpt = load();
    let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    let slot = EngineSlot::new(Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        recorder,
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
            wal_segment_bytes: sc.segment_bytes,
        },
    )?;
    Ok((ingest, slot))
}

/// Published POI-table bits of a clean pipeline that staged exactly the
/// first `j` mutations of the scenario's script, flushed once and never
/// reopened, so it never read a snapshot — the oracle the snapshot
/// recovery path must reproduce bitwise.
fn expected_bits(sc: Scenario, j: usize) -> Vec<u32> {
    type Oracles = HashMap<(&'static str, usize), Vec<u32>>;
    static CACHE: OnceLock<Mutex<Oracles>> = OnceLock::new();
    // Held while the oracle runs: tests asking for the same prefix
    // concurrently would otherwise share, and delete, one WAL directory.
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap();
    if let Some(b) = cache.get(&(sc.name, j)) {
        return b.clone();
    }
    let scratch = Scratch::new("compaction-chaos-oracle");
    let ckpt = load();
    let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    let slot = EngineSlot::new(Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::disabled(),
    )));
    let ingest = CityIngest::open_replicated(
        Some(ckpt),
        scratch.path("oracle.wal"),
        scratch.path("oracle.snap"),
        Arc::new(RealIo),
        Arc::clone(&slot),
        EngineOpts::default(),
        IngestOpts {
            batch_max: 1000,
            ..IngestOpts::default()
        },
    )
    .unwrap();
    let muts = (sc.script)(&load());
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
    cache.insert((sc.name, j), bits.clone());
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
    run_until_death_with(PER_RECORD, plan, wal, snap, cadence)
}

/// [`run_until_death`] over the scenario's script and WAL segments.
fn run_until_death_with(
    sc: Scenario,
    plan: FaultPlan,
    wal: &PathBuf,
    snap: &PathBuf,
    cadence: usize,
) -> Option<usize> {
    let _ = std::fs::remove_dir_all(wal);
    let _ = std::fs::remove_dir_all(snap);
    let io = Arc::new(ChaosIo::with_plan(plan));
    let (ingest, _slot) = match open_repl_with(sc, io, wal, snap, Recorder::disabled()) {
        Ok(p) => p,
        Err(_) => return None,
    };
    let mut acked = 0;
    for (i, m) in (sc.script)(&load()).into_iter().enumerate() {
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
    assert_converges_with(PER_RECORD, wal, snap, acked, label);
}

/// [`assert_converges`] for the scenario; returns the recovered
/// pipeline's status.
fn assert_converges_with(
    sc: Scenario,
    wal: &PathBuf,
    snap: &PathBuf,
    acked: usize,
    label: &str,
) -> IngestStatus {
    let (ingest, slot) = open_repl_with(sc, Arc::new(RealIo), wal, snap, Recorder::disabled())
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
        expected_bits(sc, acked),
        "{label}: recovered store must be bitwise the clean-prefix store"
    );
    status
}

/// Clean run: snapshots actually bound the log (every flushed segment is
/// pruned) and recovery starts from the snapshot, not seq 1.
#[test]
fn snapshots_prune_covered_segments() {
    let scratch = Scratch::new("compaction-chaos");
    let wal = scratch.path("prune.wal");
    let snap = scratch.path("prune.snap");
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
}

/// Exhaustive sweep: kill every file operation (appends, snapshot slot
/// writes, `LATEST` updates, prunes) and demand bitwise convergence.
#[test]
fn kill_at_every_op_recovers_pre_or_post_compaction() {
    let scratch = Scratch::new("compaction-chaos");
    let probe_wal = scratch.path("probe.wal");
    let probe_snap = scratch.path("probe.snap");
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
        let wal = scratch.path(&format!("kill-{at}.wal"));
        let snap = scratch.path(&format!("kill-{at}.snap"));
        match run_until_death(FaultPlan::kill_at(at), &wal, &snap, 2) {
            None => assert_eq!(at, 0, "only the open may abort the pipeline"),
            Some(acked) => assert_converges(&wal, &snap, acked, &format!("kill@{at}")),
        }
        let _ = std::fs::remove_dir_all(&wal);
        let _ = std::fs::remove_dir_all(&snap);
    }
}

/// First seq of the newest WAL segment file in `wal` (0 when none).
fn newest_segment(wal: &PathBuf) -> u64 {
    std::fs::read_dir(wal)
        .unwrap()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let digits = name.to_str()?.strip_prefix("wal-")?.strip_suffix(".seg")?;
            digits.parse().ok()
        })
        .max()
        .unwrap_or(0)
}

/// Multi-record segments: a flush snapshots only when the log has rolled
/// to a segment that starts after the newest snapshot (and times only
/// those flushes in `ingest/snapshot_ms`), and a reopen replays at most
/// one segment plus one flush interval of records.
#[test]
fn multi_record_segments_snapshot_only_after_a_roll() {
    let sc = MULTI_RECORD;
    let scratch = Scratch::new("compaction-chaos");
    let wal = scratch.path("roll.wal");
    let snap = scratch.path("roll.snap");
    let muts = (sc.script)(&load());
    let cadence = 2;
    let recorder = Recorder::enabled("compaction-chaos");
    let (ingest, _slot) =
        open_repl_with(sc, Arc::new(RealIo), &wal, &snap, recorder.clone()).unwrap();
    let (mut taken, mut skipped) = (0, 0);
    for (i, m) in muts.iter().cloned().enumerate() {
        ingest.stage(m).unwrap();
        // The final interval stays unflushed, so the reopen has a tail.
        if (i + 1) % cadence != 0 || i + 1 == muts.len() {
            continue;
        }
        let before = ingest.status().snapshot_seq;
        let rolled = newest_segment(&wal) > before;
        ingest.flush();
        let after = ingest.status();
        if rolled {
            assert_eq!(
                after.snapshot_seq,
                after.next_seq - 1,
                "flush after mutation {i}: the log rolled past snapshot {before}"
            );
            taken += 1;
        } else {
            assert_eq!(
                after.snapshot_seq, before,
                "flush after mutation {i}: no roll since snapshot {before}"
            );
            skipped += 1;
        }
    }
    assert!(
        taken >= 2 && skipped >= 2,
        "the scenario must take and skip snapshots ({taken} taken, {skipped} skipped)"
    );
    let timed = recorder.scalar_summary("ingest/snapshot_ms").unwrap();
    assert_eq!(timed.count, taken, "one snapshot_ms sample per snapshot");
    drop(ingest);

    // The most records one segment can hold: appends land while it is
    // under budget.
    let sizes: Vec<usize> = muts.iter().map(|m| encode_record(1, m).len()).collect();
    let per_segment = (0..sizes.len())
        .map(|i| {
            let mut len = 0;
            sizes[i..]
                .iter()
                .take_while(|&&s| {
                    let open = len < sc.segment_bytes;
                    len += s;
                    open
                })
                .count()
        })
        .max()
        .unwrap() as u64;
    let status = assert_converges_with(sc, &wal, &snap, muts.len(), "multi-record reopen");
    assert!(status.snapshot_seq > 0, "recovery starts from a snapshot");
    assert_eq!(status.applied, muts.len() as u64 - status.snapshot_seq);
    assert!(
        (1..=per_segment + cadence as u64).contains(&status.applied),
        "reopen replayed {} records; one segment holds at most {per_segment}, \
         one flush interval {cadence}",
        status.applied
    );
}

/// The kill-anywhere sweep with multi-record segments: kills land on
/// flushes that snapshot and on flushes that skip the snapshot, and every
/// recovery still converges bitwise to the acknowledged prefix.
#[test]
fn kill_at_every_op_with_multi_record_segments_converges() {
    let sc = MULTI_RECORD;
    let cadence = 2;
    let scratch = Scratch::new("compaction-chaos");
    let probe_wal = scratch.path("multi-probe.wal");
    let probe_snap = scratch.path("multi-probe.snap");
    let io = Arc::new(ChaosIo::counting());
    let snapshots = {
        let io = io.clone() as Arc<dyn FileIo>;
        let (ingest, _slot) =
            open_repl_with(sc, io, &probe_wal, &probe_snap, Recorder::disabled()).unwrap();
        let mut snapshots = 0;
        for (i, m) in (sc.script)(&load()).into_iter().enumerate() {
            ingest.stage(m).unwrap();
            if (i + 1) % cadence == 0 {
                let before = ingest.status().snapshot_seq;
                ingest.flush();
                snapshots += usize::from(ingest.status().snapshot_seq != before);
            }
        }
        snapshots
    };
    let flushes = (sc.script)(&load()).len() / cadence;
    assert!(
        snapshots >= 2 && snapshots < flushes,
        "some flushes must skip the snapshot ({snapshots} of {flushes} snapshot)"
    );
    let total_ops = io.ops();
    for at in 0..total_ops {
        let wal = scratch.path(&format!("multi-kill-{at}.wal"));
        let snap = scratch.path(&format!("multi-kill-{at}.snap"));
        match run_until_death_with(sc, FaultPlan::kill_at(at), &wal, &snap, cadence) {
            None => assert_eq!(at, 0, "only the open may abort the pipeline"),
            Some(acked) => {
                assert_converges_with(sc, &wal, &snap, acked, &format!("multi kill@{at}"));
            }
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
        let scratch = Scratch::new("compaction-chaos");
        let wal = scratch.path(&format!("prop-{at}-{cadence}.wal"));
        let snap = scratch.path(&format!("prop-{at}-{cadence}.snap"));
        match run_until_death(FaultPlan::kill_at(at), &wal, &snap, cadence) {
            None => prop_assert_eq!(at, 0),
            Some(acked) => assert_converges(&wal, &snap, acked, &format!("prop kill@{at}/{cadence}")),
        }
    }
}
