//! Chaos-tested warm-standby replication and promotion.
//!
//! A follower ([`ReplFollower`]) pulls acknowledged records from a
//! primary over the JSONL protocol and re-applies them through its own
//! ingest pipeline. This suite attacks every stage of that loop:
//!
//! - torn response frames (any byte prefix) are typed errors that leave
//!   the follower's durable position untouched — a clean link then
//!   catches up to bitwise parity;
//! - snapshot bootstrap streams in chunks, survives disconnects (resume
//!   from the buffered offset) and primary-side snapshot rotation
//!   mid-assembly (restart, converge);
//! - killing the primary at **every** file operation and promoting the
//!   follower yields a store bitwise-identical to a clean pipeline that
//!   staged exactly the synced history, while a hammering reader thread
//!   observes zero failed reads across sync, death and promotion.

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_geo::Location;
use prim_ingest::{
    CityIngest, IngestOpts, Mutation, ReplError, ReplFollower, ReplLink, StageError, SyncProgress,
};
use prim_obs::json;
use prim_obs::Recorder;
use prim_serve::{
    decode_bytes, decode_checkpoint, encode_checkpoint, handle_line, ChaosIo, EmbeddingStore,
    EngineOpts, EngineSlot, FaultPlan, FileIo, IngestBackend, PrimCheckpoint, RealIo, ServeCtx,
    ServeEngine, TenantSpec,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
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
            "repl-chaos",
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

/// A primary: replicated ingest pipeline wired into a protocol context
/// so `repl_sync` travels the real request path.
struct Primary {
    ctx: ServeCtx,
    ingest: Arc<CityIngest>,
    slot: Arc<EngineSlot>,
}

fn open_primary(io: Arc<dyn FileIo>, wal: &PathBuf, snap: &PathBuf) -> Option<Primary> {
    let ckpt = load();
    let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    let engine = Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::disabled(),
    ));
    let slot = EngineSlot::new(Arc::clone(&engine));
    let ingest = CityIngest::open_replicated(
        Some(ckpt),
        wal,
        snap,
        io,
        Arc::clone(&slot),
        EngineOpts::default(),
        IngestOpts {
            batch_max: 1000,
            wal_segment_bytes: 1,
        },
    )
    .ok()?;
    let ctx = ServeCtx::multi(vec![TenantSpec::new("beijing", engine)
        .with_slot(Arc::clone(&slot))
        .with_ingest(Arc::clone(&ingest) as Arc<dyn IngestBackend>)]);
    Some(Primary { ctx, ingest, slot })
}

fn open_follower(wal: &PathBuf, snap: &PathBuf) -> (Arc<ReplFollower>, Arc<EngineSlot>) {
    let ckpt = load();
    let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    let slot = EngineSlot::new(Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::disabled(),
    )));
    let follower = ReplFollower::new(
        Some(ckpt),
        "beijing",
        wal,
        snap,
        Arc::new(RealIo),
        Arc::clone(&slot),
        EngineOpts::default(),
        IngestOpts {
            batch_max: 1000,
            wal_segment_bytes: 1,
        },
    )
    .unwrap();
    (follower, slot)
}

/// In-process link: requests go through the full protocol handler.
struct CtxLink<'a>(&'a ServeCtx);

impl ReplLink for CtxLink<'_> {
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        Ok(handle_line(self.0, line).response)
    }
}

/// A link that truncates the next response at a byte cut — a stalled or
/// half-written line on the wire.
struct TornLink<'a> {
    inner: CtxLink<'a>,
    cut: Option<usize>,
}

impl ReplLink for TornLink<'_> {
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        let full = self.inner.request(line)?;
        match self.cut.take() {
            Some(cut) => {
                let at = cut.min(full.len());
                // Cut on a char boundary (responses are ASCII, but be safe).
                let mut at = at;
                while !full.is_char_boundary(at) {
                    at -= 1;
                }
                Ok(full[..at].to_string())
            }
            None => Ok(full),
        }
    }
}

/// A link that drops the connection after `live` requests.
struct FlakyLink<'a> {
    inner: CtxLink<'a>,
    live: usize,
}

impl ReplLink for FlakyLink<'_> {
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        if self.live == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "link dropped",
            ));
        }
        self.live -= 1;
        self.inner.request(line)
    }
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

/// Clean-pipeline oracle: the published bits after staging exactly the
/// first `j` script mutations and flushing once. It never reopens, so it
/// never reads a snapshot.
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
    let scratch = Scratch::new("repl-chaos-oracle");
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
    for m in script(&load()).into_iter().take(j) {
        ingest.stage(m).unwrap();
    }
    ingest.flush();
    let bits = store_bits(&slot);
    cache.insert(j, bits.clone());
    bits
}

/// Fresh paths for `names` inside `scratch`.
fn clean_dirs(scratch: &Scratch, names: &[&str]) -> Vec<PathBuf> {
    names.iter().map(|n| scratch.path(n)).collect()
}

/// Tail replication: the follower tracks the primary bitwise, standbys
/// refuse writes, and `repl_status` reports the lag honestly.
#[test]
fn follower_tracks_primary_bitwise_and_refuses_writes() {
    let scratch = Scratch::new("repl-chaos");
    let d = clean_dirs(
        &scratch,
        &["track-p.wal", "track-p.snap", "track-f.wal", "track-f.snap"],
    );
    let primary = open_primary(Arc::new(RealIo), &d[0], &d[1]).unwrap();
    let (follower, fslot) = open_follower(&d[2], &d[3]);
    let mut link = CtxLink(&primary.ctx);

    // A standby bounces mutations with a typed error.
    let v = json::parse(r#"{"op": "retire_poi", "city": "beijing", "poi": 3}"#).unwrap();
    match follower.handle("retire_poi", &v) {
        Err((code, _)) => assert_eq!(code, "not_primary"),
        Ok(_) => panic!("standby accepted a write"),
    }

    for (i, m) in script(&load()).into_iter().enumerate() {
        primary.ingest.stage(m).unwrap();
        if i % 2 == 1 {
            primary.ingest.flush();
        }
        follower.catch_up(&mut link).unwrap();
        assert_eq!(follower.synced_seq(), i as u64 + 1, "after mutation {i}");
        assert_eq!(follower.lag(), 0);
    }
    // The primary applied everything it flushed; flush the remainder and
    // let the follower pull to full parity.
    primary.ingest.flush();
    follower.catch_up(&mut link).unwrap();
    assert_eq!(
        store_bits(&fslot),
        store_bits(&primary.slot),
        "follower must serve bitwise the primary's published store"
    );

    // repl_status through the backend: an honest follower view.
    let v = json::parse(r#"{"op": "repl_status", "city": "beijing"}"#).unwrap();
    let fields = follower.handle("repl_status", &v).unwrap();
    let get = |k: &str| {
        fields
            .iter()
            .find(|(n, _)| *n == k)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("repl_status lacks {k}"))
    };
    assert_eq!(get("role"), "\"follower\"");
    assert_eq!(get("lag"), "0");
    assert_eq!(get("synced_seq"), "6");
}

/// Torn frames at every cut: a typed error, no durable-state movement,
/// and a clean retry converges. Tail frames are swept densely; snapshot
/// frames (with a small chunk budget, so each response is a few KB) get
/// a bounded sweep across one chunk.
#[test]
fn torn_frames_never_corrupt_the_follower() {
    let scratch = Scratch::new("repl-chaos");
    let d = clean_dirs(
        &scratch,
        &["torn-p.wal", "torn-p.snap", "torn-f.wal", "torn-f.snap"],
    );
    let primary = open_primary(Arc::new(RealIo), &d[0], &d[1]).unwrap();
    let (follower, fslot) = open_follower(&d[2], &d[3]);
    // Stage without flushing: the WAL keeps every record, so from_seq 0
    // is above the compaction floor and the primary answers in tail mode.
    for m in script(&load()) {
        primary.ingest.stage(m).unwrap();
    }

    // Probe the response once to learn its length, through a pristine
    // follower position (the probe link is never allowed to succeed).
    let full = CtxLink(&primary.ctx)
        .request(r#"{"op": "repl_sync", "city": "beijing", "from_seq": 0, "offset": 0, "max_bytes": 1048576}"#)
        .unwrap();
    assert!(full.contains("\"tail\""), "expected a tail frame: {full}");
    assert!(full.len() > 64, "tail frame unexpectedly small");

    // Sweep byte cuts (dense at the front, regular across the body).
    let cuts: Vec<usize> = (0..32).chain((32..full.len()).step_by(7)).collect();
    for cut in cuts {
        let mut torn = TornLink {
            inner: CtxLink(&primary.ctx),
            cut: Some(cut),
        };
        match follower.sync_round(&mut torn) {
            Err(ReplError::Frame(_)) | Err(ReplError::Wal(_)) => {}
            Ok(p) => panic!("cut@{cut}: torn frame accepted: {p:?}"),
            Err(e) => panic!("cut@{cut}: unexpected error class: {e}"),
        }
        assert_eq!(follower.synced_seq(), 0, "cut@{cut}: durable state moved");
    }

    // Now raise the primary's compaction floor above seq 0 (two flushes:
    // the second prunes everything the first snapshot covers) so a
    // second, fresh follower must bootstrap — and sweep torn *snapshot*
    // frames too, with a small chunk budget.
    primary.ingest.flush();
    primary
        .ingest
        .stage(Mutation::RetirePoi { poi: 9 })
        .unwrap();
    primary.ingest.flush();
    let pstatus = primary.ingest.status();
    assert_eq!(pstatus.snapshot_seq, 7);
    assert_eq!(pstatus.wal_segments, 1, "floor must sit at the 6-snapshot");
    let d2 = clean_dirs(&scratch, &["torn-f2.wal", "torn-f2.snap"]);
    let (follower2, fslot2) = open_follower(&d2[0], &d2[1]);
    follower2.set_chunk_bytes(2048);
    let snap_frame = {
        let mut probe = CtxLink(&primary.ctx);
        // One un-torn round buffers chunk 0 and tells us the frame shape.
        match follower2.sync_round(&mut probe).unwrap() {
            SyncProgress::Snapshot { have, total } => assert!(have < total),
            p => panic!("expected a snapshot chunk, got {p:?}"),
        }
        probe
            .request(r#"{"op": "repl_sync", "city": "beijing", "from_seq": 0, "offset": 2048, "max_bytes": 2048}"#)
            .unwrap()
    };
    assert!(snap_frame.contains("\"snapshot\""));
    let before = 2048u64; // buffered by the probe round above
    for i in 0..16 {
        let cut = 1 + i * (snap_frame.len() - 2) / 16;
        let mut torn = TornLink {
            inner: CtxLink(&primary.ctx),
            cut: Some(cut),
        };
        match follower2.sync_round(&mut torn) {
            Err(ReplError::Frame(_)) | Err(ReplError::Wal(_)) => {}
            Ok(p) => panic!("snap cut@{cut}: torn frame accepted: {p:?}"),
            Err(e) => panic!("snap cut@{cut}: unexpected error class: {e}"),
        }
        assert_eq!(follower2.synced_seq(), 0, "snap cut@{cut}: seq moved");
    }

    // Clean links then converge both followers to parity: the first
    // (still at seq 0, now below the floor) bootstraps from the
    // snapshot; the second resumes its partially-assembled one.
    let mut link = CtxLink(&primary.ctx);
    follower.catch_up(&mut link).unwrap();
    assert_eq!(follower.synced_seq(), 7);
    assert_eq!(store_bits(&fslot), store_bits(&primary.slot));
    let mut resumed = None;
    loop {
        match follower2.sync_round(&mut link).unwrap() {
            SyncProgress::Snapshot { have, .. } => {
                if resumed.is_none() {
                    resumed = Some(have);
                }
            }
            SyncProgress::Bootstrapped { snapshot_seq } => {
                assert_eq!(snapshot_seq, 7);
                break;
            }
            SyncProgress::Tail { .. } => panic!("tail before bootstrap"),
        }
    }
    if let Some(have) = resumed {
        assert!(have > before, "torn frames must not reset assembly");
    }
    follower2.catch_up(&mut link).unwrap();
    assert_eq!(store_bits(&fslot2), store_bits(&primary.slot));
}

/// Snapshot bootstrap: a follower far behind the compaction floor
/// streams the snapshot in chunks, survives a dropped link mid-transfer
/// (resuming from its buffered offset), installs, then tails to parity.
#[test]
fn snapshot_bootstrap_chunks_and_resumes_across_disconnects() {
    let scratch = Scratch::new("repl-chaos");
    let d = clean_dirs(
        &scratch,
        &["boot-p.wal", "boot-p.snap", "boot-f.wal", "boot-f.snap"],
    );
    let primary = open_primary(Arc::new(RealIo), &d[0], &d[1]).unwrap();
    // Flush after every mutation: full compaction, so seq 0 is below the
    // WAL floor and a fresh follower must bootstrap from the snapshot.
    for m in script(&load()) {
        primary.ingest.stage(m).unwrap();
        primary.ingest.flush();
    }
    let pstatus = primary.ingest.status();
    // Retention keeps the newest flush interval, so exactly seq 6 survives;
    // a fresh follower at seq 0 still sits below the floor (5) and must
    // bootstrap from the snapshot.
    assert_eq!(pstatus.wal_segments, 1);
    assert_eq!(pstatus.snapshot_seq, 6);

    let (follower, fslot) = open_follower(&d[2], &d[3]);
    follower.set_chunk_bytes(1024); // force several chunks

    // First leg: a link that dies after two chunks.
    let mut flaky = FlakyLink {
        inner: CtxLink(&primary.ctx),
        live: 2,
    };
    let mut have_before_drop = 0;
    loop {
        match follower.sync_round(&mut flaky) {
            Ok(SyncProgress::Snapshot { have, total }) => {
                assert!(total > 2048, "snapshot too small to chunk: {total}");
                have_before_drop = have;
            }
            Ok(p) => panic!("bootstrap finished before the link died: {p:?}"),
            Err(ReplError::Io(_)) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(have_before_drop > 0, "no chunk landed before the drop");

    // Reconnect: assembly resumes from the buffered offset, not zero.
    let mut link = CtxLink(&primary.ctx);
    let mut resumed_have = None;
    let bootstrapped = loop {
        match follower.sync_round(&mut link).unwrap() {
            SyncProgress::Snapshot { have, .. } => {
                if resumed_have.is_none() {
                    resumed_have = Some(have);
                }
            }
            SyncProgress::Bootstrapped { snapshot_seq } => break snapshot_seq,
            SyncProgress::Tail { .. } => panic!("tail before bootstrap"),
        }
    };
    assert_eq!(bootstrapped, 6);
    assert!(
        resumed_have.unwrap_or(0) > have_before_drop,
        "resume must continue from the buffered offset"
    );
    follower.catch_up(&mut link).unwrap();
    assert_eq!(follower.synced_seq(), 6);
    assert_eq!(store_bits(&fslot), store_bits(&primary.slot));
    assert_eq!(store_bits(&fslot), expected_bits(6));
}

/// Snapshot rotation mid-assembly: the primary writes a newer snapshot
/// while the follower is still assembling the old one. The follower
/// restarts its buffer and converges on the new snapshot.
#[test]
fn snapshot_rotation_mid_assembly_restarts_cleanly() {
    let scratch = Scratch::new("repl-chaos");
    let d = clean_dirs(
        &scratch,
        &["rot-p.wal", "rot-p.snap", "rot-f.wal", "rot-f.snap"],
    );
    let primary = open_primary(Arc::new(RealIo), &d[0], &d[1]).unwrap();
    let muts = script(&load());
    // First four mutations, fully compacted.
    for m in muts.iter().take(4).cloned() {
        primary.ingest.stage(m).unwrap();
        primary.ingest.flush();
    }
    let (follower, fslot) = open_follower(&d[2], &d[3]);
    follower.set_chunk_bytes(1024);
    let mut link = CtxLink(&primary.ctx);

    // Pull exactly one chunk of the seq-4 snapshot...
    match follower.sync_round(&mut link).unwrap() {
        SyncProgress::Snapshot { have, total } => assert!(have > 0 && have < total),
        p => panic!("expected a snapshot chunk, got {p:?}"),
    }
    // ...then rotate the snapshot underneath the assembly.
    for m in muts.iter().skip(4).cloned() {
        primary.ingest.stage(m).unwrap();
        primary.ingest.flush();
    }
    assert_eq!(primary.ingest.status().snapshot_seq, 6);

    // The follower notices the seq/total change, restarts, bootstraps.
    let bootstrapped = loop {
        match follower.sync_round(&mut link).unwrap() {
            SyncProgress::Bootstrapped { snapshot_seq } => break snapshot_seq,
            SyncProgress::Snapshot { .. } | SyncProgress::Tail { .. } => continue,
        }
    };
    assert_eq!(bootstrapped, 6);
    follower.catch_up(&mut link).unwrap();
    assert_eq!(store_bits(&fslot), expected_bits(6));
}

/// The headline guarantee: kill the primary at every file operation,
/// promote the follower, and its store is bitwise a clean pipeline that
/// staged exactly the synced history — while a hammering reader thread
/// never sees a failed read across sync, death and promotion.
#[test]
fn kill_primary_at_every_op_promotes_bitwise() {
    // Probe: count the primary's file operations for the full scenario
    // (appends + snapshot writes + prunes + repl_sync segment reads).
    let muts = script(&load());
    let scratch = Scratch::new("repl-chaos");
    let probe = |io: Arc<dyn FileIo>, wal: &PathBuf, snap: &PathBuf| -> Option<usize> {
        let primary = open_primary(io, wal, snap)?;
        let fd = clean_dirs(&scratch, &["probe-f.wal", "probe-f.snap"]);
        let (follower, _fslot) = open_follower(&fd[0], &fd[1]);
        let mut link = CtxLink(&primary.ctx);
        let mut acked = 0;
        for (i, m) in muts.iter().cloned().enumerate() {
            match primary.ingest.stage(m) {
                Ok(_) => acked += 1,
                Err(StageError::Wal(_)) => break,
                Err(StageError::Invalid(e)) => panic!("unexpected rejection: {e}"),
            }
            if i % 2 == 1 {
                primary.ingest.flush();
            }
            if follower.catch_up(&mut link).is_err() {
                break; // primary died mid-sync; follower keeps its prefix
            }
        }
        Some(acked)
    };
    let pd = clean_dirs(&scratch, &["sweep-probe-p.wal", "sweep-probe-p.snap"]);
    let counting = Arc::new(ChaosIo::counting());
    probe(counting.clone() as Arc<dyn FileIo>, &pd[0], &pd[1]).unwrap();
    let total_ops = counting.ops();
    assert!(total_ops >= 15, "scenario too small: {total_ops} ops");

    let base = load();
    let a0 = base.graph.poi(prim_graph::PoiId(0)).location;
    let attr_dim = base.attrs.cols();

    for at in 0..total_ops {
        let d = clean_dirs(
            &scratch,
            &[
                &format!("sweep-{at}-p.wal"),
                &format!("sweep-{at}-p.snap"),
                &format!("sweep-{at}-f.wal"),
                &format!("sweep-{at}-f.snap"),
            ],
        );
        let primary = match open_primary(
            Arc::new(ChaosIo::with_plan(FaultPlan::kill_at(at))),
            &d[0],
            &d[1],
        ) {
            Some(p) => p,
            None => {
                assert_eq!(at, 0, "only the open may abort the primary");
                continue;
            }
        };
        let (follower, fslot) = open_follower(&d[2], &d[3]);

        // Reader thread: hammer the follower's serving slot for the whole
        // scenario. Any panic (= failed read) fails the test at join.
        let stop = Arc::new(AtomicBool::new(false));
        let (started, first_read) = std::sync::mpsc::channel();
        let reader = {
            let slot = Arc::clone(&fslot);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let engine = slot.get();
                    let top = engine.top_k_related(0, 2.0, 5, 0);
                    assert!(top.len() <= 5);
                    reads += 1;
                    if reads == 1 {
                        let _ = started.send(());
                    }
                    // Pace the hammering: the point is reads landing across
                    // every sync/promote transition, not CPU saturation
                    // (which starves the pipeline on small runners).
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                reads
            })
        };
        // Start the scenario only once the reader is reading: a kill at
        // one of the first operations can end the scenario before the
        // spawned thread is first scheduled.
        first_read
            .recv()
            .unwrap_or_else(|_| panic!("kill@{at}: the reader's first read failed"));

        let mut link = CtxLink(&primary.ctx);
        for (i, m) in muts.iter().cloned().enumerate() {
            match primary.ingest.stage(m) {
                Ok(_) => {}
                Err(StageError::Wal(_)) => break, // primary is dead
                Err(StageError::Invalid(e)) => panic!("kill@{at}: unexpected rejection: {e}"),
            }
            if i % 2 == 1 {
                primary.ingest.flush();
            }
            if follower.catch_up(&mut link).is_err() {
                break;
            }
        }
        // One last pull attempt (the primary may be dead — that's fine),
        // then fail over.
        let _ = follower.catch_up(&mut link);
        let synced = follower.synced_seq() as usize;
        let next = follower.promote();
        assert_eq!(next, synced as u64 + 1, "kill@{at}: promotion numbering");
        assert_eq!(
            store_bits(&fslot),
            expected_bits(synced),
            "kill@{at}: promoted store must be bitwise the synced history"
        );

        // The promoted node accepts writes, continuing the sequence.
        let receipt = follower
            .ingest()
            .stage(Mutation::AddPoi {
                location: Location::new(a0.lon + 0.004, a0.lat - 0.002),
                category: 0,
                attrs: vec![0.5; attr_dim],
            })
            .unwrap_or_else(|e| panic!("kill@{at}: promoted node refused a write: {e}"));
        assert_eq!(receipt.seq, synced as u64 + 1);

        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().expect("kill@{at}: a follower read failed");
        assert!(reads > 0, "kill@{at}: reader thread never ran");

        for p in d {
            let _ = std::fs::remove_dir_all(&p);
        }
    }
}

/// Regression: a POI retired on the primary must never surface in
/// `top_k_related` on a freshly promoted follower — exact or ANN path.
/// (The follower bootstraps from a snapshot, so this exercises the
/// frozen-grid reconstruction, not just live tombstoning.)
#[test]
fn retired_pois_never_served_after_promotion() {
    let scratch = Scratch::new("repl-chaos");
    let d = clean_dirs(
        &scratch,
        &["ret-p.wal", "ret-p.snap", "ret-f.wal", "ret-f.snap"],
    );
    let primary = open_primary(Arc::new(RealIo), &d[0], &d[1]).unwrap();
    let n = load().graph.num_pois() as u32;

    // Pre-retirement, poi 5 is a visible candidate from somewhere (the
    // assertion below would be vacuous otherwise).
    let base_engine = primary.slot.get();
    let mut seen = false;
    for src in 0..n {
        if src != 5
            && base_engine
                .top_k_related(src, 1.0e4, n as usize, 0)
                .iter()
                .any(|nb| nb.poi == 5)
        {
            seen = true;
            break;
        }
    }
    assert!(seen, "poi 5 never served pre-retirement; pick another id");

    // The script retires poi 5; flush everything so the follower must
    // bootstrap from the snapshot (frozen grid) rather than tail replay.
    for m in script(&load()) {
        primary.ingest.stage(m).unwrap();
        primary.ingest.flush();
    }
    let (follower, fslot) = open_follower(&d[2], &d[3]);
    let mut link = CtxLink(&primary.ctx);
    follower.catch_up(&mut link).unwrap();
    assert_eq!(follower.synced_seq(), 6);
    follower.promote();

    let engine = fslot.get();
    for src in 0..engine.store().pois.rows() as u32 {
        if src == 5 {
            continue;
        }
        for nb in engine.top_k_related(src, 1.0e4, n as usize + 8, 0) {
            assert_ne!(nb.poi, 5, "exact path served retired poi (src {src})");
        }
        let (ann, _) = engine.top_k_related_mode(src, 1.0e4, n as usize + 8, 0, false);
        for nb in ann {
            assert_ne!(nb.poi, 5, "ann path served retired poi (src {src})");
        }
    }
}
