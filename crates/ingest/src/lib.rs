//! Streaming POI onboarding for a running PRIM serving process.
//!
//! A trained checkpoint freezes a city; real cities do not hold still.
//! This crate accepts a stream of mutations — new POIs, new relationship
//! edges, retirements — while the serving layer keeps answering queries,
//! and folds them into the published embeddings with three guarantees:
//!
//! 1. **Durability before acknowledgement.** Every mutation is appended
//!    to a per-city write-ahead log ([`wal::MutationWal`]) and fsynced
//!    before the client sees `ok`. The log is built on
//!    [`prim_serve::FileIo`], so the chaos harness can kill or tear any
//!    write; on reopen the torn tail is truncated and the clean prefix
//!    replayed, converging bitwise to a process that staged exactly those
//!    mutations.
//! 2. **Incremental, bitwise-exact re-embedding.** A batch of mutations
//!    changes the final embeddings of a bounded *affected set*: the
//!    mutated POIs and edge endpoints, everything within the spatial
//!    radius of an inserted or retired point (their attention lists
//!    changed), everything within `n_layers` graph hops of those (their
//!    post-layer rows changed), and everything within the spatial radius
//!    of *that* set (their attention sources changed). The batch embeds
//!    only this set via [`prim_core::ModelInputs::build_subset`] — whose
//!    ring-set construction reproduces the full forward pass bit for bit
//!    — and scatters the rows into a copy of the published table. Every
//!    row the pipeline does not recompute is provably identical to a
//!    from-scratch re-embed of the mutated city.
//! 3. **Lock-free publish.** Each applied batch builds a fresh
//!    [`EmbeddingStore`] (shared scalar tables, updated grid, quant rows
//!    restaged / appended next to the still-sealed HNSW graph) and swaps
//!    it through the tenant's [`EngineSlot`]. Readers resolve an engine
//!    `Arc` per request and never observe a half-updated store; in-flight
//!    queries finish against the snapshot they started with.
//!
//! The spatial geometry uses the city's *frozen-projection* grid: the
//! equirectangular reference latitude is fixed at checkpoint load, so a
//! newcomer changes distances only inside its own neighbourhood rather
//! than perturbing every projected coordinate. The from-scratch oracle
//! for all parity claims is [`prim_core::ModelInputs::build_with_grid`]
//! over the same frozen grid.
//!
//! On top of durability the crate layers *availability*:
//!
//! 4. **Bounded recovery.** Every pipeline opens over two directories,
//!    its segmented WAL and its snapshot rotation
//!    ([`CityIngest::open_replicated`]). The first `ingest_flush` publish
//!    after the log rolls to a new segment writes a snapshot checkpoint
//!    (carrying the WAL high-water seq and the frozen-grid provenance as
//!    `ingest.*` tensors, and the published tables and sealed HNSW graph
//!    as its served section) through a [`prim_serve::CkptRotator`] and
//!    prunes the segments the previous snapshot covers. Recovery is "load
//!    the newest valid snapshot (the base checkpoint before the first
//!    one) + replay the WAL tail" — at most about one segment plus one
//!    flush interval of records, one segment in memory at a time,
//!    regardless of how many mutations the city has ever accepted.
//! 5. **Warm-standby replication.** A follower ([`repl::ReplFollower`])
//!    pulls acknowledged records over the ordinary JSONL protocol
//!    (`repl_sync`), applies them through the same incremental re-embed
//!    path, publishes through its own [`EngineSlot`], and serves reads
//!    the whole time; `promote` flips it to accepting writes. Records
//!    travel as the WAL's own wire bytes, so a promoted follower's state
//!    is bitwise the primary's at the acknowledged seq — never a
//!    re-parsed approximation.

pub mod repl;
pub mod wal;

pub use repl::{
    hex_decode, hex_encode, parse_sync_frame, ReplError, ReplFollower, ReplLink, SyncFrame,
    SyncProgress,
};
pub use wal::{
    decode_records, encode_record, Decoded, Mutation, MutationWal, ReplayError, WalError, WalTail,
    DEFAULT_SEGMENT_BYTES, WAL_MAGIC,
};

use prim_core::ModelInputs;
use prim_core::{PrimConfig, PrimModel};
use prim_geo::GridIndex;
use prim_geo::Location;
use prim_graph::{CategoryId, EdgeIncidence, HeteroGraph, Poi, PoiId, RelationId, Taxonomy};
use prim_obs::json::{self, Value};
use prim_obs::{Counter, Recorder};
use prim_serve::{
    encode_checkpoint_ingest, CkptError, CkptRotator, EmbeddingStore, EngineOpts, EngineSlot,
    FileIo, IngestBackend, IngestSnapshotState, PrimCheckpoint, ServeEngine,
};
use prim_tensor::Matrix;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tuning knobs for the ingest pipeline.
#[derive(Clone, Debug)]
pub struct IngestOpts {
    /// Auto-apply threshold: staging the `batch_max`-th mutation applies
    /// the batch inline (clients can force an earlier apply with the
    /// `ingest_flush` op). Smaller batches shrink the staleness window;
    /// larger ones amortise the subset embed.
    pub batch_max: usize,
    /// Active-WAL-segment byte budget: appends roll to a fresh segment
    /// file past this, and compaction prunes whole segments. It is also
    /// the snapshot cadence: a flush snapshots only after a roll, so
    /// recovery replays at most about one segment plus one flush
    /// interval. Smaller segments snapshot and compact sooner, at the
    /// cost of more snapshot writes and files; 1 gives every record its
    /// own segment and snapshots every flush.
    pub wal_segment_bytes: usize,
}

impl Default for IngestOpts {
    fn default() -> Self {
        IngestOpts {
            batch_max: 32,
            wal_segment_bytes: wal::DEFAULT_SEGMENT_BYTES,
        }
    }
}

/// Delta-segment floor before a publish re-seals the HNSW graph.
const RESEAL_MIN: usize = 256;

/// A publish re-seals the HNSW graph when the delta segment exceeds
/// `sealed_len / RESEAL_FRAC` or [`RESEAL_MIN`], whichever is larger.
const RESEAL_FRAC: usize = 4;

/// Snapshot checkpoints the rotator retains.
const SNAPSHOT_RETAIN: usize = 2;

/// Failure opening the ingest pipeline.
#[derive(Debug)]
pub enum IngestError {
    /// The checkpoint would not restore: its parameters do not fit its
    /// config.
    Ckpt(CkptError),
    /// The WAL would not open or decode.
    Wal(WalError),
    /// A durable WAL record failed revalidation against the state it is
    /// replayed onto — the log belongs to a different checkpoint.
    Replay(String),
    /// The snapshot rotation directory is unusable, or the open found
    /// neither a valid snapshot nor a base checkpoint to start from.
    Snapshot(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Ckpt(e) => write!(f, "ingest open: {e}"),
            IngestError::Wal(e) => write!(f, "ingest open: {e}"),
            IngestError::Replay(msg) => write!(f, "ingest replay: {msg}"),
            IngestError::Snapshot(msg) => write!(f, "ingest snapshot: {msg}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Why a staged mutation was refused.
#[derive(Debug)]
pub enum StageError {
    /// The mutation fails validation against the current (applied +
    /// staged) city state; nothing was written.
    Invalid(String),
    /// The WAL append failed; the mutation is *not* durable and must be
    /// treated as rejected (a torn partial record, if any, is truncated
    /// on the next open).
    Wal(WalError),
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::Invalid(msg) => write!(f, "{msg}"),
            StageError::Wal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StageError {}

/// Acknowledgement for one staged mutation.
#[derive(Debug, Clone, Copy)]
pub struct StageReceipt {
    /// The mutation's WAL sequence number (durable before return).
    pub seq: u64,
    /// For `add_poi`: the id assigned to the new POI.
    pub poi: Option<u32>,
    /// Mutations applied (made query-visible) by this call — non-zero
    /// when the stage tripped the `batch_max` auto-apply.
    pub applied: usize,
    /// Mutations staged-but-not-yet-visible after this call.
    pub backlog: usize,
}

/// A point-in-time summary of the pipeline (the `ingest_status` op).
#[derive(Debug, Clone, Copy)]
pub struct IngestStatus {
    /// Staged, durable, not yet query-visible.
    pub staged: usize,
    /// Mutations applied since the checkpoint (replay included).
    pub applied: u64,
    /// POIs in the mutated city (retired ids included).
    pub n_pois: usize,
    /// Sequence number the next append will use.
    pub next_seq: u64,
    /// Rows the published ANN serves from the linear-scanned delta
    /// segment (0 for exact-only stores and right after a re-seal).
    pub delta_rows: usize,
    /// Durable bytes across all WAL segments.
    pub wal_bytes: u64,
    /// Number of WAL segment files.
    pub wal_segments: usize,
    /// High-water seq of the newest snapshot checkpoint (0 = none yet).
    pub snapshot_seq: u64,
}

/// Mutable city state behind the pipeline's single writer lock. Readers
/// never touch this — they go through the [`EngineSlot`].
struct Inner {
    graph: HeteroGraph,
    /// Each POI's edges in `graph`, updated with every graph mutation so
    /// the frontier walk and [`ModelInputs::build_subset`] never scan the
    /// city's whole edge list.
    incidence: EdgeIncidence,
    taxonomy: Taxonomy,
    attrs: Matrix,
    cfg: PrimConfig,
    model: PrimModel,
    /// Frozen-projection grid (reference latitude fixed at open) that
    /// both the model's spatial attention and the serving store's
    /// candidate search read; cloned into every published store. Radius
    /// queries answer the same at any cell size, so it uses the serving
    /// store's cell floor. Its tombstones are the record of which POIs
    /// are retired.
    grid: GridIndex,
    locations: Vec<Location>,
    wal: MutationWal,
    staged: Vec<Mutation>,
    /// `add_poi` mutations currently staged (fixes id assignment).
    staged_new: usize,
    /// `retire_poi` targets currently staged (validation sees them).
    staged_retired: Vec<u32>,
    applied: u64,
    /// POI count of the original training population — the frozen grid's
    /// build set, persisted into every snapshot.
    base_pois: usize,
    /// High-water seq of the newest snapshot checkpoint (0 = none).
    snapshot_seq: u64,
    /// Path of that snapshot, served to bootstrapping followers.
    snapshot_path: Option<PathBuf>,
}

impl Inner {
    fn is_retired(&self, poi: u32) -> bool {
        (poi as usize) < self.grid.len() && !self.grid.is_live(poi as usize)
            || self.staged_retired.contains(&poi)
    }

    /// Validates a mutation against the *effective* city: applied state
    /// plus everything staged ahead of it. All failure modes here are
    /// client errors; internal mutation application never panics on
    /// anything this admits.
    fn validate(&self, m: &Mutation) -> Result<(), String> {
        let n_eff = self.graph.num_pois() + self.staged_new;
        match m {
            Mutation::AddPoi {
                location,
                category,
                attrs,
            } => {
                if !location.lon.is_finite() || !(-180.0..=180.0).contains(&location.lon) {
                    return Err(format!("lon {} out of range", location.lon));
                }
                if !location.lat.is_finite() || !(-90.0..=90.0).contains(&location.lat) {
                    return Err(format!("lat {} out of range", location.lat));
                }
                if *category as usize >= self.taxonomy.num_categories() {
                    return Err(format!(
                        "category {category} out of range (city has {})",
                        self.taxonomy.num_categories()
                    ));
                }
                if attrs.len() != self.attrs.cols() {
                    return Err(format!(
                        "expected {} attrs, got {}",
                        self.attrs.cols(),
                        attrs.len()
                    ));
                }
                if attrs.iter().any(|a| !a.is_finite()) {
                    return Err("attrs must be finite".to_string());
                }
            }
            Mutation::AddEdge { src, dst, relation } => {
                if src == dst {
                    return Err("self-loop edges are not allowed".to_string());
                }
                for &end in [src, dst].iter() {
                    if *end as usize >= n_eff {
                        return Err(format!("poi {end} does not exist"));
                    }
                    if self.is_retired(*end) {
                        return Err(format!("poi {end} is retired"));
                    }
                }
                if *relation as usize >= self.graph.num_relations() {
                    return Err(format!(
                        "relation {relation} out of range (city has {})",
                        self.graph.num_relations()
                    ));
                }
            }
            Mutation::RetirePoi { poi } => {
                if *poi as usize >= n_eff {
                    return Err(format!("poi {poi} does not exist"));
                }
                if self.is_retired(*poi) {
                    return Err(format!("poi {poi} is already retired"));
                }
            }
        }
        Ok(())
    }

    /// Post-validation staging bookkeeping.
    fn note_staged(&mut self, m: &Mutation) {
        match m {
            Mutation::AddPoi { .. } => self.staged_new += 1,
            Mutation::RetirePoi { poi } => self.staged_retired.push(*poi),
            Mutation::AddEdge { .. } => {}
        }
    }
}

/// The streaming ingest pipeline of one city (one tenant).
///
/// Writer side: [`CityIngest::stage`] / [`CityIngest::flush`], single
/// writer behind a mutex. Reader side: untouched — queries keep
/// resolving engines through the shared [`EngineSlot`] this pipeline
/// publishes into. Wire it into the serving protocol with
/// [`prim_serve::TenantSpec::with_ingest`] (it implements
/// [`IngestBackend`]).
pub struct CityIngest {
    inner: Mutex<Inner>,
    slot: Arc<EngineSlot>,
    engine_opts: EngineOpts,
    recorder: Recorder,
    relation_names: Vec<String>,
    opts: IngestOpts,
    io: Arc<dyn FileIo>,
    /// Snapshot rotation directory: flushes snapshot into it after a WAL
    /// roll, and recovery and follower bootstrap read from it.
    rotator: CkptRotator,
    /// Run label stamped into snapshot checkpoints.
    run: String,
}

impl CityIngest {
    /// Opens the pipeline over its mutation WAL (a *directory* of
    /// segments) and its snapshot rotation directory. Recovery starts from
    /// the newest valid snapshot in `snapshot_dir`, publishing its store
    /// into `slot`, or else from `base`, which `slot` must already serve
    /// (`base` may be `None` when a snapshot is known to exist: follower
    /// bootstrap). It then replays the WAL past that point in `batch_max`
    /// batches, one segment in memory at a time, so that `slot` serves
    /// bitwise the store of a process that staged and applied exactly the
    /// logged mutations.
    ///
    /// Open restores the model from the checkpoint's parameters
    /// ([`PrimCheckpoint::restore_model`]) and takes the POI locations
    /// from its graph; it builds no city-wide [`ModelInputs`] unless a
    /// snapshot lacks its served section, when they are built once to
    /// recompute the store ([`EmbeddingStore::recomputed`]). Applies build
    /// only the inputs of their k-hop support.
    ///
    /// After open, the first `ingest_flush` publish after the WAL rolls to
    /// a new segment writes a snapshot checkpoint (ingest state included)
    /// into `snapshot_dir` through a [`CkptRotator`] and prunes the WAL
    /// segments the previous snapshot covers.
    pub fn open_replicated(
        base: Option<PrimCheckpoint>,
        wal_dir: impl Into<PathBuf>,
        snapshot_dir: impl Into<PathBuf>,
        io: Arc<dyn FileIo>,
        slot: Arc<EngineSlot>,
        engine_opts: EngineOpts,
        opts: IngestOpts,
    ) -> Result<Arc<Self>, IngestError> {
        let rotator = CkptRotator::new(snapshot_dir.into(), SNAPSHOT_RETAIN)
            .map_err(|e| IngestError::Snapshot(e.to_string()))?;
        let recovered = rotator
            .latest_valid()
            .filter(|(_, c)| c.ingest_state.is_some());
        let (ckpt, snapshot_path) = match recovered {
            Some((path, ckpt)) => (ckpt, Some(path)),
            None => (
                base.ok_or_else(|| {
                    IngestError::Snapshot(
                        "no valid ingest snapshot and no base checkpoint".to_string(),
                    )
                })?,
                None,
            ),
        };
        let model = ckpt.restore_model().map_err(IngestError::Ckpt)?;
        let locations: Vec<Location> = ckpt.graph.pois().iter().map(|p| p.location).collect();
        let cfg = ckpt.config.clone();
        let ing_state = ckpt.ingest_state.clone();
        let base_pois = ing_state
            .as_ref()
            .map_or(locations.len(), |s| s.base_pois as usize);
        let snapshot_seq = ing_state.as_ref().map_or(0, |s| s.snapshot_seq);
        // The serving store's grid: same frozen reference latitude as the
        // full-build oracle's internal grid, built over the base
        // population and grown insert-by-insert for snapshots, with a
        // snapshot's retirements tombstoned.
        let grid = ckpt.serving_grid(&locations);
        let mut wal = MutationWal::open(io.clone(), wal_dir).map_err(IngestError::Wal)?;
        wal.set_segment_bytes(opts.wal_segment_bytes);
        // Finish any compaction a crash interrupted (and drop segments a
        // bootstrap snapshot has made wholly redundant), then anchor a
        // fully-compacted log at the snapshot's numbering.
        wal.compact(snapshot_seq).map_err(IngestError::Wal)?;
        wal.ensure_seq(snapshot_seq + 1);
        let recorder = slot.get().recorder().clone();
        let relation_names = ckpt.relation_names.clone();
        // When recovering from a snapshot, publish its store *before*
        // tail replay: `apply_locked` scatters into the currently
        // published table, which must be the snapshot's — not whatever
        // stale base the slot was loaded with. A snapshot carries the
        // store its primary published (sealed graph and delta rows
        // included), so it is adopted; one without it is recomputed from
        // the model restored above, over inputs built for that alone.
        if ing_state.is_some() {
            let store = EmbeddingStore::adopted(&ckpt)
                .unwrap_or_else(|| EmbeddingStore::recomputed(&ckpt, &model, &ckpt.build_inputs()));
            slot.swap(Arc::new(ServeEngine::new(
                store,
                &engine_opts,
                recorder.clone(),
            )));
        }
        // Detached tail reader before `wal` moves into the inner state;
        // errors loudly if acknowledged seqs past the snapshot were
        // pruned out from under us.
        let tail = wal.tail(snapshot_seq).map_err(IngestError::Wal)?;
        let inner = Inner {
            incidence: EdgeIncidence::build(&ckpt.graph),
            graph: ckpt.graph,
            taxonomy: ckpt.taxonomy,
            attrs: ckpt.attrs,
            cfg,
            model,
            grid,
            locations,
            wal,
            staged: Vec::new(),
            staged_new: 0,
            staged_retired: Vec::new(),
            applied: 0,
            base_pois,
            snapshot_seq,
            snapshot_path,
        };
        let ingest = Arc::new(CityIngest {
            inner: Mutex::new(inner),
            slot,
            engine_opts,
            recorder,
            relation_names,
            opts,
            io,
            rotator,
            run: ckpt.run,
        });
        {
            let mut guard = ingest.inner.lock().unwrap();
            let mut replayed = 0u64;
            let batch_max = ingest.opts.batch_max;
            tail.for_each(&mut |_, m| {
                guard.validate(&m)?;
                guard.note_staged(&m);
                guard.staged.push(m);
                replayed += 1;
                if guard.staged.len() >= batch_max {
                    ingest.apply_locked(&mut guard);
                }
                Ok(())
            })
            .map_err(|e| match e {
                ReplayError::Wal(w) => IngestError::Wal(w),
                ReplayError::Sink(msg) => IngestError::Replay(msg),
            })?;
            ingest.apply_locked(&mut guard);
            if replayed > 0 {
                ingest.recorder.add(Counter::IngestReplayed, replayed);
            }
        }
        Ok(ingest)
    }

    /// Stages one mutation: validate, append durably to the WAL, and —
    /// when the backlog reaches `batch_max` — apply the batch inline.
    /// On `Ok` the mutation is durable; `receipt.applied > 0` means it
    /// is already query-visible.
    pub fn stage(&self, m: Mutation) -> Result<StageReceipt, StageError> {
        let mut inner = self.inner.lock().unwrap();
        if let Err(msg) = inner.validate(&m) {
            self.recorder.add(Counter::IngestRejected, 1);
            return Err(StageError::Invalid(msg));
        }
        let poi = match &m {
            Mutation::AddPoi { .. } => Some((inner.graph.num_pois() + inner.staged_new) as u32),
            _ => None,
        };
        let seq = match inner.wal.append(&m) {
            Ok(seq) => seq,
            Err(e) => {
                self.recorder.add(Counter::IngestRejected, 1);
                return Err(StageError::Wal(e));
            }
        };
        inner.note_staged(&m);
        inner.staged.push(m);
        self.recorder.add(Counter::IngestStaged, 1);
        let applied = if inner.staged.len() >= self.opts.batch_max {
            self.apply_locked(&mut inner)
        } else {
            0
        };
        let backlog = inner.staged.len();
        self.recorder
            .record_scalar("ingest/staged_backlog", backlog as f64);
        Ok(StageReceipt {
            seq,
            poi,
            applied,
            backlog,
        })
    }

    /// Applies every staged mutation now, returning how many became
    /// query-visible. The publish is followed by a snapshot checkpoint +
    /// WAL compaction when the log has rolled to a new segment since the
    /// newest snapshot ([`Self::open_replicated`]).
    pub fn flush(&self) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let applied = self.apply_locked(&mut inner);
        self.maybe_snapshot(&mut inner);
        applied
    }

    /// Writes a snapshot checkpoint covering every applied mutation and
    /// prunes the WAL segments the previous one covers — but only once the
    /// log has rolled to a segment that starts after the newest snapshot,
    /// since only such a snapshot lets compaction free a segment. Failures
    /// are swallowed after recording `ingest/snapshot_errors` — the
    /// previous snapshot plus the uncompacted WAL still recover everything
    /// acknowledged, and the next flush retries.
    fn maybe_snapshot(&self, inner: &mut Inner) {
        let high = inner.wal.next_seq() - 1;
        let rolled = inner.wal.active_first_seq() > inner.snapshot_seq;
        if high > inner.snapshot_seq && rolled && inner.staged.is_empty() {
            let t0 = Instant::now();
            let retired: Vec<u32> = (0..inner.grid.len())
                .filter(|&p| !inner.grid.is_live(p))
                .map(|p| p as u32)
                .collect();
            let state = IngestSnapshotState {
                snapshot_seq: high,
                base_pois: inner.base_pois as u64,
                retired,
            };
            // The published store is this state's: its tables and sealed
            // graph ride along, so recovery and follower bootstrap adopt
            // them instead of re-embedding.
            let published = self.slot.get();
            let bytes = encode_checkpoint_ingest(
                &self.run,
                &inner.model,
                &inner.graph,
                &inner.taxonomy,
                &inner.attrs,
                &self.relation_names,
                None,
                Some(published.store()),
                Some(&state),
            );
            // Compact to the *previous* snapshot, not the one just published:
            // the log always retains the newest interval `(prev_snapshot,
            // high]`, so a warm standby that is at most one flush behind can
            // tail it instead of falling below the floor and re-downloading
            // a full snapshot every round. The rotator keeps two snapshots
            // for the same reason — floor and recovery points stay aligned.
            let prev_snapshot = inner.snapshot_seq;
            let result = self
                .rotator
                .save(&*self.io, high as usize, &bytes)
                .and_then(|path| {
                    inner
                        .wal
                        .compact(prev_snapshot)
                        .map(|pruned| (path, pruned))
                        .map_err(|e| match e {
                            WalError::Io(io) => io,
                            other => std::io::Error::other(other.to_string()),
                        })
                });
            match result {
                Ok((path, pruned)) => {
                    inner.snapshot_seq = high;
                    inner.snapshot_path = Some(path);
                    self.recorder.add(Counter::IngestSnapshots, 1);
                    self.recorder.add(Counter::WalSegmentsPruned, pruned as u64);
                    self.recorder
                        .record_scalar("ingest/snapshot_ms", t0.elapsed().as_secs_f64() * 1e3);
                }
                Err(_) => {
                    self.recorder.record_scalar("ingest/snapshot_errors", 1.0);
                }
            }
        }
        self.recorder
            .record_scalar("ingest/wal_bytes", inner.wal.bytes() as f64);
        self.recorder
            .record_scalar("ingest/wal_segments", inner.wal.segments() as f64);
        self.recorder
            .record_scalar("ingest/snapshot_seq", inner.snapshot_seq as f64);
    }

    /// Current pipeline counters.
    pub fn status(&self) -> IngestStatus {
        let inner = self.inner.lock().unwrap();
        let store_n = self.slot.get().store().n_pois();
        let sealed = self
            .slot
            .get()
            .store()
            .ann
            .as_ref()
            .map(|a| a.len())
            .unwrap_or(store_n);
        IngestStatus {
            staged: inner.staged.len(),
            applied: inner.applied,
            n_pois: inner.graph.num_pois(),
            next_seq: inner.wal.next_seq(),
            delta_rows: store_n - sealed,
            wal_bytes: inner.wal.bytes(),
            wal_segments: inner.wal.segments(),
            snapshot_seq: inner.snapshot_seq,
        }
    }

    /// The slot this pipeline publishes into.
    pub fn slot(&self) -> &Arc<EngineSlot> {
        &self.slot
    }

    /// Applies the staged batch under the writer lock: mutate the city
    /// state, embed the affected set, scatter, publish. Returns the
    /// number of mutations applied.
    fn apply_locked(&self, inner: &mut Inner) -> usize {
        let batch = std::mem::take(&mut inner.staged);
        inner.staged_new = 0;
        inner.staged_retired.clear();
        if batch.is_empty() {
            return 0;
        }
        let t0 = Instant::now();
        let radius = inner.cfg.spatial_radius_km;

        // Phase 1 — mutate the city, collecting the *changed* set: the
        // mutated POIs and edge endpoints, plus every POI whose spatial
        // attention list changed (the ball of each inserted point, and
        // the pre-tombstone ball of each retired one — under the
        // neighbour cap, eviction and admission both happen only inside
        // those balls).
        let mut changed: BTreeSet<u32> = BTreeSet::new();
        let mut new_attr_rows: Vec<Vec<f32>> = Vec::new();
        for m in &batch {
            match m {
                Mutation::AddPoi {
                    location,
                    category,
                    attrs,
                } => {
                    let id = inner.graph.add_poi(Poi {
                        location: *location,
                        category: CategoryId(*category),
                    });
                    inner.incidence.add_poi();
                    new_attr_rows.push(attrs.clone());
                    inner.locations.push(*location);
                    let gi = inner.grid.insert(*location);
                    debug_assert_eq!(gi, id.0 as usize);
                    changed.insert(id.0);
                    for (nb, _) in inner.grid.within_radius(id.0 as usize, radius) {
                        changed.insert(nb as u32);
                    }
                }
                Mutation::AddEdge { src, dst, relation } => {
                    inner
                        .graph
                        .add_edge(PoiId(*src), PoiId(*dst), RelationId(*relation));
                    inner.incidence.add_edge(&inner.graph);
                    changed.insert(*src);
                    changed.insert(*dst);
                }
                Mutation::RetirePoi { poi } => {
                    let p = *poi as usize;
                    for (nb, _) in inner.grid.within_radius(p, radius) {
                        changed.insert(nb as u32);
                    }
                    for e in inner.graph.remove_edges_of(PoiId(*poi)) {
                        changed.insert(e.src.0);
                        changed.insert(e.dst.0);
                    }
                    inner.incidence.remove_edges_of(PoiId(*poi));
                    inner.grid.retire(p);
                    changed.insert(*poi);
                }
            }
        }
        if !new_attr_rows.is_empty() {
            let cols = inner.attrs.cols();
            let rows: Vec<Matrix> = new_attr_rows
                .iter()
                .map(|r| Matrix::from_vec(1, cols, r.clone()))
                .collect();
            let mut stack: Vec<&Matrix> = vec![&inner.attrs];
            stack.extend(rows.iter());
            inner.attrs = Matrix::vstack(&stack);
        }

        // Phase 2 — grow `changed` to the full affected set F: `n_layers`
        // graph hops (post-layer rows change within that distance of any
        // structural change), then the spatial ball of every hop-reached
        // POI (their attention *sources'* post-layer rows changed).
        let n = inner.graph.num_pois();
        let mut in_b = vec![false; n];
        let mut frontier: Vec<u32> = Vec::new();
        for &c in &changed {
            in_b[c as usize] = true;
            frontier.push(c);
        }
        for _ in 0..inner.cfg.n_layers {
            let mut next = Vec::new();
            for &v in &frontier {
                for u in inner.incidence.neighbors(&inner.graph, v) {
                    if !in_b[u as usize] {
                        in_b[u as usize] = true;
                        next.push(u);
                    }
                }
            }
            frontier = next;
        }
        let mut targets: BTreeSet<u32> = BTreeSet::new();
        for (i, &hit) in in_b.iter().enumerate().take(n) {
            if hit {
                targets.insert(i as u32);
                for (nb, _) in inner.grid.within_radius(i, radius) {
                    targets.insert(nb as u32);
                }
            }
        }
        let tvec: Vec<u32> = targets.into_iter().collect();

        // Phase 3 — embed the affected set.
        let extra = n - inner.model.n_poi_rows();
        if extra > 0 {
            inner.model.extend_pois(extra);
        }
        let sub = ModelInputs::build_subset(
            &inner.graph,
            &inner.incidence,
            &inner.taxonomy,
            &inner.attrs,
            &inner.grid,
            &tvec,
            &inner.cfg,
        );
        let table = inner.model.embed(&sub.inputs);

        // Phase 4 — scatter into a copy of the published table and swap
        // in a fresh engine. Readers keep the old Arc until they finish.
        let old_engine = self.slot.get();
        let old_store = old_engine.store();
        let dim = old_store.dim();
        let old_n = old_store.n_pois();
        let mut data = old_store.pois.data().to_vec();
        data.resize(n * dim, 0.0);
        for (i, &row) in sub.target_rows.iter().enumerate() {
            let g = sub.targets[i] as usize;
            data[g * dim..(g + 1) * dim].copy_from_slice(table.pois.row(row));
        }
        let pois = Matrix::from_vec(n, dim, data);
        let touched: Vec<usize> = sub
            .targets
            .iter()
            .map(|&g| g as usize)
            .filter(|&g| g < old_n)
            .collect();
        let mut store =
            old_store.published(pois, inner.locations.clone(), inner.grid.clone(), &touched);
        let reseal = match &store.ann {
            Some(ann) => {
                let sealed = ann.len();
                let floor = RESEAL_MIN.max(sealed / RESEAL_FRAC);
                (store.n_pois() - sealed > floor).then_some(ann.graph.params)
            }
            None => None,
        };
        if let Some(params) = reseal {
            store.build_ann(params);
            self.recorder.record_scalar("ingest/reseals", 1.0);
        }
        let engine = Arc::new(ServeEngine::new(
            store,
            &self.engine_opts,
            self.recorder.clone(),
        ));
        self.slot.swap(engine);

        inner.applied += batch.len() as u64;
        self.recorder
            .add(Counter::IngestApplied, batch.len() as u64);
        self.recorder.add(Counter::IngestBatches, 1);
        self.recorder
            .record_scalar("ingest/apply_ms", t0.elapsed().as_secs_f64() * 1e3);
        self.recorder
            .record_scalar("ingest/apply_targets", sub.targets.len() as f64);
        self.recorder
            .record_scalar("ingest/apply_support", sub.support.len() as f64);
        self.recorder.record_scalar("ingest/staged_backlog", 0.0);
        batch.len()
    }

    fn resolve_relation(&self, v: &Value) -> Result<u8, String> {
        let field = v
            .get("relation")
            .ok_or_else(|| "missing field \"relation\"".to_string())?;
        if let Some(name) = field.as_str() {
            return match self.relation_names.iter().position(|n| n == name) {
                Some(i) => Ok(i as u8),
                None => Err(format!("unknown relation {name:?}")),
            };
        }
        match field.as_f64() {
            Some(x) if x.fract() == 0.0 && (0.0..256.0).contains(&x) => Ok(x as u8),
            _ => Err("field \"relation\" must be a relation name or id".to_string()),
        }
    }

    fn receipt_fields(&self, r: StageReceipt) -> Vec<(&'static str, String)> {
        let mut fields = Vec::new();
        if let Some(p) = r.poi {
            fields.push(("poi", json::int(p as u64)));
        }
        fields.push(("seq", json::int(r.seq)));
        fields.push(("staged", json::int(r.backlog as u64)));
        fields.push(("applied", json::int(r.applied as u64)));
        fields
    }

    fn stage_op(&self, m: Mutation) -> Result<Vec<(&'static str, String)>, (String, String)> {
        match self.stage(m) {
            Ok(r) => Ok(self.receipt_fields(r)),
            Err(StageError::Invalid(msg)) => Err(("bad_request".to_string(), msg)),
            Err(StageError::Wal(e)) => Err(("wal_error".to_string(), e.to_string())),
        }
    }
}

fn need_f64(v: &Value, key: &str) -> Result<f64, (String, String)> {
    v.get(key).and_then(Value::as_f64).ok_or_else(|| {
        (
            "bad_request".to_string(),
            format!("missing numeric field {key:?}"),
        )
    })
}

fn need_index(v: &Value, key: &str) -> Result<u32, (String, String)> {
    match need_f64(v, key)? {
        x if x.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&x) => Ok(x as u32),
        _ => Err((
            "bad_request".to_string(),
            format!("field {key:?} must be a non-negative integer"),
        )),
    }
}

/// A sequence number / byte offset field: a non-negative integer exactly
/// representable in an f64 (seqs stay far below 2^53).
fn need_seq(v: &Value, key: &str) -> Result<u64, (String, String)> {
    match need_f64(v, key)? {
        x if x.fract() == 0.0 && (0.0..=9.007_199_254_740_992e15).contains(&x) => Ok(x as u64),
        _ => Err((
            "bad_request".to_string(),
            format!("field {key:?} must be a non-negative integer"),
        )),
    }
}

fn opt_seq(v: &Value, key: &str, default: u64) -> Result<u64, (String, String)> {
    if v.get(key).is_none() {
        return Ok(default);
    }
    need_seq(v, key)
}

impl IngestBackend for CityIngest {
    fn accepts(&self, op: &str) -> bool {
        matches!(
            op,
            "add_poi"
                | "add_edge"
                | "retire_poi"
                | "ingest_flush"
                | "ingest_status"
                | "repl_sync"
                | "repl_status"
        )
    }

    fn handle(&self, op: &str, v: &Value) -> Result<Vec<(&'static str, String)>, (String, String)> {
        match op {
            "add_poi" => {
                let lon = need_f64(v, "lon")?;
                let lat = need_f64(v, "lat")?;
                let category = need_index(v, "category")?;
                let attrs: Vec<f32> = match v.get("attrs").and_then(Value::as_arr) {
                    Some(items) => {
                        let mut out = Vec::with_capacity(items.len());
                        for it in items {
                            match it.as_f64() {
                                Some(x) => out.push(x as f32),
                                None => {
                                    return Err((
                                        "bad_request".to_string(),
                                        "field \"attrs\" must be an array of numbers".to_string(),
                                    ))
                                }
                            }
                        }
                        out
                    }
                    None => {
                        return Err((
                            "bad_request".to_string(),
                            "missing array field \"attrs\"".to_string(),
                        ))
                    }
                };
                self.stage_op(Mutation::AddPoi {
                    location: Location { lon, lat },
                    category,
                    attrs,
                })
            }
            "add_edge" => {
                let src = need_index(v, "src")?;
                let dst = need_index(v, "dst")?;
                let relation = self
                    .resolve_relation(v)
                    .map_err(|msg| ("bad_request".to_string(), msg))?;
                self.stage_op(Mutation::AddEdge { src, dst, relation })
            }
            "retire_poi" => {
                let poi = need_index(v, "poi")?;
                self.stage_op(Mutation::RetirePoi { poi })
            }
            "ingest_flush" => {
                let applied = self.flush();
                let status = self.status();
                Ok(vec![
                    ("applied", json::int(applied as u64)),
                    ("staged", json::int(status.staged as u64)),
                    ("n_pois", json::int(status.n_pois as u64)),
                ])
            }
            "ingest_status" => {
                let status = self.status();
                Ok(vec![
                    ("staged", json::int(status.staged as u64)),
                    ("applied", json::int(status.applied)),
                    ("n_pois", json::int(status.n_pois as u64)),
                    ("next_seq", json::int(status.next_seq)),
                    ("delta_rows", json::int(status.delta_rows as u64)),
                    ("reloads", json::int(self.slot.reloads())),
                    ("wal_bytes", json::int(status.wal_bytes)),
                    ("wal_segments", json::int(status.wal_segments as u64)),
                    ("snapshot_seq", json::int(status.snapshot_seq)),
                ])
            }
            "repl_sync" => {
                let from_seq = need_seq(v, "from_seq")?;
                let max_bytes = opt_seq(v, "max_bytes", 64 * 1024)?.clamp(1024, 1 << 22) as usize;
                let inner = self.inner.lock().unwrap();
                let floor = inner.wal.first_seq().saturating_sub(1);
                if from_seq >= floor {
                    // Tail mode: re-encode acknowledged records after
                    // `from_seq` as raw WAL record bytes — bitwise what
                    // the log holds, so the follower's CRC + seq checks
                    // apply unchanged to the wire.
                    let tail = inner
                        .wal
                        .tail(from_seq)
                        .map_err(|e| ("wal_error".to_string(), e.to_string()))?;
                    let (data, last) = tail
                        .collect_bytes(max_bytes)
                        .map_err(|e| ("wal_error".to_string(), e.to_string()))?;
                    let high = inner.wal.next_seq() - 1;
                    drop(inner);
                    self.recorder.add(Counter::ReplSyncs, 1);
                    Ok(vec![
                        ("mode", json::str("tail")),
                        ("from_seq", json::int(from_seq)),
                        ("last_seq", json::int(last)),
                        ("high_seq", json::int(high)),
                        ("data", json::str(&repl::hex_encode(&data))),
                    ])
                } else {
                    // The follower is behind the compaction floor: stream
                    // the snapshot that covers the pruned records.
                    let snap = inner
                        .snapshot_path
                        .clone()
                        .or_else(|| self.rotator.latest_path());
                    let Some(path) = snap else {
                        return Err((
                            "repl_gap".to_string(),
                            format!(
                                "seq {from_seq} is below the wal floor {floor} and no snapshot exists"
                            ),
                        ));
                    };
                    let snapshot_seq = inner.snapshot_seq;
                    drop(inner);
                    let offset = opt_seq(v, "offset", 0)? as usize;
                    let bytes = self
                        .io
                        .read(&path)
                        .map_err(|e| ("io_error".to_string(), e.to_string()))?;
                    if offset > bytes.len() {
                        return Err((
                            "bad_request".to_string(),
                            format!("offset {offset} beyond snapshot ({} bytes)", bytes.len()),
                        ));
                    }
                    let end = (offset + max_bytes).min(bytes.len());
                    self.recorder.add(Counter::ReplSyncs, 1);
                    Ok(vec![
                        ("mode", json::str("snapshot")),
                        ("snapshot_seq", json::int(snapshot_seq)),
                        ("offset", json::int(offset as u64)),
                        ("total", json::int(bytes.len() as u64)),
                        ("data", json::str(&repl::hex_encode(&bytes[offset..end]))),
                    ])
                }
            }
            "repl_status" => {
                let status = self.status();
                let inner = self.inner.lock().unwrap();
                let floor = inner.wal.first_seq().saturating_sub(1);
                drop(inner);
                Ok(vec![
                    ("role", json::str("primary")),
                    ("next_seq", json::int(status.next_seq)),
                    ("snapshot_seq", json::int(status.snapshot_seq)),
                    ("wal_floor", json::int(floor)),
                    ("wal_segments", json::int(status.wal_segments as u64)),
                    ("wal_bytes", json::int(status.wal_bytes)),
                ])
            }
            other => Err((
                "unknown_op".to_string(),
                format!("ingest does not handle {other:?}"),
            )),
        }
    }
}
