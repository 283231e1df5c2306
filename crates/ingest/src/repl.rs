//! Warm-standby replication: follower catch-up over the JSONL protocol.
//!
//! A follower is a complete ingest pipeline ([`crate::CityIngest`], with
//! its own WAL and snapshot directories) that, instead of taking writes
//! from clients, pulls acknowledged mutations from the primary with
//! `repl_sync` requests and re-applies them through the same incremental
//! re-embed path. It publishes through its own [`prim_serve::EngineSlot`],
//! so reads are served the whole time — before, during and after a
//! promotion — and a reader never observes a half-applied batch.
//!
//! The wire format is deliberately *bitwise*: tail frames carry raw WAL
//! record bytes (hex-encoded inside the JSON line), so the follower runs
//! the same CRC + contiguous-sequence validation on the network payload
//! that recovery runs on disk, and the textual JSON layer never rounds a
//! coordinate. Snapshot frames stream a checkpoint file in offset-sized
//! chunks; the follower assembles, validates and installs it through its
//! own rotator, then resumes tailing from the snapshot's seq. Losing the
//! link at any point is harmless — every request is parameterised by the
//! follower's durable position, so a reconnect resumes from the last
//! acknowledged seq (or the last persisted snapshot byte offset).
//!
//! `promote` flips one atomic: the follower starts accepting mutation
//! ops and refuses further sync rounds. Nothing else changes — the WAL,
//! snapshots and serving slot were live all along, which is what makes
//! the promoted store bitwise-identical to a from-scratch rebuild of the
//! acknowledged history (the chaos suite asserts exactly that).

use crate::wal::{decode_records, WalError};
use crate::{CityIngest, IngestError, IngestOpts, Mutation, StageError};
use prim_obs::json::{self, Value};
use prim_obs::{Counter, Recorder};
use prim_serve::{
    decode_bytes, decode_checkpoint, CkptRotator, EngineOpts, EngineSlot, FileIo, IngestBackend,
    PrimCheckpoint,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Transport used for `repl_sync` requests: one JSON line out, one JSON
/// line back. Implemented by [`prim_serve::ChaosClient`] (real TCP, with
/// fault injection in tests) and by in-process shims.
pub trait ReplLink {
    /// Sends `line` (no trailing newline required) and returns the
    /// response line.
    fn request(&mut self, line: &str) -> std::io::Result<String>;
}

impl ReplLink for prim_serve::ChaosClient {
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        prim_serve::ChaosClient::request(self, line)
    }
}

/// Replication failure. Every variant is retryable by calling
/// [`ReplFollower::sync_round`] again — the follower's durable position
/// never advances past a failure.
#[derive(Debug)]
pub enum ReplError {
    /// The link itself failed (disconnect, stall, refused connection).
    Io(std::io::Error),
    /// The response line was not a decodable sync frame.
    Frame(String),
    /// The tail payload failed WAL record validation (CRC, sequence).
    Wal(WalError),
    /// A decoded record was rejected by the local pipeline — the
    /// follower has diverged from the primary.
    Apply(String),
    /// The primary answered with a structured error.
    Primary {
        /// Machine-readable error code (e.g. `"repl_gap"`).
        code: String,
        /// Human-readable detail.
        msg: String,
    },
    /// This follower has been promoted; it no longer syncs.
    Promoted,
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Io(e) => write!(f, "repl link: {e}"),
            ReplError::Frame(msg) => write!(f, "repl frame: {msg}"),
            ReplError::Wal(e) => write!(f, "repl payload: {e}"),
            ReplError::Apply(msg) => write!(f, "repl apply: {msg}"),
            ReplError::Primary { code, msg } => write!(f, "primary error [{code}]: {msg}"),
            ReplError::Promoted => write!(f, "follower is promoted"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<std::io::Error> for ReplError {
    fn from(e: std::io::Error) -> Self {
        ReplError::Io(e)
    }
}

/// Lower-case hex encoding (the `data` field of sync frames).
pub fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
    out
}

/// Strict inverse of [`hex_encode`]: even length, `[0-9a-fA-F]` only.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("hex data has odd length".to_string());
    }
    let nib = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            other => Err(format!("invalid hex byte 0x{other:02x}")),
        }
    };
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nib(pair[0])? << 4) | nib(pair[1])?);
    }
    Ok(out)
}

/// One decoded `repl_sync` response.
#[derive(Debug, PartialEq)]
pub enum SyncFrame {
    /// Acknowledged records `(from_seq, last_seq]` as raw WAL bytes;
    /// `high_seq` is the primary's acknowledged high-water.
    Tail {
        /// The position the batch continues from (echo of the request).
        from_seq: u64,
        /// Last seq included in `data` (`from_seq` when empty).
        last_seq: u64,
        /// Primary's highest acknowledged seq.
        high_seq: u64,
        /// Concatenated WAL record bytes for seqs `from_seq+1..=last_seq`.
        data: Vec<u8>,
    },
    /// One chunk of a snapshot checkpoint covering seqs `..=snapshot_seq`.
    Snapshot {
        /// High-water seq the snapshot covers.
        snapshot_seq: u64,
        /// Byte offset of `data` inside the checkpoint file.
        offset: u64,
        /// Total checkpoint size in bytes.
        total: u64,
        /// The chunk.
        data: Vec<u8>,
    },
    /// Structured error from the primary.
    Error {
        /// Machine-readable code.
        code: String,
        /// Human-readable detail.
        msg: String,
    },
}

fn frame_seq(v: &Value, key: &str) -> Result<u64, ReplError> {
    match v.get(key).and_then(Value::as_f64) {
        Some(x) if x.fract() == 0.0 && (0.0..=9.007_199_254_740_992e15).contains(&x) => {
            Ok(x as u64)
        }
        _ => Err(ReplError::Frame(format!(
            "missing or invalid integer field {key:?}"
        ))),
    }
}

/// Decodes one `repl_sync` response line. Total: arbitrary bytes produce
/// a typed [`ReplError`], never a panic — fuzzed in `repl_fuzz.rs`.
pub fn parse_sync_frame(line: &str) -> Result<SyncFrame, ReplError> {
    let v = json::parse(line.trim()).map_err(ReplError::Frame)?;
    match v.get("ok") {
        Some(Value::Bool(true)) => {}
        Some(Value::Bool(false)) => {
            let code = v
                .get("code")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string();
            let msg = v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            return Ok(SyncFrame::Error { code, msg });
        }
        _ => return Err(ReplError::Frame("missing boolean field \"ok\"".to_string())),
    }
    let mode = v
        .get("mode")
        .and_then(Value::as_str)
        .ok_or_else(|| ReplError::Frame("missing string field \"mode\"".to_string()))?;
    let data = match v.get("data").and_then(Value::as_str) {
        Some(h) => hex_decode(h).map_err(ReplError::Frame)?,
        None => {
            return Err(ReplError::Frame(
                "missing string field \"data\"".to_string(),
            ))
        }
    };
    match mode {
        "tail" => {
            let from_seq = frame_seq(&v, "from_seq")?;
            let last_seq = frame_seq(&v, "last_seq")?;
            let high_seq = frame_seq(&v, "high_seq")?;
            if last_seq < from_seq || high_seq < last_seq {
                return Err(ReplError::Frame(format!(
                    "inconsistent tail seqs {from_seq}/{last_seq}/{high_seq}"
                )));
            }
            Ok(SyncFrame::Tail {
                from_seq,
                last_seq,
                high_seq,
                data,
            })
        }
        "snapshot" => {
            let snapshot_seq = frame_seq(&v, "snapshot_seq")?;
            let offset = frame_seq(&v, "offset")?;
            let total = frame_seq(&v, "total")?;
            if offset + data.len() as u64 > total {
                return Err(ReplError::Frame(format!(
                    "snapshot chunk [{offset}, +{}) overruns total {total}",
                    data.len()
                )));
            }
            Ok(SyncFrame::Snapshot {
                snapshot_seq,
                offset,
                total,
                data,
            })
        }
        other => Err(ReplError::Frame(format!("unknown sync mode {other:?}"))),
    }
}

/// Progress of one [`ReplFollower::sync_round`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncProgress {
    /// Applied `applied` records; `lag` acknowledged seqs still pending.
    Tail {
        /// Records applied this round.
        applied: u64,
        /// Primary high-water minus follower position after the round.
        lag: u64,
    },
    /// A snapshot chunk was buffered (`have` of `total` bytes).
    Snapshot {
        /// Bytes assembled so far.
        have: u64,
        /// Total snapshot size.
        total: u64,
    },
    /// A snapshot was installed and the pipeline reopened from it.
    Bootstrapped {
        /// Seq the installed snapshot covers.
        snapshot_seq: u64,
    },
}

/// In-flight snapshot assembly state.
struct SnapBuf {
    snapshot_seq: u64,
    bytes: Vec<u8>,
    total: u64,
}

/// A warm standby for one city: a replicated ingest pipeline plus the
/// pull loop that keeps it within one flush of the primary.
pub struct ReplFollower {
    city: String,
    wal_dir: PathBuf,
    snapshot_dir: PathBuf,
    io: Arc<dyn FileIo>,
    slot: Arc<EngineSlot>,
    engine_opts: EngineOpts,
    opts: IngestOpts,
    /// Swapped wholesale when a snapshot bootstrap reopens the pipeline.
    ingest: Mutex<Arc<CityIngest>>,
    snap: Mutex<Option<SnapBuf>>,
    promoted: AtomicBool,
    /// Primary's acknowledged high-water, from the last tail frame.
    primary_high: AtomicU64,
    /// Request chunk budget (bytes of records / snapshot per round).
    max_bytes: AtomicU64,
    recorder: Recorder,
}

impl ReplFollower {
    /// Opens a follower over its own WAL + snapshot directories,
    /// recovering local state first (newest local snapshot + WAL tail;
    /// `base` is the cold-start fallback). `slot` is the follower's own
    /// serving slot — load the base store into it before calling, exactly
    /// as for [`CityIngest::open_replicated`].
    #[allow(clippy::too_many_arguments)] // mirrors CityIngest::open_replicated
    pub fn new(
        base: Option<PrimCheckpoint>,
        city: impl Into<String>,
        wal_dir: impl Into<PathBuf>,
        snapshot_dir: impl Into<PathBuf>,
        io: Arc<dyn FileIo>,
        slot: Arc<EngineSlot>,
        engine_opts: EngineOpts,
        opts: IngestOpts,
    ) -> Result<Arc<Self>, IngestError> {
        let wal_dir = wal_dir.into();
        let snapshot_dir = snapshot_dir.into();
        let ingest = CityIngest::open_replicated(
            base,
            &wal_dir,
            &snapshot_dir,
            Arc::clone(&io),
            Arc::clone(&slot),
            engine_opts.clone(),
            opts.clone(),
        )?;
        let recorder = slot.get().recorder().clone();
        Ok(Arc::new(ReplFollower {
            city: city.into(),
            wal_dir,
            snapshot_dir,
            io,
            slot,
            engine_opts,
            opts,
            ingest: Mutex::new(ingest),
            snap: Mutex::new(None),
            promoted: AtomicBool::new(false),
            primary_high: AtomicU64::new(0),
            max_bytes: AtomicU64::new(256 * 1024),
            recorder,
        }))
    }

    /// Sets the per-round byte budget requested from the primary (the
    /// primary clamps it to its own bounds). Small budgets force
    /// multi-chunk snapshot streaming — chaos tests use this to exercise
    /// resume-from-offset.
    pub fn set_chunk_bytes(&self, bytes: u64) {
        self.max_bytes.store(bytes.max(1024), Ordering::Release);
    }

    /// The follower's current pipeline (replaced by snapshot bootstraps).
    pub fn ingest(&self) -> Arc<CityIngest> {
        self.ingest.lock().unwrap().clone()
    }

    /// The follower's serving slot (reads go here, always).
    pub fn slot(&self) -> &Arc<EngineSlot> {
        &self.slot
    }

    /// Highest seq applied *and durable* locally.
    pub fn synced_seq(&self) -> u64 {
        self.ingest().status().next_seq - 1
    }

    /// Seqs acknowledged by the primary that this follower has not yet
    /// applied (as of the last sync round).
    pub fn lag(&self) -> u64 {
        self.primary_high
            .load(Ordering::Acquire)
            .saturating_sub(self.synced_seq())
    }

    /// Whether `promote` has been called.
    pub fn is_promoted(&self) -> bool {
        self.promoted.load(Ordering::Acquire)
    }

    /// Flips the follower to accepting writes. Idempotent; returns the
    /// seq the first locally-accepted mutation will use. Reads were never
    /// interrupted — promotion changes only the write path.
    pub fn promote(&self) -> u64 {
        if !self.promoted.swap(true, Ordering::AcqRel) {
            self.recorder.add(Counter::Promotions, 1);
        }
        self.ingest().status().next_seq
    }

    /// One pull round: request everything after our durable position,
    /// apply what comes back. Returns what progressed; any error leaves
    /// the follower's durable state exactly where it was, so the caller
    /// just retries (reconnecting the link if needed).
    pub fn sync_round(&self, link: &mut dyn ReplLink) -> Result<SyncProgress, ReplError> {
        if self.is_promoted() {
            return Err(ReplError::Promoted);
        }
        let from = self.synced_seq();
        let offset = {
            let snap = self.snap.lock().unwrap();
            snap.as_ref().map_or(0, |s| s.bytes.len() as u64)
        };
        let req = json::obj(&[
            ("op", json::str("repl_sync")),
            ("city", json::str(&self.city)),
            ("from_seq", json::int(from)),
            ("offset", json::int(offset)),
            (
                "max_bytes",
                json::int(self.max_bytes.load(Ordering::Acquire)),
            ),
        ]);
        let line = link.request(&req)?;
        match parse_sync_frame(&line)? {
            SyncFrame::Error { code, msg } => {
                if code == "bad_request" && self.snap.lock().unwrap().is_some() {
                    // Our buffered offset no longer fits the primary's
                    // snapshot (it rotated underneath us): restart.
                    *self.snap.lock().unwrap() = None;
                    return Ok(SyncProgress::Snapshot { have: 0, total: 0 });
                }
                Err(ReplError::Primary { code, msg })
            }
            SyncFrame::Tail {
                from_seq,
                last_seq,
                high_seq,
                data,
            } => {
                self.primary_high.store(high_seq, Ordering::Release);
                *self.snap.lock().unwrap() = None;
                if from_seq != from {
                    return Err(ReplError::Frame(format!(
                        "tail answers from_seq {from_seq}, requested {from}"
                    )));
                }
                // The payload is validated exactly like an on-disk
                // segment: CRCs plus gap-free seqs starting at from+1. A
                // torn frame (stall, half-written line) surfaces as
                // `torn` and is retried without applying anything.
                let decoded = decode_records(&data, from + 1).map_err(ReplError::Wal)?;
                if decoded.torn {
                    return Err(ReplError::Frame("truncated record batch".to_string()));
                }
                if from + decoded.records.len() as u64 != last_seq {
                    return Err(ReplError::Frame(format!(
                        "tail promises seqs through {last_seq} but carries {}",
                        decoded.records.len()
                    )));
                }
                let ingest = self.ingest();
                let mut applied = 0u64;
                for (seq, m) in decoded.records {
                    applied += self.apply_one(&ingest, seq, m)?;
                }
                if applied > 0 {
                    // Publish, plus the primary's snapshot/compaction rule
                    // (snapshot once the local log has rolled), so a
                    // follower crash recovers to its synced position from
                    // a bounded WAL tail.
                    ingest.flush();
                    self.recorder.add(Counter::ReplApplied, applied);
                }
                Ok(SyncProgress::Tail {
                    applied,
                    lag: high_seq.saturating_sub(from + applied),
                })
            }
            SyncFrame::Snapshot {
                snapshot_seq,
                offset: got_offset,
                total,
                data,
            } => {
                let mut snap = self.snap.lock().unwrap();
                let restart = match snap.as_ref() {
                    Some(s) => s.snapshot_seq != snapshot_seq || s.total != total,
                    None => true,
                };
                if restart {
                    *snap = Some(SnapBuf {
                        snapshot_seq,
                        bytes: Vec::new(),
                        total,
                    });
                }
                let buf = snap.as_mut().unwrap();
                if got_offset != buf.bytes.len() as u64 {
                    // Chunk landed at the wrong position (primary rotated
                    // its snapshot, or the restart above reset us): drop
                    // it and re-request at our buffered offset.
                    return Ok(SyncProgress::Snapshot {
                        have: buf.bytes.len() as u64,
                        total: buf.total,
                    });
                }
                buf.bytes.extend_from_slice(&data);
                if (buf.bytes.len() as u64) < buf.total {
                    return Ok(SyncProgress::Snapshot {
                        have: buf.bytes.len() as u64,
                        total: buf.total,
                    });
                }
                let done = snap.take().unwrap();
                drop(snap);
                self.install_snapshot(done.snapshot_seq, &done.bytes)?;
                Ok(SyncProgress::Bootstrapped {
                    snapshot_seq: done.snapshot_seq,
                })
            }
        }
    }

    /// Applies one record through the regular staging path, insisting the
    /// local seq assignment matches the primary's.
    fn apply_one(&self, ingest: &CityIngest, seq: u64, m: Mutation) -> Result<u64, ReplError> {
        match ingest.stage(m) {
            Ok(receipt) => {
                if receipt.seq != seq {
                    return Err(ReplError::Apply(format!(
                        "primary seq {seq} landed locally as {}",
                        receipt.seq
                    )));
                }
                Ok(1)
            }
            Err(StageError::Invalid(msg)) => Err(ReplError::Apply(msg)),
            Err(StageError::Wal(e)) => Err(ReplError::Wal(e)),
        }
    }

    /// Validates an assembled snapshot, persists it through the local
    /// rotator, and reopens the pipeline from it. The new pipeline
    /// publishes the snapshot's store into the serving slot before this
    /// returns — readers flip atomically from old state to new.
    fn install_snapshot(&self, snapshot_seq: u64, bytes: &[u8]) -> Result<(), ReplError> {
        let ckpt = decode_bytes(bytes)
            .and_then(decode_checkpoint)
            .map_err(|e| ReplError::Frame(format!("snapshot does not decode: {e}")))?;
        match &ckpt.ingest_state {
            Some(st) if st.snapshot_seq == snapshot_seq => {}
            Some(st) => {
                return Err(ReplError::Frame(format!(
                    "snapshot covers seq {} but frames said {snapshot_seq}",
                    st.snapshot_seq
                )))
            }
            None => {
                return Err(ReplError::Frame(
                    "snapshot carries no ingest state".to_string(),
                ))
            }
        }
        drop(ckpt);
        let rot =
            CkptRotator::new(&self.snapshot_dir, crate::SNAPSHOT_RETAIN).map_err(ReplError::Io)?;
        rot.save(&*self.io, snapshot_seq as usize, bytes)
            .map_err(ReplError::Io)?;
        let fresh = CityIngest::open_replicated(
            None,
            &self.wal_dir,
            &self.snapshot_dir,
            Arc::clone(&self.io),
            Arc::clone(&self.slot),
            self.engine_opts.clone(),
            self.opts.clone(),
        )
        .map_err(|e| ReplError::Apply(e.to_string()))?;
        *self.ingest.lock().unwrap() = fresh;
        Ok(())
    }

    /// Pulls until the follower has applied everything the primary
    /// acknowledges (lag 0). Returns the synced seq.
    pub fn catch_up(&self, link: &mut dyn ReplLink) -> Result<u64, ReplError> {
        loop {
            match self.sync_round(link)? {
                SyncProgress::Tail { applied: 0, lag: 0 } => return Ok(self.synced_seq()),
                _ => continue,
            }
        }
    }
}

impl IngestBackend for ReplFollower {
    fn accepts(&self, op: &str) -> bool {
        op == "promote" || self.ingest().accepts(op)
    }

    fn handle(&self, op: &str, v: &Value) -> Result<Vec<(&'static str, String)>, (String, String)> {
        match op {
            "promote" => {
                let next_seq = self.promote();
                Ok(vec![
                    ("role", json::str("primary")),
                    ("next_seq", json::int(next_seq)),
                ])
            }
            "repl_status" => {
                let synced = self.synced_seq();
                let high = self.primary_high.load(Ordering::Acquire);
                let promoted = self.is_promoted();
                Ok(vec![
                    (
                        "role",
                        json::str(if promoted { "primary" } else { "follower" }),
                    ),
                    ("synced_seq", json::int(synced)),
                    ("primary_high", json::int(high)),
                    ("lag", json::int(high.saturating_sub(synced))),
                    ("promoted", promoted.to_string()),
                ])
            }
            "add_poi" | "add_edge" | "retire_poi" | "ingest_flush" if !self.is_promoted() => Err((
                "not_primary".to_string(),
                "this node is a standby; send writes to the primary or promote it".to_string(),
            )),
            _ => self.ingest().handle(op, v),
        }
    }
}
