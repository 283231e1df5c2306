//! The durable, *segmented* mutation log behind streaming ingest.
//!
//! Every accepted mutation is appended to the city's write-ahead log
//! *before* it is acknowledged, so a crash at any instant loses at most
//! the one mutation whose append was in flight — and that mutation was
//! never acknowledged. The log is a directory of sequence-numbered
//! segment files:
//!
//! ```text
//! wal-000000000001.seg     records with seqs 1..
//! wal-000000000091.seg     records with seqs 91..
//! wal-000000000178.seg     active segment (appends land here)
//! ```
//!
//! Each segment is a flat sequence of self-delimiting records:
//!
//! ```text
//! [magic u32][payload_len u32][seq u64][payload][crc u32]      (all LE)
//! ```
//!
//! `seq` numbers records `1, 2, 3, …` with no gaps across segment
//! boundaries; a segment's file name carries the seq of its first record,
//! so the chain can be validated without decoding everything up front.
//! The CRC covers everything before it (magic included). The payload is a
//! one-byte tag followed by the mutation's fields in fixed little-endian
//! layout (see [`Mutation`]).
//!
//! Appends roll to a fresh segment once the active one exceeds the
//! configured byte budget, and [`MutationWal::compact`] removes segments
//! whose records are *wholly* covered by a snapshot checkpoint — recovery
//! is then "load the newest valid snapshot, replay the WAL tail", with
//! replay streaming one segment at a time ([`MutationWal::tail`]) so
//! memory stays bounded by the segment size, not the log length. Every
//! mutation of the directory goes through [`FileIo`], so the chaos
//! harness can kill or tear any operation and prove recovery.
//!
//! Decoding distinguishes two failure classes:
//!
//! - **Torn tail** — the active segment ends before a record completes.
//!   This is the expected shape after a crash mid-append
//!   ([`FileIo::append`] may persist any prefix of the record), so
//!   [`MutationWal::open`] silently drops the tail and truncates the
//!   segment back to the clean prefix (atomically: temp sibling +
//!   rename). Only the *last* segment can legitimately be torn.
//! - **Corruption** — bad magic, oversized length, CRC mismatch, unknown
//!   tag, short payload, duplicate / out-of-order sequence numbers, or a
//!   gap in the segment chain. These are never self-inflicted, so they
//!   surface as structured [`WalError`]s rather than being dropped; the
//!   decoder never panics on arbitrary bytes.

use prim_geo::Location;
use prim_serve::chaos::atomic_write_io;
use prim_serve::FileIo;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Record sentinel: `"PWAL"` little-endian.
pub const WAL_MAGIC: u32 = 0x4c41_5750;

/// Fixed bytes before the payload: magic + payload_len + seq.
const HEADER_LEN: usize = 4 + 4 + 8;

/// Payload sanity cap. A real payload is a handful of scalars plus one
/// attribute vector, so anything near this is a corrupt length field —
/// rejecting it keeps the decoder from "finding" a plausible record
/// gigabytes past a flipped bit.
const MAX_PAYLOAD: u32 = 1 << 24;

/// Default byte budget of the active segment before appends roll over:
/// about 64 records of the `onboard` benchmark's mix (64.6 B each). A
/// replicated pipeline snapshots on the first flush after a roll, so this
/// is also its snapshot cadence and bounds what recovery replays.
pub const DEFAULT_SEGMENT_BYTES: usize = 4 * 1024;

const TAG_ADD_POI: u8 = 1;
const TAG_ADD_EDGE: u8 = 2;
const TAG_RETIRE_POI: u8 = 3;

/// One client-visible mutation of a city.
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    /// Onboard a new POI. Its id is assigned at stage time (`n_pois` plus
    /// the number of adds already staged) and never reused.
    AddPoi {
        /// Position of the new POI.
        location: Location,
        /// Leaf category (index into the taxonomy's categories).
        category: u32,
        /// Attribute features, exactly `attr_dim` wide.
        attrs: Vec<f32>,
    },
    /// Add a relationship edge between two existing POIs.
    AddEdge {
        /// One endpoint (order is irrelevant; edges are canonicalised).
        src: u32,
        /// The other endpoint.
        dst: u32,
        /// Relation id.
        relation: u8,
    },
    /// Tombstone a POI: its edges are removed, it leaves every spatial
    /// neighbourhood, and it stops appearing in query results. Its id and
    /// embedding row remain (the row is re-embedded as an isolated node).
    RetirePoi {
        /// The POI to retire.
        poi: u32,
    },
}

impl Mutation {
    /// Short op name, matching the wire-protocol op strings.
    pub fn op(&self) -> &'static str {
        match self {
            Mutation::AddPoi { .. } => "add_poi",
            Mutation::AddEdge { .. } => "add_edge",
            Mutation::RetirePoi { .. } => "retire_poi",
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Mutation::AddPoi {
                location,
                category,
                attrs,
            } => {
                out.push(TAG_ADD_POI);
                out.extend_from_slice(&location.lon.to_le_bytes());
                out.extend_from_slice(&location.lat.to_le_bytes());
                out.extend_from_slice(&category.to_le_bytes());
                out.extend_from_slice(&(attrs.len() as u32).to_le_bytes());
                for a in attrs {
                    out.extend_from_slice(&a.to_le_bytes());
                }
            }
            Mutation::AddEdge { src, dst, relation } => {
                out.push(TAG_ADD_EDGE);
                out.extend_from_slice(&src.to_le_bytes());
                out.extend_from_slice(&dst.to_le_bytes());
                out.push(*relation);
            }
            Mutation::RetirePoi { poi } => {
                out.push(TAG_RETIRE_POI);
                out.extend_from_slice(&poi.to_le_bytes());
            }
        }
    }

    fn decode_payload(bytes: &[u8]) -> Result<Mutation, String> {
        let mut r = Reader { bytes, at: 0 };
        let tag = r.u8()?;
        let m = match tag {
            TAG_ADD_POI => {
                let lon = r.f64()?;
                let lat = r.f64()?;
                let category = r.u32()?;
                let n = r.u32()? as usize;
                // Bound before allocating: a corrupt count must not OOM.
                if n > bytes.len() {
                    return Err(format!("attr count {n} exceeds payload"));
                }
                let mut attrs = Vec::with_capacity(n);
                for _ in 0..n {
                    attrs.push(r.f32()?);
                }
                Mutation::AddPoi {
                    location: Location { lon, lat },
                    category,
                    attrs,
                }
            }
            TAG_ADD_EDGE => Mutation::AddEdge {
                src: r.u32()?,
                dst: r.u32()?,
                relation: r.u8()?,
            },
            TAG_RETIRE_POI => Mutation::RetirePoi { poi: r.u32()? },
            other => return Err(format!("unknown mutation tag {other}")),
        };
        if r.at != bytes.len() {
            return Err(format!("{} trailing payload bytes", bytes.len() - r.at));
        }
        Ok(m)
    }
}

/// Bounds-checked little-endian payload reader; errors instead of
/// panicking when the payload is shorter than its fields claim.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if self.bytes.len() - self.at < n {
            return Err("payload too short".to_string());
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// A structured WAL failure. Offsets are byte positions into the segment
/// at hand, so operators can locate the damage with a hex dump.
#[derive(Debug)]
pub enum WalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A complete record's sentinel is not [`WAL_MAGIC`].
    BadMagic {
        /// Byte offset of the record.
        offset: usize,
    },
    /// A complete record is internally inconsistent (CRC mismatch,
    /// oversized length, unknown tag, short or over-long payload), or a
    /// segment file's name does not fit the directory's chain.
    Corrupt {
        /// Byte offset of the record (0 for directory-level damage).
        offset: usize,
        /// What failed to decode.
        what: String,
    },
    /// A record's sequence number is not the predecessor's plus one —
    /// a duplicated, dropped or reordered append, or a pruned segment
    /// that acknowledged records still depend on.
    OutOfOrder {
        /// Byte offset of the record.
        offset: usize,
        /// The sequence number the stream required here.
        expected: u64,
        /// The sequence number found.
        found: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::BadMagic { offset } => {
                write!(f, "wal: bad record magic at byte {offset}")
            }
            WalError::Corrupt { offset, what } => {
                write!(f, "wal: corrupt record at byte {offset}: {what}")
            }
            WalError::OutOfOrder {
                offset,
                expected,
                found,
            } => write!(
                f,
                "wal: out-of-order record at byte {offset}: expected seq {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Failure while streaming a WAL tail through a caller's sink.
#[derive(Debug)]
pub enum ReplayError {
    /// The log itself would not read or decode.
    Wal(WalError),
    /// The sink rejected a decoded record (e.g. it fails revalidation
    /// against the state it is replayed onto).
    Sink(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Wal(e) => write!(f, "{e}"),
            ReplayError::Sink(msg) => write!(f, "wal replay: {msg}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// FNV-1a 64 folded to 32 bits — the same hash family the checkpoint
/// format uses, xor-folded so the record overhead stays at four bytes.
fn crc32(bytes: &[u8]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

/// Serialises one record (framing + payload + CRC) for sequence `seq`.
pub fn encode_record(seq: u64, m: &Mutation) -> Vec<u8> {
    let mut payload = Vec::new();
    m.encode_payload(&mut payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    out.extend_from_slice(&WAL_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Result of decoding a segment image: the records of the clean prefix,
/// the prefix's byte length, and whether a torn tail was dropped after it.
#[derive(Debug)]
pub struct Decoded {
    /// `(seq, mutation)` in stream order, seqs `first..first+len` with no
    /// gaps.
    pub records: Vec<(u64, Mutation)>,
    /// Byte length of the clean prefix (the file should be truncated to
    /// this when `torn`).
    pub clean_len: usize,
    /// Whether bytes after the clean prefix were dropped as a torn tail.
    pub torn: bool,
}

/// Decodes a whole segment image. `first_seq` is the sequence number the
/// stream must start with (1 for a fresh log). Never panics: torn tails
/// are reported via [`Decoded::torn`], everything else as a [`WalError`].
pub fn decode_records(bytes: &[u8], first_seq: u64) -> Result<Decoded, WalError> {
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut expected = first_seq;
    while at < bytes.len() {
        let rest = &bytes[at..];
        if rest.len() < HEADER_LEN {
            return Ok(Decoded {
                records,
                clean_len: at,
                torn: true,
            });
        }
        let magic = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if magic != WAL_MAGIC {
            return Err(WalError::BadMagic { offset: at });
        }
        let payload_len = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if payload_len > MAX_PAYLOAD {
            return Err(WalError::Corrupt {
                offset: at,
                what: format!("payload length {payload_len} exceeds cap"),
            });
        }
        let total = HEADER_LEN + payload_len as usize + 4;
        if rest.len() < total {
            return Ok(Decoded {
                records,
                clean_len: at,
                torn: true,
            });
        }
        let stored = u32::from_le_bytes(rest[total - 4..total].try_into().unwrap());
        if stored != crc32(&rest[..total - 4]) {
            return Err(WalError::Corrupt {
                offset: at,
                what: "crc mismatch".to_string(),
            });
        }
        let seq = u64::from_le_bytes(rest[8..16].try_into().unwrap());
        if seq != expected {
            return Err(WalError::OutOfOrder {
                offset: at,
                expected,
                found: seq,
            });
        }
        let m = Mutation::decode_payload(&rest[HEADER_LEN..total - 4])
            .map_err(|what| WalError::Corrupt { offset: at, what })?;
        records.push((seq, m));
        expected += 1;
        at += total;
    }
    Ok(Decoded {
        records,
        clean_len: at,
        torn: false,
    })
}

fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:012}.seg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if digits.len() != 12 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The segmented append-only mutation log of one city, bound to a
/// [`FileIo`] so chaos tests can tear, corrupt or kill any operation.
pub struct MutationWal {
    io: Arc<dyn FileIo>,
    dir: PathBuf,
    /// `(first_seq, byte_len)` per segment, ascending by `first_seq`.
    segments: Vec<(u64, u64)>,
    next_seq: u64,
    segment_bytes: usize,
}

impl MutationWal {
    /// Opens (or creates) the segmented log in directory `dir`. A torn
    /// tail on the *active* (last) segment — the expected shape after a
    /// crash mid-append — is truncated away atomically before returning,
    /// so a later append never lands after garbage. Earlier segments are
    /// validated lazily by [`MutationWal::tail`]; only structural damage
    /// to the directory itself (duplicate segment seqs) is caught here.
    pub fn open(io: Arc<dyn FileIo>, dir: impl Into<PathBuf>) -> Result<MutationWal, WalError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut segments: Vec<(u64, u64)> = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for e in entries.flatten() {
                let name = e.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(first) = parse_segment_name(name) else {
                    continue;
                };
                let len = e.metadata().map(|m| m.len()).unwrap_or(0);
                segments.push((first, len));
            }
        }
        segments.sort_unstable();
        for w in segments.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(WalError::Corrupt {
                    offset: 0,
                    what: format!("duplicate segment for seq {}", w[0].0),
                });
            }
        }
        let mut wal = MutationWal {
            io,
            dir,
            segments,
            next_seq: 1,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        };
        if let Some(&(first, _)) = wal.segments.last() {
            let path = wal.segment_path(first);
            let bytes = wal.io.read(&path)?;
            let decoded = decode_records(&bytes, first)?;
            if decoded.torn {
                atomic_write_io(&*wal.io, &path, &bytes[..decoded.clean_len])?;
            }
            wal.next_seq = first + decoded.records.len() as u64;
            wal.segments.last_mut().unwrap().1 = decoded.clean_len as u64;
        }
        Ok(wal)
    }

    fn segment_path(&self, first_seq: u64) -> PathBuf {
        self.dir.join(segment_name(first_seq))
    }

    /// Sets the active-segment byte budget (appends roll past it). A
    /// budget of 1 gives every record its own segment — the finest
    /// compaction granularity, used by tests.
    pub fn set_segment_bytes(&mut self, bytes: usize) {
        self.segment_bytes = bytes.max(1);
    }

    /// Anchors an *empty* log at `seq` — used when recovery starts from a
    /// snapshot whose covered segments were all pruned: the next append
    /// must continue the acknowledged numbering, not restart at 1. A log
    /// that still has segments already knows its position; this is a
    /// no-op then, and never moves `next_seq` backwards.
    pub fn ensure_seq(&mut self, seq: u64) {
        if self.segments.is_empty() && seq > self.next_seq {
            self.next_seq = seq;
        }
    }

    /// Appends one mutation durably (fsync before return) and returns its
    /// sequence number, rolling to a fresh segment when the active one is
    /// past budget. On error the mutation must be treated as *not
    /// staged*: a torn append may have left a partial record, which the
    /// next [`MutationWal::open`] truncates away — consistent with the
    /// caller reporting the mutation rejected.
    pub fn append(&mut self, m: &Mutation) -> Result<u64, WalError> {
        let seq = self.next_seq;
        let record = encode_record(seq, m);
        match self.segments.last_mut() {
            Some((first, len)) if (*len as usize) < self.segment_bytes => {
                let path = self.dir.join(segment_name(*first));
                self.io.append(&path, &record)?;
                *len += record.len() as u64;
            }
            _ => {
                // Roll: the new segment is born with its first record in
                // one write, so a tear leaves a prefix the next open
                // truncates back to an empty (still valid) segment.
                let path = self.segment_path(seq);
                self.io.write(&path, &record)?;
                self.segments.push((seq, record.len() as u64));
            }
        }
        self.next_seq += 1;
        Ok(seq)
    }

    /// The sequence number the next append will use (= 1 + records
    /// acknowledged so far, across the log's whole history).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The lowest sequence number still present in the log (`next_seq`
    /// when every segment has been compacted away).
    pub fn first_seq(&self) -> u64 {
        self.segments
            .first()
            .map(|&(f, _)| f)
            .unwrap_or(self.next_seq)
    }

    /// The first sequence number of the active (newest) segment —
    /// `next_seq` when there is none, since the next append starts one.
    pub(crate) fn active_first_seq(&self) -> u64 {
        self.segments
            .last()
            .map(|&(f, _)| f)
            .unwrap_or(self.next_seq)
    }

    /// Number of segment files.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Total durable bytes across all segments.
    pub fn bytes(&self) -> u64 {
        self.segments.iter().map(|&(_, len)| len).sum()
    }

    /// The log's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// End seq (inclusive) of segment index `k`.
    fn segment_end(&self, k: usize) -> u64 {
        self.segments
            .get(k + 1)
            .map(|&(f, _)| f - 1)
            .unwrap_or(self.next_seq.saturating_sub(1))
    }

    /// Removes, oldest first, every segment whose records are *wholly*
    /// `<= covered_seq` (i.e. fully captured by a snapshot). Returns the
    /// number of segments removed. Removal is one atomic unlink per
    /// segment through [`FileIo`]; a crash mid-compaction leaves a
    /// contiguous suffix, which recovery replays (skipping covered seqs).
    pub fn compact(&mut self, covered_seq: u64) -> Result<usize, WalError> {
        let mut removed = 0;
        while let Some(&(first, _)) = self.segments.first() {
            if self.segment_end(0) > covered_seq {
                break;
            }
            self.io.remove(&self.segment_path(first))?;
            self.segments.remove(0);
            removed += 1;
        }
        Ok(removed)
    }

    /// A detached, memory-bounded reader over every record with seq
    /// `> from_seq`, validating the segment chain as it goes. Errors
    /// immediately if acknowledged records in `(from_seq, next_seq)` have
    /// been pruned — that would be acknowledged loss, never self-inflicted.
    pub fn tail(&self, from_seq: u64) -> Result<WalTail, WalError> {
        if from_seq + 1 < self.next_seq {
            let covered = self
                .segments
                .first()
                .map(|&(f, _)| f <= from_seq + 1)
                .unwrap_or(false);
            if !covered {
                return Err(WalError::OutOfOrder {
                    offset: 0,
                    expected: from_seq + 1,
                    found: self.first_seq(),
                });
            }
        }
        Ok(WalTail {
            io: Arc::clone(&self.io),
            segments: self
                .segments
                .iter()
                .map(|&(f, _)| (f, self.segment_path(f)))
                .collect(),
            next_seq: self.next_seq,
            from_seq,
        })
    }
}

/// A point-in-time streaming view of a WAL tail: reads one segment at a
/// time, so replaying a long log never materialises it whole. Detached
/// from the [`MutationWal`] (it holds its own [`FileIo`] handle), so the
/// caller can mutate other state while consuming it.
pub struct WalTail {
    io: Arc<dyn FileIo>,
    segments: Vec<(u64, PathBuf)>,
    next_seq: u64,
    from_seq: u64,
}

impl WalTail {
    /// Streams records with seq `> from_seq` in order into `f`. Returning
    /// `Ok(false)` from `f` stops early. Returns the number of records
    /// delivered.
    fn walk(
        self,
        f: &mut dyn FnMut(u64, Mutation) -> Result<bool, String>,
    ) -> Result<u64, ReplayError> {
        let mut delivered = 0u64;
        let n = self.segments.len();
        for k in 0..n {
            let (first, ref path) = self.segments[k];
            let last = k + 1 == n;
            // A segment's end seq (inclusive) is pinned by the next
            // segment's name, or by the log high-water for the active one.
            let end = if last {
                self.next_seq.saturating_sub(1)
            } else {
                self.segments[k + 1].0 - 1
            };
            if end < first {
                // Empty active segment (torn roll truncated at open).
                continue;
            }
            if end <= self.from_seq {
                // Wholly covered: skip without even reading the file.
                continue;
            }
            let bytes = self.io.read(path).map_err(|e| ReplayError::Wal(e.into()))?;
            let decoded = decode_records(&bytes, first).map_err(ReplayError::Wal)?;
            if decoded.torn && !last {
                // Only the active segment can legitimately be torn.
                return Err(ReplayError::Wal(WalError::Corrupt {
                    offset: decoded.clean_len,
                    what: format!("non-final segment {} has a torn tail", segment_name(first)),
                }));
            }
            let seg_next = first + decoded.records.len() as u64;
            if seg_next != end + 1 {
                // A hole inside the chain: records the directory structure
                // promised are missing from this segment.
                return Err(ReplayError::Wal(WalError::OutOfOrder {
                    offset: decoded.clean_len,
                    expected: end + 1,
                    found: seg_next,
                }));
            }
            for (seq, m) in decoded.records {
                if seq <= self.from_seq {
                    continue;
                }
                if !f(seq, m).map_err(ReplayError::Sink)? {
                    return Ok(delivered);
                }
                delivered += 1;
            }
        }
        Ok(delivered)
    }

    /// Streams every record with seq `> from_seq` into `f`, one segment
    /// in memory at a time. A `Err(msg)` from the sink aborts the replay
    /// as [`ReplayError::Sink`]. Returns the number of records delivered.
    pub fn for_each(
        self,
        f: &mut dyn FnMut(u64, Mutation) -> Result<(), String>,
    ) -> Result<u64, ReplayError> {
        self.walk(&mut |seq, m| f(seq, m).map(|()| true))
    }

    /// Re-encodes records with seq `> from_seq` into wire record bytes,
    /// stopping before the batch exceeds `max_bytes` (at least one record
    /// is always included when any is pending). Returns the bytes and the
    /// last seq included (`from_seq` when the tail is empty) — the
    /// replication protocol's "tail" payload.
    pub fn collect_bytes(self, max_bytes: usize) -> Result<(Vec<u8>, u64), ReplayError> {
        let from = self.from_seq;
        let mut out = Vec::new();
        let mut last = from;
        self.walk(&mut |seq, m| {
            let rec = encode_record(seq, &m);
            if !out.is_empty() && out.len() + rec.len() > max_bytes {
                return Ok(false);
            }
            out.extend_from_slice(&rec);
            last = seq;
            Ok(true)
        })?;
        Ok((out, last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prim_serve::RealIo;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("prim-wal-test-{}-{name}", std::process::id()));
        p
    }

    fn sample() -> Vec<Mutation> {
        vec![
            Mutation::AddPoi {
                location: Location {
                    lon: 116.40,
                    lat: 39.91,
                },
                category: 3,
                attrs: vec![0.5, -1.25, 2.0],
            },
            Mutation::AddEdge {
                src: 7,
                dst: 2,
                relation: 1,
            },
            Mutation::RetirePoi { poi: 4 },
        ]
    }

    fn replay_all(wal: &MutationWal, from: u64) -> Vec<(u64, Mutation)> {
        let mut out = Vec::new();
        wal.tail(from)
            .unwrap()
            .for_each(&mut |seq, m| {
                out.push((seq, m));
                Ok(())
            })
            .unwrap();
        out
    }

    #[test]
    fn roundtrip_and_replay() {
        let dir = tmp("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let io: Arc<dyn FileIo> = Arc::new(RealIo);
        let mut wal = MutationWal::open(Arc::clone(&io), &dir).unwrap();
        assert_eq!(wal.next_seq(), 1);
        for m in sample() {
            wal.append(&m).unwrap();
        }
        let wal2 = MutationWal::open(io, &dir).unwrap();
        let replay: Vec<Mutation> = replay_all(&wal2, 0).into_iter().map(|(_, m)| m).collect();
        assert_eq!(replay, sample());
        assert_eq!(wal2.next_seq(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rolls_and_compacts_segments() {
        let dir = tmp("roll");
        let _ = std::fs::remove_dir_all(&dir);
        let io: Arc<dyn FileIo> = Arc::new(RealIo);
        let mut wal = MutationWal::open(Arc::clone(&io), &dir).unwrap();
        wal.set_segment_bytes(1); // tiny budget: one record per segment
        for i in 0..6u32 {
            wal.append(&Mutation::AddEdge {
                src: i,
                dst: i + 1,
                relation: 0,
            })
            .unwrap();
        }
        assert!(wal.segments() >= 3, "tiny budget must roll");
        let total = wal.bytes();

        // Reopen mid-stream: same records, same numbering.
        let wal2 = MutationWal::open(Arc::clone(&io), &dir).unwrap();
        assert_eq!(wal2.next_seq(), 7);
        assert_eq!(wal2.bytes(), total);
        assert_eq!(replay_all(&wal2, 0).len(), 6);
        assert_eq!(replay_all(&wal2, 4).len(), 2);

        // Compact below seq 4: only wholly-covered segments go.
        let mut wal3 = wal2;
        let removed = wal3.compact(4).unwrap();
        assert!(removed >= 1);
        assert!(wal3.first_seq() <= 5, "seq 5 must survive compaction");
        let tail: Vec<u64> = replay_all(&wal3, 4).into_iter().map(|(s, _)| s).collect();
        assert_eq!(tail, vec![5, 6]);
        // Compacting everything leaves an empty, still-anchored log.
        wal3.compact(6).unwrap();
        assert_eq!(wal3.segments(), 0);
        assert_eq!(wal3.next_seq(), 7);
        assert_eq!(wal3.first_seq(), 7);
        wal3.append(&sample()[1]).unwrap();
        let wal4 = MutationWal::open(io, &dir).unwrap();
        assert_eq!(wal4.next_seq(), 8);
        assert_eq!(replay_all(&wal4, 6).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruned_acknowledged_tail_is_loud() {
        let dir = tmp("gap");
        let _ = std::fs::remove_dir_all(&dir);
        let io: Arc<dyn FileIo> = Arc::new(RealIo);
        let mut wal = MutationWal::open(Arc::clone(&io), &dir).unwrap();
        wal.set_segment_bytes(1);
        for i in 0..4u32 {
            wal.append(&Mutation::AddEdge {
                src: i,
                dst: i + 1,
                relation: 0,
            })
            .unwrap();
        }
        wal.compact(2).unwrap();
        // A reader that only knows seq 1 was acknowledged cannot resume:
        // records 2.. were pruned under it.
        match wal.tail(1) {
            Err(WalError::OutOfOrder { expected: 2, .. }) => {}
            Err(other) => panic!("expected out-of-order gap, got {other:?}"),
            Ok(_) => panic!("expected out-of-order gap, got a tail"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ensure_seq_anchors_empty_log() {
        let dir = tmp("anchor");
        let _ = std::fs::remove_dir_all(&dir);
        let io: Arc<dyn FileIo> = Arc::new(RealIo);
        let mut wal = MutationWal::open(Arc::clone(&io), &dir).unwrap();
        wal.ensure_seq(41);
        assert_eq!(wal.next_seq(), 41);
        let seq = wal.append(&sample()[2]).unwrap();
        assert_eq!(seq, 41);
        let wal2 = MutationWal::open(io, &dir).unwrap();
        assert_eq!(wal2.next_seq(), 42);
        assert_eq!(replay_all(&wal2, 40), vec![(41, sample()[2].clone())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncated_every_prefix() {
        let muts = sample();
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, m) in muts.iter().enumerate() {
            stream.extend_from_slice(&encode_record(i as u64 + 1, m));
            boundaries.push(stream.len());
        }
        for cut in 0..=stream.len() {
            let d = decode_records(&stream[..cut], 1).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(d.records.len(), whole, "cut {cut}");
            assert_eq!(d.clean_len, boundaries[whole], "cut {cut}");
            assert_eq!(d.torn, cut != boundaries[whole], "cut {cut}");
        }
    }

    #[test]
    fn bitflip_is_structured_corruption() {
        let record = encode_record(1, &sample()[0]);
        for at in 0..record.len() {
            let mut bytes = record.clone();
            bytes[at] ^= 0x40;
            // Never a panic; always a structured error or (for flips in
            // the length field that enlarge the record) a torn tail.
            match decode_records(&bytes, 1) {
                Ok(d) => assert!(d.torn || d.records != vec![(1, sample()[0].clone())]),
                Err(
                    WalError::BadMagic { .. }
                    | WalError::Corrupt { .. }
                    | WalError::OutOfOrder { .. },
                ) => {}
                Err(e) => panic!("unexpected error class: {e}"),
            }
        }
    }

    #[test]
    fn out_of_order_and_duplicate_seqs_error() {
        let m = sample()[1].clone();
        let mut dup = encode_record(1, &m);
        dup.extend_from_slice(&encode_record(1, &m));
        match decode_records(&dup, 1) {
            Err(WalError::OutOfOrder {
                expected: 2,
                found: 1,
                ..
            }) => {}
            other => panic!("expected out-of-order, got {other:?}"),
        }
        let skipped = encode_record(3, &m);
        assert!(matches!(
            decode_records(&skipped, 1),
            Err(WalError::OutOfOrder {
                expected: 1,
                found: 3,
                ..
            })
        ));
    }

    #[test]
    fn collect_bytes_respects_budget_and_roundtrips() {
        let dir = tmp("collect");
        let _ = std::fs::remove_dir_all(&dir);
        let io: Arc<dyn FileIo> = Arc::new(RealIo);
        let mut wal = MutationWal::open(Arc::clone(&io), &dir).unwrap();
        wal.set_segment_bytes(80);
        for m in sample() {
            wal.append(&m).unwrap();
        }
        // A tight budget yields a partial batch; resuming from its last
        // seq yields the rest — the replication catch-up loop in miniature.
        let (bytes, last) = wal.tail(0).unwrap().collect_bytes(1).unwrap();
        assert_eq!(last, 1);
        let d = decode_records(&bytes, 1).unwrap();
        assert!(!d.torn);
        assert_eq!(d.records.len(), 1);
        let (bytes2, last2) = wal.tail(last).unwrap().collect_bytes(1 << 20).unwrap();
        assert_eq!(last2, 3);
        let d2 = decode_records(&bytes2, 2).unwrap();
        assert_eq!(
            d2.records
                .iter()
                .map(|(_, m)| m.clone())
                .collect::<Vec<_>>(),
            sample()[1..].to_vec()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
