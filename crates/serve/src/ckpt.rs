//! The `prim-ckpt/v2` checkpoint format.
//!
//! A checkpoint is a single binary file that carries everything scoring
//! needs and nothing training needs: the model configuration, the full
//! [`ParamStore`] contents, and (for PRIM checkpoints) enough graph
//! metadata — POI locations and categories, taxonomy structure, relation
//! vocabulary, distance-bin edges, attribute features, training edges — to
//! rebuild [`ModelInputs`] bitwise and re-materialise embeddings without
//! the original dataset object.
//!
//! ## Byte layout (all integers little-endian)
//!
//! ```text
//! offset 0   magic            8 bytes, b"PRIMCKPT"
//! offset 8   format version   u32 (2; the reader also decodes 1)
//! offset 12  header length    u32
//! offset 16  header           UTF-8 JSON, strings and counts only
//! ...        tensor count     u64
//! per tensor:
//!            name length      u32, then the UTF-8 name
//!            flags            u8  (bit 0: excluded from weight decay)
//!            dtype            u8  (0: f64, 1: f32, 2: u32)
//!            rows, cols       u64 each
//!            values           rows·cols values at the dtype's width, row-major
//! trailer:   checksum         u64, XXH64 (seed 0) over every preceding byte
//! ```
//!
//! A v1 file differs in two places: its entries have no dtype byte and
//! store every value as an f64, and its trailer is FNV-1a 64. Writers
//! write only v2; v1 files still decode, as they always did.
//!
//! ## Values and dtypes
//!
//! Every floating-point quantity whose exact value matters (parameters,
//! coordinates, bin edges, config scalars) travels through the tensor
//! table; the JSON header holds only strings and integer counts, so the
//! six-digit JSON number formatting can never round anything that feeds
//! scoring. To callers every tensor is f64 ([`NamedTensor::values`]). The
//! writer stores each one at the narrowest width that decodes back to the
//! same f64 bits, and picks it from the values alone:
//!
//! * u32 when every value is a non-negative integer below 2^32 whose bits
//!   round-trip (so `-0.0` is not u32);
//! * else f32 when every value's bits round-trip through f32;
//! * else f64.
//!
//! So parameters, Adam moments, attributes and the served tables (f32
//! widened to f64) are stored as f32; ids, edges, CSR offsets and targets
//! and levels as u32; the config, bin edges and coordinates stay f64.
//! `f32` values narrow back with `as f32`, so every round-trip is bitwise.
//! An unknown dtype, or a shape whose byte size overflows, is `Malformed`.
//!
//! The trailer is XXH64 (Y. Collet, <https://github.com/Cyan4973/xxHash>):
//! four 64-bit lanes over 32-byte stripes, where FNV-1a took one byte at
//! a time and was most of a load's cost.
//!
//! ## The served section
//!
//! A checkpoint meant for serving also carries what
//! [`EmbeddingStore::from_checkpoint`] would otherwise compute from it:
//! the three tables eager scoring reads (`served.pois`,
//! `served.relations`, `served.bin_normals`) and the HNSW graph over the
//! POI table (`ann.*`). The graph may cover fewer rows than the table; the
//! rest are an ingest snapshot's delta segment. `served.meta` holds a
//! fingerprint of every tensor [`PrimCheckpoint::rebuild`] reads
//! (`meta.*`, `graph.*`, `param.*` and `ingest.*`), and decoding keeps the
//! section only when the file's inputs still match it: a file whose inputs
//! were edited and re-sealed loads by recompute, exactly like a file
//! without the section. A kept section whose shapes disagree with the
//! header or config is `Malformed`. [`save_checkpoint`] and ingest
//! snapshots write the section; training and rotation checkpoints do not.
//!
//! The fingerprint folds 64-bit words in file order with rustc's FxHash
//! step. In v2 it folds one word per input entry, the XXH64 of the
//! entry's stored bytes (name length to last value): the writer hashes
//! each entry as it writes it and the reader as it walks the table, so no
//! load makes a pass over the values for it. In v1 it folds per input
//! tensor its name length and bytes, flags, rows, cols, then each value's
//! f64 bits; v1 files keep that rule, so their served sections are still
//! adopted.

use crate::ann::hnsw::{Layer, MAX_LEVEL};
use crate::ann::{AnnGraph, AnnParams, Hnsw};
use crate::chaos::atomic_write;
use crate::store::EmbeddingStore;
use prim_core::config::{GammaOp, PrimConfig, TaxonomyMode};
use prim_core::{ModelInputs, PrimModel, ResumeState};
use prim_geo::{DistanceBins, GridIndex, Location};
use prim_graph::{Edge, HeteroGraph, Poi, PoiId, RelationId, Taxonomy, TaxonomyNodeId};
use prim_nn::{AdamState, ParamStore};
use prim_obs::json;
use prim_tensor::Matrix;
use std::path::Path;

/// File magic, first 8 bytes of every checkpoint.
pub const MAGIC: &[u8; 8] = b"PRIMCKPT";

/// The format version writers write. The reader also decodes version 1.
pub const VERSION: u32 = 2;

/// Structured checkpoint errors. Corrupt files surface as values, never
/// panics: the serving layer must be able to reject a bad checkpoint and
/// keep running.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file ends before a section it promises; `needed` bytes were
    /// required at the point named by `context` but only `available`
    /// remained.
    Truncated {
        /// Which section the reader was decoding.
        context: &'static str,
        /// Bytes the section needed.
        needed: u64,
        /// Bytes left in the file.
        available: u64,
    },
    /// The first 8 bytes are not `b"PRIMCKPT"` — not a checkpoint at all.
    BadMagic,
    /// The file is a checkpoint, but from an unsupported format version.
    VersionSkew {
        /// Version recorded in the file.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The trailer checksum does not match the file contents: XXH64 in a
    /// v2 file ([`checksum`]), FNV-1a 64 in a v1 file.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the file.
        computed: u64,
    },
    /// The bytes are intact (checksum passed) but their structure is not a
    /// valid checkpoint (bad header JSON, inconsistent tensor table, …).
    Malformed(String),
    /// The checkpoint is valid but does not fit the target model
    /// (parameter name/shape/count mismatches, wrong model kind).
    Incompatible(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CkptError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated checkpoint: {context} needs {needed} bytes, {available} available"
            ),
            CkptError::BadMagic => write!(f, "not a prim-ckpt file (bad magic)"),
            CkptError::VersionSkew { found, supported } => write!(
                f,
                "checkpoint version skew: file is v{found}, reader supports v{supported}"
            ),
            CkptError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CkptError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CkptError::Incompatible(msg) => write!(f, "incompatible checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

const XXH_P1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_P3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_P4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_P5: u64 = 0x27d4_eb2f_1656_67c5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

/// XXH64 with seed 0 — the integrity checksum in a v2 trailer, also what
/// the served-section fingerprint hashes each input entry with. Exposed so
/// tests (and external tooling) can re-seal a deliberately edited file.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le_u64(word));
            }
        }
        let [a, b, c, d] = lanes;
        let h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.iter().fold(h, |h, &lane| {
            (h ^ xxh_round(0, lane))
                .wrapping_mul(XXH_P1)
                .wrapping_add(XXH_P4)
        })
    } else {
        XXH_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh_round(0, le_u64(word)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let word = u32::from_le_bytes(rest[..4].try_into().unwrap()) as u64;
        h = (h ^ word.wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// FNV-1a 64 — the trailer checksum of a v1 file.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One named tensor from the checkpoint's tensor table.
#[derive(Clone, Debug)]
pub struct NamedTensor {
    /// Tensor name (parameters are prefixed `param.`).
    pub name: String,
    /// Bit 0: excluded from weight decay.
    pub flags: u8,
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major values.
    pub values: Vec<f64>,
}

impl NamedTensor {
    fn matrix_f32(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.values.iter().map(|&v| v as f32).collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Low-level writer / reader
// ---------------------------------------------------------------------------

/// Tensor-name prefixes [`PrimCheckpoint::rebuild`] reads: the inputs the
/// served section's fingerprint covers.
const INPUT_PREFIXES: [&str; 4] = ["meta.", "graph.", "param.", "ingest."];

fn is_input(name: &str) -> bool {
    INPUT_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Running fingerprint of a checkpoint's input tensors, folded 64-bit word
/// by word with rustc's FxHash step (the module docs give both versions'
/// words). Tensors outside [`INPUT_PREFIXES`] leave it unchanged.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// The v2 word of one input entry: the XXH64 of its stored bytes.
    fn entry(&mut self, stored: &[u8]) {
        self.word(checksum(stored));
    }

    /// The v1 words of one input tensor, over its decoded values.
    fn values_v1(&mut self, name: &str, flags: u8, rows: usize, cols: usize, values: &[f64]) {
        self.word(name.len() as u64);
        for b in name.bytes() {
            self.word(b as u64);
        }
        self.word(flags as u64);
        self.word(rows as u64);
        self.word(cols as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }
}

/// How a v2 entry stores its values: each at the dtype's width, decoding
/// to exactly the f64 the writer was given.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(u8)]
enum Dtype {
    F64 = 0,
    F32 = 1,
    U32 = 2,
}

impl Dtype {
    fn from_code(code: u8) -> Option<Dtype> {
        match code {
            0 => Some(Dtype::F64),
            1 => Some(Dtype::F32),
            2 => Some(Dtype::U32),
            _ => None,
        }
    }

    fn width(self) -> usize {
        match self {
            Dtype::F64 => 8,
            Dtype::F32 | Dtype::U32 => 4,
        }
    }

    /// The narrowest dtype through which every value's f64 bits
    /// round-trip: u32, then f32, then f64.
    fn narrowest(values: &[f64]) -> Dtype {
        let exact =
            |narrow: fn(f64) -> f64| values.iter().all(|&v| narrow(v).to_bits() == v.to_bits());
        if exact(|v| v as u32 as f64) {
            Dtype::U32
        } else if exact(|v| v as f32 as f64) {
            Dtype::F32
        } else {
            Dtype::F64
        }
    }

    fn encode(self, values: &[f64], out: &mut Vec<u8>) {
        for &v in values {
            match self {
                Dtype::F64 => out.extend_from_slice(&v.to_le_bytes()),
                Dtype::F32 => out.extend_from_slice(&(v as f32).to_le_bytes()),
                Dtype::U32 => out.extend_from_slice(&(v as u32).to_le_bytes()),
            }
        }
    }

    fn decode(self, bytes: &[u8]) -> Vec<f64> {
        match self {
            Dtype::F64 => bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
            Dtype::F32 => bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()) as f64)
                .collect(),
            Dtype::U32 => bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()) as f64)
                .collect(),
        }
    }
}

struct Writer {
    buf: Vec<u8>,
    /// Offset of the u64 tensor count, which `seal` patches in.
    count_at: usize,
    /// Entries written so far.
    count: u64,
    /// Fingerprint of the input tensors written so far.
    inputs: Fingerprint,
}

impl Writer {
    fn new(header_json: &str) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(header_json.len() as u32).to_le_bytes());
        buf.extend_from_slice(header_json.as_bytes());
        let count_at = buf.len();
        buf.extend_from_slice(&0u64.to_le_bytes());
        Writer {
            buf,
            count_at,
            count: 0,
            inputs: Fingerprint::new(),
        }
    }

    /// Writes one entry at the narrowest dtype its values allow.
    fn tensor(&mut self, name: &str, flags: u8, rows: usize, cols: usize, values: &[f64]) {
        assert_eq!(values.len(), rows * cols, "tensor {name} shape mismatch");
        let dtype = Dtype::narrowest(values);
        let start = self.buf.len();
        self.buf
            .reserve(4 + name.len() + 18 + values.len() * dtype.width());
        self.buf
            .extend_from_slice(&(name.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(name.as_bytes());
        self.buf.push(flags);
        self.buf.push(dtype as u8);
        self.buf.extend_from_slice(&(rows as u64).to_le_bytes());
        self.buf.extend_from_slice(&(cols as u64).to_le_bytes());
        dtype.encode(values, &mut self.buf);
        self.count += 1;
        if is_input(name) {
            self.inputs.entry(&self.buf[start..]);
        }
    }

    /// Patches in the tensor count and appends the checksum trailer.
    fn seal(mut self) -> Vec<u8> {
        self.buf[self.count_at..self.count_at + 8].copy_from_slice(&self.count.to_le_bytes());
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CkptError> {
        if self.data.len() - self.pos < n {
            return Err(CkptError::Truncated {
                context,
                needed: n as u64,
                available: (self.data.len() - self.pos) as u64,
            });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().unwrap(),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().unwrap(),
        ))
    }
}

/// The decoded raw contents of a checkpoint file: header JSON + tensor
/// table. Both [`load_checkpoint`] and [`load_params`] build on this.
pub struct RawCheckpoint {
    /// Parsed header.
    pub header: json::Value,
    /// All tensors, in file order.
    pub tensors: Vec<NamedTensor>,
    /// Fingerprint of the input tensors, by the file version's rule.
    inputs: u64,
}

impl RawCheckpoint {
    /// Header string field, or a malformed-checkpoint error naming the key.
    pub fn header_str(&self, key: &str) -> Result<&str, CkptError> {
        self.header
            .get(key)
            .and_then(|v| v.as_str())
            .ok_or_else(|| CkptError::Malformed(format!("header field {key:?} missing")))
    }

    fn header_usize(&self, key: &str) -> Result<usize, CkptError> {
        self.header
            .get(key)
            .and_then(|v| v.as_f64())
            .filter(|v| v.fract() == 0.0 && *v >= 0.0)
            .map(|v| v as usize)
            .ok_or_else(|| CkptError::Malformed(format!("header count {key:?} missing")))
    }

    fn header_strings(&self, key: &str) -> Result<Vec<String>, CkptError> {
        let arr = self
            .header
            .get(key)
            .and_then(|v| v.as_arr())
            .ok_or_else(|| CkptError::Malformed(format!("header array {key:?} missing")))?;
        arr.iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| CkptError::Malformed(format!("non-string entry in {key:?}")))
            })
            .collect()
    }

    /// Tensor lookup by exact name.
    pub fn tensor(&self, name: &str) -> Result<&NamedTensor, CkptError> {
        self.tensors
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| CkptError::Malformed(format!("tensor {name:?} missing")))
    }

    /// All tensors whose name starts with `param.`, prefix stripped, as
    /// `(name, value, no_decay)` in file order.
    pub fn params(&self) -> Vec<(String, Matrix, bool)> {
        self.tensors
            .iter()
            .filter_map(|t| {
                t.name
                    .strip_prefix("param.")
                    .map(|n| (n.to_string(), t.matrix_f32(), t.flags & FLAG_NO_DECAY != 0))
            })
            .collect()
    }
}

/// Flag bit: the tensor is a parameter excluded from weight decay.
pub const FLAG_NO_DECAY: u8 = 1;

/// Decodes checkpoint bytes without touching the filesystem. Exposed so
/// the fault-injection suite can decode exactly what a torn write left
/// behind, and so fuzzing can hit the decoder directly.
pub fn decode_bytes(data: &[u8]) -> Result<RawCheckpoint, CkptError> {
    decode(data)
}

fn decode(data: &[u8]) -> Result<RawCheckpoint, CkptError> {
    // Fixed prologue: magic + version. Checked before the checksum so a
    // wrong file type or a future version reads as what it is, not as
    // corruption.
    if data.len() < 8 {
        return Err(CkptError::Truncated {
            context: "magic",
            needed: 8,
            available: data.len() as u64,
        });
    }
    if &data[..8] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    if data.len() < 16 {
        return Err(CkptError::Truncated {
            context: "fixed header",
            needed: 16,
            available: data.len() as u64,
        });
    }
    let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
    let v1 = match version {
        1 => true,
        VERSION => false,
        found => {
            return Err(CkptError::VersionSkew {
                found,
                supported: VERSION,
            })
        }
    };
    // Integrity next: the trailer checksum covers everything before it.
    if data.len() < 16 + 8 {
        return Err(CkptError::Truncated {
            context: "checksum trailer",
            needed: 24,
            available: data.len() as u64,
        });
    }
    let (body, trailer) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().unwrap());
    let computed = if v1 { fnv1a(body) } else { checksum(body) };
    if stored != computed {
        return Err(CkptError::ChecksumMismatch { stored, computed });
    }

    let mut r = Reader {
        data: body,
        pos: 12,
    };
    let header_len = r.u32("header length")? as usize;
    let header_bytes = r.take(header_len, "header")?;
    let header_text = std::str::from_utf8(header_bytes)
        .map_err(|e| CkptError::Malformed(format!("header is not UTF-8: {e}")))?;
    let header =
        json::parse(header_text).map_err(|e| CkptError::Malformed(format!("header JSON: {e}")))?;

    let n_tensors = r.u64("tensor count")? as usize;
    // An entry takes at least 21 bytes (name length, flags, rows, cols),
    // so a count the body cannot hold never sizes the allocation.
    let mut tensors = Vec::with_capacity(n_tensors.min(body.len() / 21));
    let mut inputs = Fingerprint::new();
    for _ in 0..n_tensors {
        let start = r.pos;
        let name_len = r.u32("tensor name length")? as usize;
        let name = std::str::from_utf8(r.take(name_len, "tensor name")?)
            .map_err(|e| CkptError::Malformed(format!("tensor name is not UTF-8: {e}")))?
            .to_string();
        let flags = r.take(1, "tensor flags")?[0];
        let dtype = if v1 {
            Dtype::F64
        } else {
            let code = r.take(1, "tensor dtype")?[0];
            Dtype::from_code(code).ok_or_else(|| {
                CkptError::Malformed(format!("tensor {name:?} has unknown dtype {code}"))
            })?
        };
        let rows = r.u64("tensor rows")? as usize;
        let cols = r.u64("tensor cols")? as usize;
        let n_bytes = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(dtype.width()))
            .ok_or_else(|| CkptError::Malformed(format!("tensor {name:?} shape overflows")))?;
        let values = dtype.decode(r.take(n_bytes, "tensor values")?);
        if is_input(&name) {
            if v1 {
                inputs.values_v1(&name, flags, rows, cols, &values);
            } else {
                inputs.entry(&body[start..r.pos]);
            }
        }
        tensors.push(NamedTensor {
            name,
            flags,
            rows,
            cols,
            values,
        });
    }
    if r.pos != body.len() {
        return Err(CkptError::Malformed(format!(
            "{} trailing bytes after tensor table",
            body.len() - r.pos
        )));
    }
    Ok(RawCheckpoint {
        header,
        tensors,
        inputs: inputs.0,
    })
}

/// Reads and decodes a checkpoint file without interpreting its contents.
pub fn load_raw(path: impl AsRef<Path>) -> Result<RawCheckpoint, CkptError> {
    let data = std::fs::read(path)?;
    decode(&data)
}

// ---------------------------------------------------------------------------
// Config <-> tensor encoding
// ---------------------------------------------------------------------------

// `meta.config` layout, one f64 per slot. usize fields are exact below
// 2^53; f32 fields widen exactly; the u64 seed splits into two 32-bit
// halves so it survives the f64 round-trip regardless of magnitude.
const CFG_SLOTS: usize = 22;

fn encode_config(cfg: &PrimConfig) -> Vec<f64> {
    vec![
        cfg.dim as f64,
        cfg.cat_dim as f64,
        cfg.n_layers as f64,
        cfg.n_heads as f64,
        cfg.dist_feat_dim as f64,
        cfg.spatial_radius_km,
        cfg.rbf_theta,
        cfg.max_spatial_neighbors as f64,
        cfg.omega as f64,
        cfg.lr as f64,
        cfg.weight_decay as f64,
        cfg.val_check_every as f64,
        cfg.epochs as f64,
        cfg.batch_size.map_or(-1.0, |b| b as f64),
        cfg.grad_clip as f64,
        match cfg.gamma {
            GammaOp::Multiply => 0.0,
            GammaOp::Subtract => 1.0,
            GammaOp::CircularCorrelation => 2.0,
        },
        match cfg.taxonomy {
            TaxonomyMode::PathSum => 0.0,
            TaxonomyMode::Independent => 1.0,
        },
        cfg.use_spatial_context as u8 as f64,
        cfg.use_distance_scoring as u8 as f64,
        cfg.use_node_embeddings as u8 as f64,
        (cfg.seed >> 32) as f64,
        (cfg.seed & 0xffff_ffff) as f64,
    ]
}

fn decode_config(slots: &[f64], bin_edges: &[f64]) -> Result<PrimConfig, CkptError> {
    if slots.len() != CFG_SLOTS {
        return Err(CkptError::Malformed(format!(
            "meta.config has {} slots, expected {CFG_SLOTS}",
            slots.len()
        )));
    }
    let us = |i: usize| slots[i] as usize;
    Ok(PrimConfig {
        dim: us(0),
        cat_dim: us(1),
        n_layers: us(2),
        n_heads: us(3),
        dist_feat_dim: us(4),
        spatial_radius_km: slots[5],
        rbf_theta: slots[6],
        max_spatial_neighbors: us(7),
        bins: DistanceBins::new(bin_edges.to_vec()),
        omega: us(8),
        lr: slots[9] as f32,
        weight_decay: slots[10] as f32,
        val_check_every: us(11),
        epochs: us(12),
        batch_size: if slots[13] < 0.0 {
            None
        } else {
            Some(slots[13] as usize)
        },
        grad_clip: slots[14] as f32,
        gamma: match slots[15] as i64 {
            0 => GammaOp::Multiply,
            1 => GammaOp::Subtract,
            2 => GammaOp::CircularCorrelation,
            other => {
                return Err(CkptError::Malformed(format!("unknown gamma code {other}")));
            }
        },
        taxonomy: match slots[16] as i64 {
            0 => TaxonomyMode::PathSum,
            1 => TaxonomyMode::Independent,
            other => {
                return Err(CkptError::Malformed(format!(
                    "unknown taxonomy code {other}"
                )));
            }
        },
        use_spatial_context: slots[17] != 0.0,
        use_distance_scoring: slots[18] != 0.0,
        use_node_embeddings: slots[19] != 0.0,
        seed: ((slots[20] as u64) << 32) | (slots[21] as u64),
    })
}

/// Checks the config sizes [`PrimModel::new`] allocates by (`dim`,
/// `cat_dim`, `n_layers`, `n_heads`, `dist_feat_dim`) against the stored
/// parameters named after them, so a re-sealed config edit is an error
/// here, not a panic in [`PrimConfig::head_dim`] or an allocation sized by
/// a corrupt `dim` in [`PrimCheckpoint::rebuild`]. `rebuild`'s
/// `import_named` still checks every name and shape.
fn check_config_sizes(
    cfg: &PrimConfig,
    params: &[(String, Matrix)],
    attr_dim: usize,
) -> Result<(), CkptError> {
    if cfg.n_heads == 0 || !cfg.dim.is_multiple_of(cfg.n_heads) {
        return Err(CkptError::Malformed(format!(
            "meta.config dim {} is not a multiple of n_heads {}",
            cfg.dim, cfg.n_heads
        )));
    }
    let star = cfg.dim.checked_add(cfg.cat_dim).ok_or_else(|| {
        CkptError::Malformed(format!(
            "meta.config dim {} + cat_dim {} overflows",
            cfg.dim, cfg.cat_dim
        ))
    })?;
    // `None`: the parameter must not exist. The last layer's last head
    // existing, and the next layer and head not, fix both counts.
    let mut want = vec![
        ("w_in".to_string(), Some((attr_dim, cfg.dim))),
        ("w_q".to_string(), Some((cfg.dim, cfg.dim))),
        ("w_rel_score".to_string(), Some((star, cfg.dim))),
        (format!("l{}.w_self", cfg.n_layers), None),
    ];
    if let Some(last) = cfg.n_layers.checked_sub(1) {
        let heads = cfg.n_heads;
        want.push((
            format!("l{last}.h{}.w_dist", heads - 1),
            Some((2, cfg.dist_feat_dim)),
        ));
        want.push((format!("l{last}.h{heads}.w_dist"), None));
    }
    let show = |s: Option<(usize, usize)>| s.map_or("absent".into(), |(r, c)| format!("{r}x{c}"));
    for (name, shape) in want {
        let found = params
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, m)| m.shape());
        if found != shape {
            return Err(CkptError::Incompatible(format!(
                "param.{name} is {}, meta.config implies {}",
                show(found),
                show(shape)
            )));
        }
    }
    Ok(())
}

fn push_params(w: &mut Writer, store: &ParamStore) {
    for (name, value, decays) in store.entries() {
        let flags = if decays { 0 } else { FLAG_NO_DECAY };
        let values: Vec<f64> = value.data().iter().map(|&v| v as f64).collect();
        w.tensor(
            &format!("param.{name}"),
            flags,
            value.rows(),
            value.cols(),
            &values,
        );
    }
}

// ---------------------------------------------------------------------------
// Training-state <-> tensor encoding (resumable checkpoints)
// ---------------------------------------------------------------------------

// u64 values survive the f64 tensor table by splitting into two 32-bit
// halves (same trick the config seed uses); each half is exact in f64.
fn split_u64(x: u64) -> [f64; 2] {
    [(x >> 32) as f64, (x & 0xffff_ffff) as f64]
}

fn join_u64(hi: f64, lo: f64) -> u64 {
    ((hi as u64) << 32) | (lo as u64)
}

fn widen(m: &Matrix) -> Vec<f64> {
    m.data().iter().map(|&v| v as f64).collect()
}

fn push_train_state(w: &mut Writer, state: &ResumeState) {
    let has_best = state.best_snapshot.is_some();
    let [gs_hi, gs_lo] = split_u64(state.global_step);
    w.tensor(
        "train.progress",
        0,
        1,
        4,
        &[state.next_epoch as f64, gs_hi, gs_lo, has_best as u8 as f64],
    );
    let mut rng = Vec::with_capacity(8);
    for word in state.rng {
        rng.extend_from_slice(&split_u64(word));
    }
    w.tensor("train.rng", 0, 1, 8, &rng);
    let [t_hi, t_lo] = split_u64(state.adam.t);
    w.tensor(
        "train.adam.meta",
        0,
        1,
        3,
        &[t_hi, t_lo, state.adam.lr as f64],
    );
    let losses: Vec<f64> = state.losses.iter().map(|&l| l as f64).collect();
    w.tensor("train.losses", 0, 1, losses.len(), &losses);
    for (i, (m, v)) in state.adam.moments.iter().enumerate() {
        w.tensor(
            &format!("train.adam.m.{i:04}"),
            0,
            m.rows(),
            m.cols(),
            &widen(m),
        );
        w.tensor(
            &format!("train.adam.v.{i:04}"),
            0,
            v.rows(),
            v.cols(),
            &widen(v),
        );
    }
    if let Some(snap) = &state.best_snapshot {
        w.tensor(
            "train.best_val",
            0,
            1,
            1,
            &[state.best_val.unwrap_or(f64::NEG_INFINITY)],
        );
        for (i, m) in snap.iter().enumerate() {
            w.tensor(
                &format!("train.best.{i:04}"),
                0,
                m.rows(),
                m.cols(),
                &widen(m),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// ANN graph <-> tensor encoding
// ---------------------------------------------------------------------------

// `ann.meta` layout, one f64 per slot.
const ANN_META_SLOTS: usize = 8;

fn push_ann_graph(w: &mut Writer, graph: &AnnGraph) {
    let p = &graph.params;
    let h = &graph.hnsw;
    let [seed_hi, seed_lo] = split_u64(p.seed);
    w.tensor(
        "ann.meta",
        0,
        1,
        ANN_META_SLOTS,
        &[
            p.m as f64,
            p.ef_construction as f64,
            p.ef_search as f64,
            seed_hi,
            seed_lo,
            0.0, // quantized tier code: int8, the only tier
            h.entry as f64,
            h.layers.len() as f64,
        ],
    );
    let levels: Vec<f64> = h.levels.iter().map(|&l| l as f64).collect();
    w.tensor("ann.levels", 0, levels.len(), 1, &levels);
    for (l, layer) in h.layers.iter().enumerate() {
        let offsets: Vec<f64> = layer.offsets.iter().map(|&o| o as f64).collect();
        w.tensor(
            &format!("ann.layer.{l}.offsets"),
            0,
            1,
            offsets.len(),
            &offsets,
        );
        let targets: Vec<f64> = layer.targets.iter().map(|&t| t as f64).collect();
        w.tensor(
            &format!("ann.layer.{l}.targets"),
            0,
            1,
            targets.len(),
            &targets,
        );
    }
}

fn decode_ann_graph(raw: &RawCheckpoint) -> Result<Option<AnnGraph>, CkptError> {
    let Some(meta) = raw.tensors.iter().find(|t| t.name == "ann.meta") else {
        return Ok(None);
    };
    if meta.values.len() != ANN_META_SLOTS {
        return Err(CkptError::Malformed(format!(
            "ann.meta has {} slots, expected {ANN_META_SLOTS}",
            meta.values.len()
        )));
    }
    // The graph never depended on the tier code, so files that name the
    // retired f16 tier (1) load like int8 ones (0).
    let tier = meta.values[5] as i64;
    if !matches!(tier, 0 | 1) {
        return Err(CkptError::Malformed(format!(
            "unknown ann quant tier code {tier}"
        )));
    }
    let params = AnnParams {
        m: meta.values[0] as usize,
        ef_construction: meta.values[1] as usize,
        ef_search: meta.values[2] as usize,
        seed: join_u64(meta.values[3], meta.values[4]),
    };
    let entry = meta.values[6] as u32;
    let n_layers = meta.values[7] as usize;

    let levels_t = raw.tensor("ann.levels")?;
    let levels: Vec<u8> = levels_t.values.iter().map(|&v| v as u8).collect();
    let n = levels.len();
    // Search reads the ground layer of any non-empty graph, and no build
    // stacks more than `MAX_LEVEL + 1` layers.
    if n_layers > MAX_LEVEL + 1 || (n > 0 && n_layers == 0) {
        return Err(CkptError::Malformed(format!(
            "ann graph of {n} nodes has {n_layers} layers"
        )));
    }

    let mut layers = Vec::with_capacity(n_layers);
    for l in 0..n_layers {
        let name_off = format!("ann.layer.{l}.offsets");
        let off_t = raw
            .tensors
            .iter()
            .find(|t| t.name == name_off)
            .ok_or_else(|| CkptError::Malformed(format!("missing tensor {name_off:?}")))?;
        if off_t.values.len() != n + 1 {
            return Err(CkptError::Malformed(format!(
                "{name_off} has {} slots for {n} nodes",
                off_t.values.len()
            )));
        }
        let offsets: Vec<u32> = off_t.values.iter().map(|&v| v as u32).collect();
        let name_tgt = format!("ann.layer.{l}.targets");
        let tgt_t = raw
            .tensors
            .iter()
            .find(|t| t.name == name_tgt)
            .ok_or_else(|| CkptError::Malformed(format!("missing tensor {name_tgt:?}")))?;
        let targets: Vec<u32> = tgt_t.values.iter().map(|&v| v as u32).collect();
        let end = *offsets.last().unwrap_or(&0) as usize;
        if end != targets.len() || !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(CkptError::Malformed(format!(
                "ann layer {l} CSR is inconsistent ({} targets, final offset {end})",
                targets.len()
            )));
        }
        if targets.iter().any(|&t| t as usize >= n.max(1)) {
            return Err(CkptError::Malformed(format!(
                "ann layer {l} links past the {n}-node table"
            )));
        }
        layers.push(Layer { offsets, targets });
    }
    if n > 0 && entry as usize >= n {
        return Err(CkptError::Malformed(format!(
            "ann entry {entry} past the {n}-node table"
        )));
    }
    Ok(Some(AnnGraph {
        params,
        hnsw: Hnsw {
            m: params.m.max(2) as u32,
            entry,
            levels,
            layers,
        },
    }))
}

// ---------------------------------------------------------------------------
// The served section (`served.*` tables + `ann.*` graph)
// ---------------------------------------------------------------------------

/// The decoded served section: the tables and HNSW graph a serving store
/// adopts instead of recomputing them (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct ServedSection {
    /// `n_pois × dim` POI embeddings.
    pub pois: Matrix,
    /// `(n_relations + 1) × dim` relation scoring embeddings (φ last).
    pub relations: Matrix,
    /// `n_bins × dim` unit-normalised hyperplane normals.
    pub bin_normals: Matrix,
    /// The sealed HNSW graph over the first `ann.hnsw.len()` POI rows.
    pub ann: AnnGraph,
}

/// Writes `store`'s tables and sealed graph, stamped with the fingerprint
/// of every input tensor written before them. An exact-only store (no
/// graph) writes nothing.
fn push_served(w: &mut Writer, store: &EmbeddingStore) {
    let Some(ann) = &store.ann else {
        return;
    };
    w.tensor("served.meta", 0, 1, 2, &split_u64(w.inputs.0));
    for (name, m) in [
        ("served.pois", &store.pois),
        ("served.relations", &store.relations),
        ("served.bin_normals", &store.bin_normals),
    ] {
        w.tensor(name, 0, m.rows(), m.cols(), &widen(m));
    }
    push_ann_graph(w, &ann.graph);
}

/// The served section, if the file carries one whose fingerprint matches
/// its inputs. A stale section is dropped (the store is recomputed); a
/// current one must fit the header counts and the config's width.
fn decode_served(
    raw: &RawCheckpoint,
    n_pois: usize,
    n_relations: usize,
    config: &PrimConfig,
) -> Result<Option<ServedSection>, CkptError> {
    let Some(meta) = raw.tensors.iter().find(|t| t.name == "served.meta") else {
        return Ok(None);
    };
    if meta.values.len() != 2 {
        return Err(CkptError::Malformed(format!(
            "served.meta has {} slots, expected 2",
            meta.values.len()
        )));
    }
    if join_u64(meta.values[0], meta.values[1]) != raw.inputs {
        return Ok(None);
    }
    let table = |name: &str, rows: usize| -> Result<Matrix, CkptError> {
        let t = raw.tensor(name)?;
        if t.rows != rows || t.cols != config.dim {
            return Err(CkptError::Malformed(format!(
                "{name} is {}x{}, expected {rows}x{}",
                t.rows, t.cols, config.dim
            )));
        }
        Ok(t.matrix_f32())
    };
    let pois = table("served.pois", n_pois)?;
    let relations = table("served.relations", n_relations + 1)?;
    let bin_normals = table("served.bin_normals", config.bins.len())?;
    let ann = decode_ann_graph(raw)?
        .ok_or_else(|| CkptError::Malformed("served section without an ann graph".into()))?;
    if ann.hnsw.len() > n_pois {
        return Err(CkptError::Malformed(format!(
            "ann graph has {} nodes for {n_pois} POI rows",
            ann.hnsw.len()
        )));
    }
    Ok(Some(ServedSection {
        pois,
        relations,
        bin_normals,
        ann,
    }))
}

fn decode_train_state(raw: &RawCheckpoint) -> Result<Option<ResumeState>, CkptError> {
    let Some(progress) = raw.tensors.iter().find(|t| t.name == "train.progress") else {
        return Ok(None);
    };
    if progress.values.len() != 4 {
        return Err(CkptError::Malformed(format!(
            "train.progress has {} slots, expected 4",
            progress.values.len()
        )));
    }
    let next_epoch = progress.values[0] as usize;
    let global_step = join_u64(progress.values[1], progress.values[2]);
    let has_best = progress.values[3] != 0.0;

    let rng_t = raw.tensor("train.rng")?;
    if rng_t.values.len() != 8 {
        return Err(CkptError::Malformed(format!(
            "train.rng has {} slots, expected 8",
            rng_t.values.len()
        )));
    }
    let mut rng = [0u64; 4];
    for (i, word) in rng.iter_mut().enumerate() {
        *word = join_u64(rng_t.values[2 * i], rng_t.values[2 * i + 1]);
    }

    let meta = raw.tensor("train.adam.meta")?;
    if meta.values.len() != 3 {
        return Err(CkptError::Malformed(format!(
            "train.adam.meta has {} slots, expected 3",
            meta.values.len()
        )));
    }
    let t = join_u64(meta.values[0], meta.values[1]);
    let lr = meta.values[2] as f32;

    let losses: Vec<f32> = raw
        .tensor("train.losses")?
        .values
        .iter()
        .map(|&l| l as f32)
        .collect();

    let collect_indexed = |prefix: &str| -> Vec<Matrix> {
        let mut out = Vec::new();
        loop {
            let name = format!("{prefix}{:04}", out.len());
            match raw.tensors.iter().find(|t| t.name == name) {
                Some(t) => out.push(t.matrix_f32()),
                None => break,
            }
        }
        out
    };
    let ms = collect_indexed("train.adam.m.");
    let vs = collect_indexed("train.adam.v.");
    if ms.len() != vs.len() {
        return Err(CkptError::Malformed(format!(
            "{} first moments but {} second moments",
            ms.len(),
            vs.len()
        )));
    }
    let moments: Vec<(Matrix, Matrix)> = ms.into_iter().zip(vs).collect();

    let (best_val, best_snapshot) = if has_best {
        let bv = raw.tensor("train.best_val")?;
        if bv.values.len() != 1 {
            return Err(CkptError::Malformed("train.best_val must be 1x1".into()));
        }
        let snap = collect_indexed("train.best.");
        if snap.is_empty() {
            return Err(CkptError::Malformed(
                "best snapshot flagged but no train.best tensors".into(),
            ));
        }
        (Some(bv.values[0]), Some(snap))
    } else {
        (None, None)
    };

    Ok(Some(ResumeState {
        next_epoch,
        global_step,
        rng,
        adam: AdamState { t, lr, moments },
        losses,
        best_val,
        best_snapshot,
    }))
}

// ---------------------------------------------------------------------------
// Ingest snapshot state (the `ingest.*` section)
// ---------------------------------------------------------------------------

/// `[seq_hi, seq_lo, base_hi, base_lo, n_retired]`.
const INGEST_META_SLOTS: usize = 5;

/// Ingest continuation state carried by snapshot checkpoints: the WAL
/// high-water sequence number the snapshot covers (every mutation with
/// seq ≤ `snapshot_seq` is baked into the stored graph), plus the
/// provenance needed to reconstruct the *frozen-projection* spatial grid
/// bitwise — the grid's equirectangular reference latitude is anchored at
/// the original `base_pois` training population, later POIs were
/// [`GridIndex::insert`]ed under that frozen projection, and `retired`
/// ids were tombstoned.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestSnapshotState {
    /// Highest WAL seq whose effect is baked into this checkpoint.
    pub snapshot_seq: u64,
    /// POI count of the original training population (grid build set).
    pub base_pois: u64,
    /// Retired POI ids, ascending.
    pub retired: Vec<u32>,
}

impl IngestSnapshotState {
    /// Reconstructs the frozen-projection grid over `locations`: build
    /// over the first `base_pois` coordinates (fixing the reference
    /// latitude exactly as the live pipeline did), insert the rest in id
    /// order, then tombstone the retired ids. Insert and retire commute,
    /// so this is bitwise the grid the saving process was serving from.
    fn frozen_grid(&self, locations: &[Location], cell_km: f64) -> GridIndex {
        let base = (self.base_pois as usize).min(locations.len());
        let mut grid = GridIndex::build(&locations[..base], cell_km);
        for loc in &locations[base..] {
            grid.insert(*loc);
        }
        for &p in &self.retired {
            grid.retire(p as usize);
        }
        grid
    }
}

fn push_ingest_state(w: &mut Writer, state: &IngestSnapshotState) {
    let [seq_hi, seq_lo] = split_u64(state.snapshot_seq);
    let [base_hi, base_lo] = split_u64(state.base_pois);
    let meta = [seq_hi, seq_lo, base_hi, base_lo, state.retired.len() as f64];
    w.tensor("ingest.meta", 0, 1, INGEST_META_SLOTS, &meta);
    if !state.retired.is_empty() {
        let ids: Vec<f64> = state.retired.iter().map(|&p| p as f64).collect();
        w.tensor("ingest.retired", 0, 1, ids.len(), &ids);
    }
}

fn decode_ingest_state(
    raw: &RawCheckpoint,
    n_pois: usize,
) -> Result<Option<IngestSnapshotState>, CkptError> {
    let Ok(meta) = raw.tensor("ingest.meta") else {
        return Ok(None);
    };
    if meta.values.len() != INGEST_META_SLOTS {
        return Err(CkptError::Malformed(format!(
            "ingest.meta has {} slots, expected {INGEST_META_SLOTS}",
            meta.values.len()
        )));
    }
    let snapshot_seq = join_u64(meta.values[0], meta.values[1]);
    let base_pois = join_u64(meta.values[2], meta.values[3]);
    let n_retired = meta.values[4];
    if n_retired < 0.0 || n_retired.fract() != 0.0 || n_retired as usize > n_pois {
        return Err(CkptError::Malformed(format!(
            "ingest.meta retired count {n_retired} is not a valid POI count"
        )));
    }
    if base_pois as usize > n_pois {
        return Err(CkptError::Malformed(format!(
            "ingest.meta base_pois {base_pois} exceeds n_pois {n_pois}"
        )));
    }
    let n_retired = n_retired as usize;
    let mut retired = Vec::with_capacity(n_retired);
    if n_retired > 0 {
        let t = raw.tensor("ingest.retired")?;
        if t.values.len() != n_retired {
            return Err(CkptError::Malformed(format!(
                "ingest.retired holds {} ids, ingest.meta promised {n_retired}",
                t.values.len()
            )));
        }
        let mut prev: i64 = -1;
        for &v in &t.values {
            if v < 0.0 || v.fract() != 0.0 || v as usize >= n_pois {
                return Err(CkptError::Malformed(format!(
                    "ingest.retired id {v} out of range for {n_pois} POIs"
                )));
            }
            if (v as i64) <= prev {
                return Err(CkptError::Malformed(
                    "ingest.retired ids must be strictly ascending".into(),
                ));
            }
            prev = v as i64;
            retired.push(v as u32);
        }
    }
    Ok(Some(IngestSnapshotState {
        snapshot_seq,
        base_pois,
        retired,
    }))
}

// ---------------------------------------------------------------------------
// PRIM checkpoints
// ---------------------------------------------------------------------------

/// A fully decoded PRIM checkpoint: configuration, rebuilt graph metadata
/// and the parameter table, ready to be turned back into a scoring model
/// with [`PrimCheckpoint::rebuild`].
pub struct PrimCheckpoint {
    /// Run label recorded at save time.
    pub run: String,
    /// Model configuration (bins included, bit-exact).
    pub config: PrimConfig,
    /// Relation vocabulary, index order matching relation ids.
    pub relation_names: Vec<String>,
    /// The graph whose edges were visible at save time (the training
    /// edges), rebuilt POI-for-POI.
    pub graph: HeteroGraph,
    /// The category taxonomy, rebuilt node-for-node.
    pub taxonomy: Taxonomy,
    /// POI attribute features.
    pub attrs: Matrix,
    /// `(name, value)` parameter pairs in registration order.
    pub params: Vec<(String, Matrix)>,
    /// Mid-run training state, present when the checkpoint was written by
    /// the resumable trainer (absent in scoring-only checkpoints).
    pub train_state: Option<ResumeState>,
    /// The served section (`served.*` tables and `ann.*` graph), present
    /// when the file carries one computed from its current inputs —
    /// serving adopts it instead of re-embedding and rebuilding the index.
    pub served: Option<ServedSection>,
    /// Ingest continuation state (`ingest.*` tensors), present when the
    /// checkpoint is a streaming-ingest snapshot: the WAL high-water seq
    /// it covers plus the frozen-projection grid provenance. Loaders that
    /// predate streaming ingest ignore the extra tensors.
    pub ingest_state: Option<IngestSnapshotState>,
}

impl PrimCheckpoint {
    /// Rebuilds a scoring-ready model: deterministic [`ModelInputs`] from
    /// the stored graph metadata plus a [`PrimModel`] whose parameters are
    /// the checkpointed values. With the same binary on the same hardware,
    /// `rebuild` followed by `embed` is bitwise identical to the saving
    /// process's embeddings.
    ///
    /// For ingest snapshots the spatial structure is rebuilt over the
    /// snapshot's *frozen* grid — projection anchored at the original
    /// (train-time) POI population, retirements tombstoned — instead of
    /// re-deriving a projection from the mutated coordinates, so the
    /// bitwise guarantee extends to stores that grew after training.
    pub fn rebuild(&self) -> Result<(PrimModel, ModelInputs), CkptError> {
        let inputs = match &self.ingest_state {
            Some(st) => {
                let locations: Vec<Location> =
                    self.graph.pois().iter().map(|p| p.location).collect();
                let grid = st.frozen_grid(&locations, self.config.spatial_radius_km.max(1e-6));
                ModelInputs::build_with_grid(
                    &self.graph,
                    &self.taxonomy,
                    &self.attrs,
                    self.graph.edges(),
                    &grid,
                    &self.config,
                )
            }
            None => ModelInputs::build(
                &self.graph,
                &self.taxonomy,
                &self.attrs,
                self.graph.edges(),
                None,
                &self.config,
            ),
        };
        let mut model = PrimModel::new(self.config.clone(), &inputs);
        model
            .params_mut()
            .import_named(&self.params)
            .map_err(CkptError::Incompatible)?;
        Ok((model, inputs))
    }

    /// The grid a store serving this checkpoint answers radius queries
    /// from, over the checkpoint's POI `locations`, at the serving cell
    /// floor of 0.1 km. An ingest snapshot needs its *frozen* projection
    /// with retirements tombstoned, not a fresh build over the mutated
    /// coordinates — otherwise a recovered or promoted store would
    /// resurrect retired POIs as spatial candidates (and shift every
    /// within-radius distance via a recomputed ref_lat).
    pub fn serving_grid(&self, locations: &[Location]) -> GridIndex {
        let cell_km = self.config.spatial_radius_km.max(0.1);
        match &self.ingest_state {
            Some(st) => st.frozen_grid(locations, cell_km),
            None => GridIndex::build(locations, cell_km),
        }
    }
}

/// Serialises a trained PRIM model plus the graph metadata scoring needs,
/// with the served section a serving process adopts at load.
///
/// `graph` must be the graph the model was trained against (its edge list
/// is stored as the serving-time message-passing structure); `taxonomy`,
/// `attrs` and `relation_names` come from the same dataset. The served
/// tables come from one [`PrimModel::embed`] over the inputs
/// [`PrimCheckpoint::rebuild`] builds from this file, and the HNSW graph is
/// built over them with the config seed, as
/// [`EmbeddingStore::from_model`] does — so loading adopts exactly what
/// recomputing would produce. The write is atomic (temp sibling + rename),
/// so a crash mid-save can never leave a truncated checkpoint at `path`.
pub fn save_checkpoint(
    path: impl AsRef<Path>,
    run: &str,
    model: &PrimModel,
    graph: &HeteroGraph,
    taxonomy: &Taxonomy,
    attrs: &Matrix,
    relation_names: &[String],
) -> Result<(), CkptError> {
    let cfg = model.config();
    // The inputs are dropped before the index build, so they never hold
    // memory while the graph is constructed.
    let mut store = {
        let inputs = ModelInputs::build(graph, taxonomy, attrs, graph.edges(), None, cfg);
        EmbeddingStore::from_model_unindexed(model, &inputs, relation_names.to_vec())
    };
    store.build_ann(AnnParams {
        seed: cfg.seed,
        ..AnnParams::default()
    });
    let bytes = encode_checkpoint(
        run,
        model,
        graph,
        taxonomy,
        attrs,
        relation_names,
        None,
        Some(&store),
    );
    atomic_write(path.as_ref(), &bytes)?;
    Ok(())
}

/// Encodes a PRIM checkpoint (optionally resumable, optionally carrying
/// `served`'s tables and sealed HNSW graph as the served section) to bytes
/// without touching the filesystem — the rotation layer owns how bytes
/// land on disk. `served` must be the store these inputs produce; an
/// exact-only store (no graph) adds no section.
#[allow(clippy::too_many_arguments)] // full model + persistence context
pub fn encode_checkpoint(
    run: &str,
    model: &PrimModel,
    graph: &HeteroGraph,
    taxonomy: &Taxonomy,
    attrs: &Matrix,
    relation_names: &[String],
    train_state: Option<&ResumeState>,
    served: Option<&EmbeddingStore>,
) -> Vec<u8> {
    encode_checkpoint_ingest(
        run,
        model,
        graph,
        taxonomy,
        attrs,
        relation_names,
        train_state,
        served,
        None,
    )
}

/// [`encode_checkpoint`] additionally carrying ingest continuation state
/// as `ingest.*` tensors — the snapshot format streaming ingest persists
/// on the first flush after each WAL segment roll (with the published
/// store as `served`) and replication bootstraps followers from.
#[allow(clippy::too_many_arguments)] // full model + persistence context
pub fn encode_checkpoint_ingest(
    run: &str,
    model: &PrimModel,
    graph: &HeteroGraph,
    taxonomy: &Taxonomy,
    attrs: &Matrix,
    relation_names: &[String],
    train_state: Option<&ResumeState>,
    served: Option<&EmbeddingStore>,
    ingest: Option<&IngestSnapshotState>,
) -> Vec<u8> {
    let cfg = model.config();
    let names: Vec<String> = relation_names.iter().map(|n| json::str(n)).collect();
    let tax_names: Vec<String> = (0..taxonomy.num_nodes())
        .map(|i| json::str(taxonomy.name(TaxonomyNodeId(i as u32))))
        .collect();
    let header = json::obj(&[
        ("format", json::str("prim-ckpt")),
        ("kind", json::str("prim")),
        ("run", json::str(run)),
        ("n_pois", json::int(graph.num_pois() as u64)),
        ("n_relations", json::int(graph.num_relations() as u64)),
        ("n_taxonomy_nodes", json::int(taxonomy.num_nodes() as u64)),
        ("n_categories", json::int(taxonomy.num_categories() as u64)),
        ("relations", json::arr(&names)),
        ("taxonomy_names", json::arr(&tax_names)),
    ]);

    let mut w = Writer::new(&header);
    w.tensor("meta.config", 0, 1, CFG_SLOTS, &encode_config(cfg));
    w.tensor(
        "meta.bin_edges",
        0,
        1,
        cfg.bins.edges().len(),
        cfg.bins.edges(),
    );

    let n = graph.num_pois();
    let mut loc = Vec::with_capacity(n * 2);
    let mut cat = Vec::with_capacity(n);
    for p in graph.pois() {
        loc.push(p.location.lon);
        loc.push(p.location.lat);
        cat.push(p.category.0 as f64);
    }
    w.tensor("graph.locations", 0, n, 2, &loc);
    w.tensor("graph.category", 0, n, 1, &cat);

    let parents: Vec<f64> = (0..taxonomy.num_nodes())
        .map(|i| {
            taxonomy
                .parent(TaxonomyNodeId(i as u32))
                .map_or(-1.0, |p| p.0 as f64)
        })
        .collect();
    w.tensor("graph.tax_parent", 0, taxonomy.num_nodes(), 1, &parents);
    let leaves: Vec<f64> = (0..taxonomy.num_categories())
        .map(|c| taxonomy.leaf_node(prim_graph::CategoryId(c as u32)).0 as f64)
        .collect();
    w.tensor("graph.tax_leaf", 0, taxonomy.num_categories(), 1, &leaves);

    let mut edges = Vec::with_capacity(graph.num_edges() * 3);
    for e in graph.edges() {
        edges.push(e.src.0 as f64);
        edges.push(e.dst.0 as f64);
        edges.push(e.rel.0 as f64);
    }
    w.tensor("graph.edges", 0, graph.num_edges(), 3, &edges);

    let attr_vals: Vec<f64> = attrs.data().iter().map(|&v| v as f64).collect();
    w.tensor("graph.attrs", 0, attrs.rows(), attrs.cols(), &attr_vals);

    push_params(&mut w, model.params());
    if let Some(state) = train_state {
        push_train_state(&mut w, state);
    }
    if let Some(state) = ingest {
        push_ingest_state(&mut w, state);
    }
    // Last: the fingerprint covers every input tensor written above.
    if let Some(store) = served {
        push_served(&mut w, store);
    }
    w.seal()
}

/// Loads and fully decodes a PRIM checkpoint written by
/// [`save_checkpoint`].
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<PrimCheckpoint, CkptError> {
    decode_checkpoint(load_raw(path)?)
}

/// Interprets an already-decoded [`RawCheckpoint`] as a PRIM checkpoint —
/// the second half of [`load_checkpoint`], split out so callers that got
/// their bytes elsewhere (rotation recovery, fault-injection tests) share
/// the exact same validation.
pub fn decode_checkpoint(raw: RawCheckpoint) -> Result<PrimCheckpoint, CkptError> {
    if raw.header_str("kind")? != "prim" {
        return Err(CkptError::Incompatible(format!(
            "expected a prim checkpoint, found kind {:?}",
            raw.header_str("kind")?
        )));
    }
    let run = raw.header_str("run")?.to_string();
    let n_pois = raw.header_usize("n_pois")?;
    let n_relations = raw.header_usize("n_relations")?;
    let n_nodes = raw.header_usize("n_taxonomy_nodes")?;
    let n_categories = raw.header_usize("n_categories")?;
    let relation_names = raw.header_strings("relations")?;
    let tax_names = raw.header_strings("taxonomy_names")?;
    if relation_names.len() != n_relations {
        return Err(CkptError::Malformed(format!(
            "{} relation names for {n_relations} relations",
            relation_names.len()
        )));
    }
    if tax_names.len() != n_nodes {
        return Err(CkptError::Malformed(format!(
            "{} taxonomy names for {n_nodes} nodes",
            tax_names.len()
        )));
    }

    let config = decode_config(
        &raw.tensor("meta.config")?.values,
        &raw.tensor("meta.bin_edges")?.values,
    )?;

    // Taxonomy: node ids are assigned sequentially by add_* calls and
    // leaf ids in add_category order, so replaying the parent array in
    // ascending node order reproduces both id spaces exactly.
    let parents = &raw.tensor("graph.tax_parent")?.values;
    let leaves = &raw.tensor("graph.tax_leaf")?.values;
    if parents.len() != n_nodes || leaves.len() != n_categories {
        return Err(CkptError::Malformed(
            "taxonomy tensor sizes disagree with header counts".into(),
        ));
    }
    let leaf_set: std::collections::HashSet<u32> = leaves.iter().map(|&v| v as u32).collect();
    let mut taxonomy = Taxonomy::new(tax_names[0].clone());
    for (id, name) in tax_names.iter().enumerate().skip(1) {
        let parent = parents[id];
        if parent < 0.0 || parent as usize >= id {
            return Err(CkptError::Malformed(format!(
                "taxonomy node {id} has invalid parent {parent}"
            )));
        }
        let parent = TaxonomyNodeId(parent as u32);
        if leaf_set.contains(&(id as u32)) {
            taxonomy.add_category(parent, name.clone());
        } else {
            taxonomy.add_hypernym(parent, name.clone());
        }
    }
    for (c, &node) in leaves.iter().enumerate() {
        if taxonomy.leaf_node(prim_graph::CategoryId(c as u32)).0 != node as u32 {
            return Err(CkptError::Malformed(format!(
                "taxonomy leaf {c} did not rebuild to node {node}"
            )));
        }
    }

    let loc = raw.tensor("graph.locations")?;
    let cat = raw.tensor("graph.category")?;
    if loc.rows != n_pois || loc.cols != 2 || cat.rows != n_pois {
        return Err(CkptError::Malformed(
            "location/category tensor sizes disagree with header counts".into(),
        ));
    }
    let pois: Vec<Poi> = (0..n_pois)
        .map(|i| Poi {
            location: Location::new(loc.values[2 * i], loc.values[2 * i + 1]),
            category: prim_graph::CategoryId(cat.values[i] as u32),
        })
        .collect();
    let mut graph = HeteroGraph::new(pois, n_relations);
    let et = raw.tensor("graph.edges")?;
    if et.cols != 3 {
        return Err(CkptError::Malformed(
            "graph.edges must have 3 columns".into(),
        ));
    }
    graph.add_edges(et.values.chunks_exact(3).map(|c| {
        Edge::new(
            PoiId(c[0] as u32),
            PoiId(c[1] as u32),
            RelationId(c[2] as u8),
        )
    }));

    let at = raw.tensor("graph.attrs")?;
    if at.rows != n_pois {
        return Err(CkptError::Malformed(
            "graph.attrs row count disagrees with n_pois".into(),
        ));
    }
    let attrs = at.matrix_f32();

    let params: Vec<(String, Matrix)> = raw.params().into_iter().map(|(n, m, _)| (n, m)).collect();
    if params.is_empty() {
        return Err(CkptError::Malformed(
            "checkpoint holds no parameters".into(),
        ));
    }
    check_config_sizes(&config, &params, attrs.cols())?;

    let train_state = decode_train_state(&raw)?;
    let ingest_state = decode_ingest_state(&raw, n_pois)?;
    let served = decode_served(&raw, n_pois, n_relations, &config)?;

    Ok(PrimCheckpoint {
        run,
        config,
        relation_names,
        graph,
        taxonomy,
        attrs,
        params,
        train_state,
        served,
        ingest_state,
    })
}

// ---------------------------------------------------------------------------
// Generic parameter checkpoints (the baselines' model families)
// ---------------------------------------------------------------------------

/// A decoded parameter-only checkpoint (`kind = "params"`).
pub struct ParamsCheckpoint {
    /// Model family name recorded at save time (e.g. `"GCN"`).
    pub model: String,
    /// Run label recorded at save time.
    pub run: String,
    /// `(name, value, no_decay)` entries in registration order.
    pub entries: Vec<(String, Matrix, bool)>,
}

/// Serialises any [`ParamStore`] — the persistence half every baseline
/// model family shares (they all train through the same store).
pub fn save_params(
    path: impl AsRef<Path>,
    model: &str,
    run: &str,
    store: &ParamStore,
) -> Result<(), CkptError> {
    let header = json::obj(&[
        ("format", json::str("prim-ckpt")),
        ("kind", json::str("params")),
        ("model", json::str(model)),
        ("run", json::str(run)),
    ]);
    let mut w = Writer::new(&header);
    push_params(&mut w, store);
    atomic_write(path.as_ref(), &w.seal())?;
    Ok(())
}

/// Loads a parameter-only checkpoint written by [`save_params`].
pub fn load_params(path: impl AsRef<Path>) -> Result<ParamsCheckpoint, CkptError> {
    let raw = load_raw(path)?;
    if raw.header_str("kind")? != "params" {
        return Err(CkptError::Incompatible(format!(
            "expected a params checkpoint, found kind {:?}",
            raw.header_str("kind")?
        )));
    }
    Ok(ParamsCheckpoint {
        model: raw.header_str("model")?.to_string(),
        run: raw.header_str("run")?.to_string(),
        entries: raw.params(),
    })
}

/// Restores a parameter-only checkpoint into an existing store. The store
/// must already have the model's registration structure (same names,
/// shapes and order) — construct the model first, then load into it.
pub fn load_params_into(
    path: impl AsRef<Path>,
    expect_model: &str,
    store: &mut ParamStore,
) -> Result<(), CkptError> {
    let ckpt = load_params(path)?;
    if ckpt.model != expect_model {
        return Err(CkptError::Incompatible(format!(
            "checkpoint is for model {:?}, expected {expect_model:?}",
            ckpt.model
        )));
    }
    let entries: Vec<(String, Matrix)> = ckpt.entries.into_iter().map(|(n, m, _)| (n, m)).collect();
    store
        .import_named(&entries)
        .map_err(CkptError::Incompatible)
}

/// Persists any baseline [`prim_baselines::PairModel`] — the same API the
/// shared trainer's models flow through, so every family checkpoints
/// identically.
pub fn save_pair_model<M: prim_baselines::PairModel>(
    path: impl AsRef<Path>,
    run: &str,
    model: &M,
) -> Result<(), CkptError> {
    save_params(path, model.name(), run, model.store())
}

/// Restores a baseline [`prim_baselines::PairModel`] saved with
/// [`save_pair_model`], verifying the model family matches.
pub fn load_pair_model<M: prim_baselines::PairModel>(
    path: impl AsRef<Path>,
    model: &mut M,
) -> Result<(), CkptError> {
    let name = model.name();
    load_params_into(path, name, model.store_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn checksum_is_xxh64_with_seed_zero() {
        assert_eq!(checksum(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    /// `values` written as the only tensor of a sealed file, then decoded:
    /// the dtype the writer chose, and the values as the reader sees them.
    fn through_file(values: &[f64]) -> (Dtype, Vec<f64>) {
        let mut w = Writer::new("{}");
        w.tensor("t", 0, 1, values.len(), values);
        let bytes = w.seal();
        // Prologue, the 2-byte header, tensor count, name length, "t", flags.
        let code = bytes[16 + 2 + 8 + 4 + 1 + 1];
        let raw = decode(&bytes).expect("a sealed file decodes");
        let t = raw.tensors.into_iter().next().unwrap();
        (Dtype::from_code(code).unwrap(), t.values)
    }

    #[test]
    fn the_writer_picks_the_narrowest_exact_dtype() {
        let f32_nan = f32::from_bits(0x7fc0_1234) as f64;
        for (values, dtype) in [
            (vec![], Dtype::U32),
            (vec![0.0, 7.0, u32::MAX as f64], Dtype::U32),
            (vec![-0.0], Dtype::F32),
            (vec![-1.0, 3.0], Dtype::F32),
            (vec![4_294_967_296.0], Dtype::F32),
            (
                vec![0.5, f32::MIN_POSITIVE as f64 / 8.0, f32_nan],
                Dtype::F32,
            ),
            (vec![1.0, 0.1], Dtype::F64),
            (vec![4_294_967_297.0], Dtype::F64),
            (vec![f64::from_bits(1)], Dtype::F64),
            (vec![f64::from_bits(0x7ff8_0000_0000_0001)], Dtype::F64),
        ] {
            let (chosen, back) = through_file(&values);
            assert_eq!(chosen, dtype, "{values:?}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&values), "{values:?}");
        }
    }

    /// One f64 from a mix of the patterns each dtype rule must get right.
    fn pattern(kind: u8, raw: u64) -> f64 {
        match kind {
            0 => f64::from_bits(raw),
            1 => (raw as u32) as f64,
            2 => f32::from_bits(raw as u32) as f64,
            3 => -0.0,
            // NaNs of either sign with any payload, quiet or signalling.
            4 => f64::from_bits(raw | 0x7ff0_0000_0000_0001),
            // Subnormals of either sign.
            5 => f64::from_bits(raw & 0x800f_ffff_ffff_ffff),
            // Integers around 2^32.
            6 => 4_294_967_296.0 + (raw % 5) as f64 - 2.0,
            _ => (raw % 1000) as f64 / 10.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever dtype the writer picks, every f64 bit pattern reads
        /// back with the same bits.
        #[test]
        fn every_f64_bit_pattern_round_trips(
            raw in prop::collection::vec((0u8..8, 0u64..=u64::MAX), 0..12),
        ) {
            let values: Vec<f64> = raw.iter().map(|&(k, r)| pattern(k, r)).collect();
            let (_, back) = through_file(&values);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&back), bits(&values));
        }
    }
}
