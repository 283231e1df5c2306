//! Checkpoint persistence and online inference for the PRIM reproduction.
//!
//! Training (`prim-core`) produces a model; this crate turns it into a
//! *service*. The pipeline is:
//!
//! 1. **Persist** — [`ckpt::save_checkpoint`] writes the versioned,
//!    checksummed `prim-ckpt/v2` file: config, every parameter, and the
//!    graph metadata (locations, categories, taxonomy, relation names,
//!    distance-bin edges, attributes, training edges) scoring needs, so a
//!    serving process never touches the original dataset, plus the served
//!    tables and HNSW graph computed from them.
//! 2. **Materialise** — [`store::EmbeddingStore`] adopts the
//!    POI/relation/bin-normal tables and the graph a checkpoint carries
//!    (or runs the forward pass once when it carries none) and freezes
//!    them next to a [`prim_geo::GridIndex`]; queries never touch the
//!    autograd tape.
//! 3. **Query** — [`engine::ServeEngine`] answers point scores, batched
//!    scores and spatial top-k over the frozen tables, with a sharded LRU
//!    score cache and `prim-obs` telemetry.
//! 4. **Speak** — [`proto`] defines a JSON-lines request/response
//!    protocol; [`server`] runs it over stdin/stdout or a TCP listener,
//!    both through one framer and one per-line handler.
//!
//! Every scoring path here reproduces
//! [`prim_core::PrimModel::score_pair_eager`] *bitwise*: same operation
//! order, same f32 accumulation, independent of batch size, cache state or
//! thread count.

pub mod ann;
pub mod cache;
pub mod chaos;
pub mod ckpt;
pub mod engine;
pub mod poll;
pub mod proto;
pub mod resume;
pub mod rotate;
pub mod server;
pub mod store;

pub use ann::{AnnGraph, AnnIndex, AnnParams, Hnsw, QuantStore, SearchStats};
pub use cache::ScoreCache;
pub use chaos::{atomic_write, ChaosClient, ChaosIo, Fault, FaultPlan, FileIo, RealIo};
pub use ckpt::{
    checksum, decode_bytes, decode_checkpoint, encode_checkpoint, encode_checkpoint_ingest,
    load_checkpoint, load_pair_model, load_params, load_params_into, load_raw, save_checkpoint,
    save_pair_model, save_params, CkptError, IngestSnapshotState, ParamsCheckpoint, PrimCheckpoint,
    RawCheckpoint, ServedSection, FLAG_NO_DECAY, MAGIC, VERSION,
};
pub use engine::{
    score_pairs_all, AnnOpts, EngineOpts, EngineSlot, Neighbor, PairScores, ServeEngine, CACHE_AUTO,
};
pub use poll::{Event, Interest, Poller};
pub use proto::{
    handle_line, handle_request, handle_request_gated, oversized_line_error, AdmissionGate,
    GatePermit, GatedHandled, Handled, IngestBackend, ServeCtx, ServeLimits, Tenant, TenantSpec,
    DEFAULT_TENANT,
};
pub use resume::{fit_resumable, fit_resumable_hooked, ResilienceOpts, ResumableRun, ResumeError};
pub use rotate::{CkptRotator, LATEST};
pub use server::{serve_stdin, LineEvent, LineFramer, TcpServer};
pub use store::EmbeddingStore;
