//! Property fuzz over the two untrusted boundaries of streaming ingest:
//! the WAL decoder (arbitrary bytes from disk) and the mutation protocol
//! (arbitrary JSON from clients). Both must be *total* — structured
//! results for every input, never a panic — and the codec must round-trip
//! every representable mutation exactly.

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_geo::Location;
use prim_ingest::{decode_records, encode_record, CityIngest, IngestOpts, Mutation};
use prim_obs::json::{self, Value};
use prim_obs::Recorder;
use prim_serve::{
    decode_bytes, decode_checkpoint, encode_checkpoint, handle_line, EmbeddingStore, EngineOpts,
    EngineSlot, RealIo, ServeCtx, ServeEngine, TenantSpec,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, OnceLock, Weak};

mod common;
use common::Scratch;

fn ckpt_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.1, 3);
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
            "ingest-fuzz",
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

/// An ingest-wired protocol context: a tenant whose
/// `add_poi`/`add_edge`/`retire_poi` ops land in a live pipeline, with
/// the directories its WAL and snapshots live in.
struct Fixture {
    ctx: ServeCtx,
    _scratch: Scratch,
}

/// The fixture shared by every property running at the same time. The
/// last holder to finish drops it, removing its directories; the next
/// caller opens a fresh one.
fn ctx() -> Arc<Fixture> {
    static SHARED: Mutex<Weak<Fixture>> = Mutex::new(Weak::new());
    let mut shared = SHARED.lock().unwrap();
    if let Some(fixture) = shared.upgrade() {
        return fixture;
    }
    let ckpt = decode_checkpoint(decode_bytes(ckpt_bytes()).unwrap()).unwrap();
    let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    let engine = Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::enabled("ingest-fuzz"),
    ));
    let slot = EngineSlot::new(Arc::clone(&engine));
    let scratch = Scratch::new("ingest-fuzz");
    let ingest = CityIngest::open_replicated(
        Some(ckpt),
        scratch.path("fuzz.wal"),
        scratch.path("fuzz.snap"),
        Arc::new(RealIo),
        Arc::clone(&slot),
        EngineOpts::default(),
        IngestOpts::default(),
    )
    .unwrap();
    let fixture = Arc::new(Fixture {
        ctx: ServeCtx::multi(vec![TenantSpec::new("beijing", engine)
            .with_slot(slot)
            .with_ingest(ingest)]),
        _scratch: scratch,
    });
    *shared = Arc::downgrade(&fixture);
    fixture
}

fn assert_well_formed(input: &str, response: &str) {
    assert!(
        !response.contains('\n'),
        "response to {input:?} spans lines: {response:?}"
    );
    let v = json::parse(response)
        .unwrap_or_else(|e| panic!("response to {input:?} is not JSON ({e}): {response:?}"));
    match v.get("ok") {
        Some(Value::Bool(_)) => {}
        other => panic!("response to {input:?} lacks boolean \"ok\": {other:?}"),
    }
}

/// Realistic ingest requests (valid and nearly-valid) so truncation and
/// field mangling exercise the parse/validate paths, not just
/// `bad_request` on garbage.
const SEEDS: &[&str] = &[
    r#"{"op": "add_poi", "city": "beijing", "lon": 116.4, "lat": 39.9, "category": 1, "attrs": [0.1, 0.2]}"#,
    r#"{"op": "add_poi", "city": "beijing", "lon": 1e400, "lat": 39.9, "category": 1, "attrs": []}"#,
    r#"{"op": "add_edge", "city": "beijing", "src": 0, "dst": 1, "relation": 0}"#,
    r#"{"op": "add_edge", "city": "beijing", "src": 0, "dst": 1, "relation": "nonsense"}"#,
    r#"{"op": "add_edge", "city": "beijing", "src": -3, "dst": 99999999, "relation": 250}"#,
    r#"{"op": "retire_poi", "city": "beijing", "poi": 2}"#,
    r#"{"op": "retire_poi", "city": "beijing", "poi": {"nested": []}}"#,
    r#"{"op": "ingest_status", "city": "beijing"}"#,
    r#"{"op": "ingest_flush", "city": "beijing"}"#,
    r#"{"op": "add_poi", "city": "unknown-city", "lon": 0, "lat": 0, "category": 0, "attrs": []}"#,
];

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (
        0u8..3,
        (-180.0f64..180.0, -90.0f64..90.0),
        0u32..64,
        prop::collection::vec(-10.0f32..10.0, 0..12),
        (0u32..10_000, 0u32..10_000),
        0u8..8,
    )
        .prop_map(
            |(kind, (lon, lat), category, attrs, (src, dst), relation)| match kind {
                0 => Mutation::AddPoi {
                    location: Location { lon, lat },
                    category,
                    attrs,
                },
                1 => Mutation::AddEdge { src, dst, relation },
                _ => Mutation::RetirePoi { poi: src },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes from disk: the decoder returns a structured result
    /// (clean records + torn flag, or a typed error) and never panics.
    #[test]
    fn wal_decoder_is_total_on_byte_soup(
        data in prop::collection::vec(0u8..=255, 0..512),
    ) {
        let _ = decode_records(&data, 1);
    }

    /// Byte soup *behind a valid prefix*: the decoder still never panics,
    /// and whatever clean records it reports are exactly the prefix.
    #[test]
    fn wal_decoder_is_total_behind_valid_prefix(
        muts in prop::collection::vec(arb_mutation(), 0..4),
        tail in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let mut stream = Vec::new();
        for (i, m) in muts.iter().enumerate() {
            stream.extend_from_slice(&encode_record(i as u64 + 1, m));
        }
        let clean = stream.len();
        stream.extend_from_slice(&tail);
        // An Err is a structured corruption report — also fine.
        if let Ok(d) = decode_records(&stream, 1) {
            prop_assert!(d.records.len() >= muts.len().min(d.records.len()));
            for (i, (seq, m)) in d.records.iter().enumerate().take(muts.len()) {
                prop_assert_eq!(*seq, i as u64 + 1);
                prop_assert_eq!(m, &muts[i]);
            }
            if d.torn {
                prop_assert!(d.clean_len >= clean || d.records.len() < muts.len());
            }
        }
    }

    /// Every representable mutation stream round-trips exactly.
    #[test]
    fn wal_roundtrip_is_exact(
        muts in prop::collection::vec(arb_mutation(), 0..8),
    ) {
        let mut stream = Vec::new();
        for (i, m) in muts.iter().enumerate() {
            stream.extend_from_slice(&encode_record(i as u64 + 1, m));
        }
        let d = decode_records(&stream, 1).unwrap();
        prop_assert!(!d.torn);
        prop_assert_eq!(d.clean_len, stream.len());
        let got: Vec<Mutation> = d.records.into_iter().map(|(_, m)| m).collect();
        prop_assert_eq!(got, muts);
    }

    /// Any cut of a valid stream yields exactly the whole records before
    /// the cut, with the remainder reported torn.
    #[test]
    fn wal_any_cut_is_a_clean_prefix(
        muts in prop::collection::vec(arb_mutation(), 1..5),
        raw_cut in 0usize..1_000_000,
    ) {
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, m) in muts.iter().enumerate() {
            stream.extend_from_slice(&encode_record(i as u64 + 1, m));
            boundaries.push(stream.len());
        }
        let cut = raw_cut % (stream.len() + 1);
        let d = decode_records(&stream[..cut], 1).unwrap();
        let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        prop_assert_eq!(d.records.len(), whole);
        prop_assert_eq!(d.clean_len, boundaries[whole]);
        prop_assert_eq!(d.torn, cut != boundaries[whole]);
    }

    /// Arbitrary bytes as a protocol line: the ingest-wired handler
    /// answers every line with one well-formed JSON response, no panics.
    #[test]
    fn protocol_byte_soup_gets_a_structured_response(
        data in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let line = String::from_utf8_lossy(&data);
        if line.trim().is_empty() {
            return Ok(());
        }
        let h = handle_line(&ctx().ctx, &line);
        assert_well_formed(&line, &h.response);
        prop_assert!(!h.shutdown || line.contains("shutdown"));
    }

    /// Any prefix of a realistic ingest request is answered structurally.
    #[test]
    fn truncated_ingest_requests_get_structured_errors(
        seed in 0..SEEDS.len(),
        raw_cut in 0usize..1_000_000,
    ) {
        let full = SEEDS[seed];
        let cut = raw_cut % (full.len() + 1);
        let line = &full[..cut];
        if line.trim().is_empty() {
            return Ok(());
        }
        let h = handle_line(&ctx().ctx, line);
        assert_well_formed(line, &h.response);
        prop_assert!(!h.shutdown);
    }

    /// Full seed requests (valid or deliberately mangled) always produce
    /// one well-formed response; valid ones must succeed.
    #[test]
    fn seed_ingest_requests_are_handled(seed in 0..SEEDS.len()) {
        let full = SEEDS[seed];
        let h = handle_line(&ctx().ctx, full);
        assert_well_formed(full, &h.response);
        let v = json::parse(&h.response).unwrap();
        if seed == 7 || seed == 8 {
            // status/flush are always ok on a live tenant
            prop_assert!(matches!(v.get("ok"), Some(Value::Bool(true))));
        }
    }
}
