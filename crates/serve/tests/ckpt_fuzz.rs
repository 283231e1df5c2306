//! The checkpoint decode taxonomy is *total*: any truncation or byte flip
//! of a valid `prim-ckpt/v2` file must produce a structured [`CkptError`]
//! — never a panic and never a silent success. The on-disk format is the
//! crash-recovery trust boundary, so these properties are what lets
//! `latest_valid` treat "decodes" as "safe to resume from".

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_obs::Recorder;
use prim_serve::ckpt::NamedTensor;
use prim_serve::{
    checksum, decode_bytes, decode_checkpoint, encode_checkpoint, encode_checkpoint_ingest,
    AnnOpts, CkptError, EmbeddingStore, EngineOpts, IngestSnapshotState, RawCheckpoint,
    ServeEngine,
};
use prim_tensor::Matrix;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One small, fully valid checkpoint shared by every property below. It
/// carries the served section, so the properties cover its tensors too.
fn valid() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.1, 3);
        let cfg = PrimConfig {
            dim: 8,
            cat_dim: 4,
            epochs: 1,
            val_check_every: 0,
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
        let store = EmbeddingStore::from_model(&model, &inputs, ds.relation_names.clone());
        encode_checkpoint(
            "fuzz",
            &model,
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            &ds.relation_names,
            None,
            Some(&store),
        )
    })
}

#[test]
fn the_fixture_itself_decodes() {
    let raw = decode_bytes(valid()).expect("pristine checkpoint decodes");
    assert_eq!(raw.header_str("run").unwrap(), "fuzz");
}

#[test]
fn empty_input_is_a_truncation_error() {
    match decode_bytes(&[]) {
        Err(CkptError::Truncated { .. }) => {}
        Err(e) => panic!("empty input must be Truncated, got {e:?}"),
        Ok(_) => panic!("empty input decoded"),
    }
}

#[test]
fn foreign_bytes_are_bad_magic() {
    match decode_bytes(b"definitely not a checkpoint file at all") {
        Err(CkptError::BadMagic) => {}
        Err(e) => panic!("foreign bytes must be BadMagic, got {e:?}"),
        Ok(_) => panic!("foreign bytes decoded"),
    }
}

#[test]
fn future_version_is_a_version_skew_error() {
    let mut bytes = valid().to_vec();
    // Magic is 8 bytes; the version u32 follows it.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match decode_bytes(&bytes) {
        Err(CkptError::VersionSkew { found, .. }) => assert_eq!(found, 99),
        Err(e) => panic!("future version must be VersionSkew, got {e:?}"),
        Ok(_) => panic!("future version decoded"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every proper prefix of a valid checkpoint fails with a structured
    /// error — a torn write can never be mistaken for a complete file.
    #[test]
    fn any_truncation_is_a_structured_error(raw_cut in 0usize..1_000_000) {
        let bytes = valid();
        let cut = raw_cut % bytes.len(); // 0 <= cut < len: always a proper prefix
        let result = decode_bytes(&bytes[..cut]);
        prop_assert!(
            result.is_err(),
            "truncation at {cut}/{} decoded successfully",
            bytes.len()
        );
    }

    /// Every single-byte corruption of a valid checkpoint fails with a
    /// structured error — the checksum (or an earlier field check) catches
    /// silent bit rot anywhere in the file.
    #[test]
    fn any_byte_flip_is_a_structured_error(
        raw_at in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let mut bytes = valid().to_vec();
        let at = raw_at % bytes.len();
        bytes[at] ^= mask;
        let result = decode_bytes(&bytes);
        prop_assert!(
            result.is_err(),
            "flip of byte {at} (mask {mask:#04x}) decoded successfully"
        );
    }

    /// Arbitrary garbage never panics the decoder (errors are fine; a
    /// crash is not — the server's `reload` op feeds it untrusted paths).
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = decode_bytes(&data);
    }
}

// ---------------------------------------------------------------------------
// The served section: validated when kept, dropped when stale
// ---------------------------------------------------------------------------

/// Byte width of one value of a v2 entry's dtype (0: f64, 1: f32, 2: u32).
fn value_width(dtype: u8) -> usize {
    match dtype {
        0 => 8,
        1 | 2 => 4,
        other => panic!("unknown dtype {other}"),
    }
}

/// Byte range of tensor `name`'s table entry in checkpoint `bytes`: name
/// length and name, flags, dtype, rows, cols, then the values.
fn entry_range(bytes: &[u8], name: &str) -> std::ops::Range<usize> {
    let head: Vec<u8> = [&(name.len() as u32).to_le_bytes()[..], name.as_bytes()].concat();
    let start = bytes
        .windows(head.len())
        .position(|w| w == head.as_slice())
        .unwrap_or_else(|| panic!("no tensor {name:?}"));
    let width = value_width(bytes[start + head.len() + 1]);
    let dims = start + head.len() + 2;
    let rows = u64::from_le_bytes(bytes[dims..dims + 8].try_into().unwrap()) as usize;
    let cols = u64::from_le_bytes(bytes[dims + 8..dims + 16].try_into().unwrap()) as usize;
    start..dims + 16 + rows * cols * width
}

/// Recomputes the trailer checksum, as a deliberate edit would.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let sum = checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// `bytes` with tensor `name` replaced by a `rows × cols` f64 tensor of
/// `values` (flags kept), re-sealed.
fn with_tensor(bytes: &[u8], name: &str, rows: usize, cols: usize, values: &[f64]) -> Vec<u8> {
    let range = entry_range(bytes, name);
    let flags = bytes[range.start + 4 + name.len()];
    let mut entry = Vec::new();
    entry.extend_from_slice(&(name.len() as u32).to_le_bytes());
    entry.extend_from_slice(name.as_bytes());
    entry.push(flags);
    entry.push(0); // dtype f64, exact for any value
    entry.extend_from_slice(&(rows as u64).to_le_bytes());
    entry.extend_from_slice(&(cols as u64).to_le_bytes());
    for v in values {
        entry.extend_from_slice(&v.to_le_bytes());
    }
    reseal([&bytes[..range.start], &entry, &bytes[range.end..]].concat())
}

fn tensor_in(bytes: &[u8], name: &str) -> NamedTensor {
    decode_bytes(bytes).unwrap().tensor(name).unwrap().clone()
}

fn tensor(name: &str) -> NamedTensor {
    tensor_in(valid(), name)
}

fn expect_malformed(bytes: &[u8], needle: &str) {
    match decode_bytes(bytes).and_then(decode_checkpoint) {
        Err(CkptError::Malformed(msg)) => assert!(msg.contains(needle), "{needle}: {msg}"),
        Err(e) => panic!("{needle}: expected Malformed, got {e:?}"),
        Ok(_) => panic!("{needle}: inconsistent served section decoded"),
    }
}

#[test]
fn the_fixture_carries_a_current_served_section() {
    let ckpt = decode_checkpoint(decode_bytes(valid()).unwrap()).unwrap();
    assert!(ckpt.served.is_some());
}

/// A served section whose fingerprint still matches is validated against
/// the header and config, so shape edits that re-seal the file are
/// `Malformed`, never a panic at adopt or query time.
#[test]
fn shape_inconsistent_served_tensors_are_malformed() {
    let pois = tensor("served.pois");
    let (n, d) = (pois.rows, pois.cols);
    // POI rows ≠ n_pois.
    expect_malformed(
        &with_tensor(
            valid(),
            "served.pois",
            n - 1,
            d,
            &pois.values[..(n - 1) * d],
        ),
        "served.pois",
    );
    // Width ≠ cfg.dim.
    let narrow: Vec<f64> = pois
        .values
        .chunks_exact(d)
        .flat_map(|row| row[..d - 1].to_vec())
        .collect();
    expect_malformed(
        &with_tensor(valid(), "served.pois", n, d - 1, &narrow),
        "served.pois",
    );
    // Relation rows ≠ n_relations + 1.
    let rel = tensor("served.relations");
    expect_malformed(
        &with_tensor(
            valid(),
            "served.relations",
            rel.rows - 1,
            rel.cols,
            &rel.values[..(rel.rows - 1) * rel.cols],
        ),
        "served.relations",
    );
    // Graph nodes > rows: one more level entry and an empty neighbour
    // list for it on every layer, so the graph itself stays consistent.
    let mut levels = tensor("ann.levels").values;
    levels.push(0.0);
    let mut bytes = with_tensor(valid(), "ann.levels", levels.len(), 1, &levels);
    let n_layers = tensor("ann.meta").values[7] as usize;
    for l in 0..n_layers {
        let name = format!("ann.layer.{l}.offsets");
        let mut offsets = tensor_in(&bytes, &name).values;
        offsets.push(*offsets.last().unwrap());
        bytes = with_tensor(&bytes, &name, 1, offsets.len(), &offsets);
    }
    expect_malformed(&bytes, &format!("{} nodes for {n} POI rows", n + 1));
}

/// An edited input drops the section: a re-sealed parameter edit loads by
/// recompute, and its store is bitwise `rebuild` + `from_model` of the
/// edited file.
#[test]
fn resealed_param_edit_loads_by_recompute() {
    let bits = |m: &Matrix| -> Vec<u32> { m.data().iter().map(|v| v.to_bits()).collect() };
    let w_in = tensor("param.w_in");
    let mut values = w_in.values.clone();
    values[0] += 0.25;
    let edited = with_tensor(valid(), "param.w_in", w_in.rows, w_in.cols, &values);
    let ckpt = decode_checkpoint(decode_bytes(&edited).unwrap()).unwrap();
    assert!(ckpt.served.is_none(), "a stale section must be dropped");
    let loaded = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    let (model, inputs) = ckpt.rebuild().unwrap();
    let oracle = EmbeddingStore::from_model(&model, &inputs, ckpt.relation_names.clone());
    assert_eq!(bits(&loaded.pois), bits(&oracle.pois));
    assert_eq!(bits(&loaded.relations), bits(&oracle.relations));
    assert_eq!(bits(&loaded.bin_normals), bits(&oracle.bin_normals));
    let (a, b) = (loaded.ann.unwrap(), oracle.ann.unwrap());
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.quant, b.quant);
    let pristine = decode_checkpoint(decode_bytes(valid()).unwrap()).unwrap();
    assert_ne!(
        bits(&pristine.served.unwrap().pois),
        bits(&loaded.pois),
        "the edit must reach the recomputed table"
    );
}

/// The fingerprint covers the ingest section too: a snapshot whose
/// `ingest.*` tensors were edited and re-sealed drops its served section.
#[test]
fn resealed_ingest_edit_drops_the_served_section() {
    let ckpt = decode_checkpoint(decode_bytes(valid()).unwrap()).unwrap();
    let (model, inputs) = ckpt.rebuild().unwrap();
    let store = EmbeddingStore::from_model(&model, &inputs, ckpt.relation_names.clone());
    let state = IngestSnapshotState {
        snapshot_seq: 7,
        base_pois: ckpt.graph.num_pois() as u64,
        retired: vec![3],
    };
    let snapshot = encode_checkpoint_ingest(
        "fuzz-snapshot",
        &model,
        &ckpt.graph,
        &ckpt.taxonomy,
        &ckpt.attrs,
        &ckpt.relation_names,
        None,
        Some(&store),
        Some(&state),
    );
    let decoded = decode_checkpoint(decode_bytes(&snapshot).unwrap()).unwrap();
    assert!(decoded.served.is_some());
    let edited = with_tensor(&snapshot, "ingest.retired", 1, 1, &[4.0]);
    let decoded = decode_checkpoint(decode_bytes(&edited).unwrap()).unwrap();
    assert_eq!(decoded.ingest_state.unwrap().retired, vec![4]);
    assert!(decoded.served.is_none(), "a stale section must be dropped");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any byte of the served section (the last tensors in the file),
    /// flipped and re-sealed, decodes to a structured error or a store
    /// that loads and answers beam top-k queries — never a panic.
    #[test]
    fn resealed_served_byte_flip_never_panics(
        raw_at in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let bytes = valid();
        let start = entry_range(bytes, "served.meta").start;
        let body = bytes.len() - 8;
        let at = start + raw_at % (body - start);
        let mut edited = bytes.to_vec();
        edited[at] ^= mask;
        let Ok(ckpt) = decode_bytes(&reseal(edited)).and_then(decode_checkpoint) else {
            return Ok(());
        };
        let Ok(store) = EmbeddingStore::from_checkpoint(&ckpt) else {
            return Ok(());
        };
        let n = store.n_pois() as u32;
        let opts = EngineOpts {
            ann: AnnOpts {
                min_exact: 0,
                beam_cutoff: 0,
                ..AnnOpts::default()
            },
            ..EngineOpts::default()
        };
        let engine = ServeEngine::new(store, &opts, Recorder::disabled());
        for src in [0, n / 2, n - 1] {
            let _ = engine.top_k_related_mode(src, 1.0e4, 10, 0, false);
        }
    }
}

/// Answers beam top-k queries from three sources of a loaded store.
fn serve_a_few(store: EmbeddingStore) {
    let n = store.n_pois() as u32;
    let opts = EngineOpts {
        ann: AnnOpts {
            min_exact: 0,
            beam_cutoff: 0,
            ..AnnOpts::default()
        },
        ..EngineOpts::default()
    };
    let engine = ServeEngine::new(store, &opts, Recorder::disabled());
    for src in [0, n / 2, n - 1] {
        let _ = engine.top_k_related_mode(src, 1.0e4, 10, 0, false);
    }
}

/// The served section's tensors (`served.*` and `ann.*`), in file order.
fn served_names() -> &'static [String] {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    NAMES.get_or_init(|| {
        decode_bytes(valid())
            .unwrap()
            .tensors
            .into_iter()
            .map(|t| t.name)
            .filter(|n| n.starts_with("served.") || n.starts_with("ann."))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any value of a served tensor's dtype byte, re-sealed, decodes to a
    /// structured error or a store that loads and answers beam top-k
    /// queries — never a panic. Codes 0–2 reread the values at another
    /// width; any other code is an unknown dtype.
    #[test]
    fn resealed_served_dtype_byte_never_panics(
        pick in 0usize..1_000_000,
        code in 0u8..=255,
    ) {
        let name = &served_names()[pick % served_names().len()];
        let bytes = valid();
        let at = entry_range(bytes, name).start + 4 + name.len() + 1;
        let mut edited = bytes.to_vec();
        edited[at] = code;
        let Ok(ckpt) = decode_bytes(&reseal(edited)).and_then(decode_checkpoint) else {
            return Ok(());
        };
        if let Ok(store) = EmbeddingStore::from_checkpoint(&ckpt) {
            serve_a_few(store);
        }
    }
}

/// Re-sealed config edits that `PrimModel::new` cannot build from — a
/// `dim` its heads do not divide, no heads, a `dim` no stored parameter
/// has — are structured errors, never a panic or an aborted allocation
/// in `rebuild` (which `reload` runs on a shard thread).
#[test]
fn resealed_config_edits_are_errors_not_crashes() {
    let ckpt = decode_checkpoint(decode_bytes(valid()).unwrap()).unwrap();
    let (model, _) = ckpt.rebuild().unwrap();
    let plain = encode_checkpoint(
        "fuzz-plain",
        &model,
        &ckpt.graph,
        &ckpt.taxonomy,
        &ckpt.attrs,
        &ckpt.relation_names,
        None,
        None,
    );
    let rebuilt = |bytes: &[u8]| {
        decode_bytes(bytes)
            .and_then(decode_checkpoint)
            .and_then(|c| c.rebuild().map(|_| ()))
    };
    rebuilt(&plain).expect("the unedited file rebuilds");
    let config = tensor_in(&plain, "meta.config");
    // Slot 0 is `dim`, slot 3 `n_heads`; the fixture has 8 and 2.
    for (slot, value) in [(0, 9.0), (3, 0.0), (0, 1e13)] {
        let mut values = config.values.clone();
        values[slot] = value;
        let edited = with_tensor(&plain, "meta.config", 1, values.len(), &values);
        match rebuilt(&edited) {
            Err(CkptError::Malformed(_) | CkptError::Incompatible(_)) => {}
            Err(e) => {
                panic!("slot {slot} = {value}: expected Malformed or Incompatible, got {e:?}")
            }
            Ok(()) => panic!("slot {slot} = {value}: the edited config rebuilt"),
        }
    }
}

// ---------------------------------------------------------------------------
// v1 files still load
// ---------------------------------------------------------------------------

/// A `prim-ckpt/v1` file, written by `encode_checkpoint` before the v2
/// format existed, from [`valid`]'s recipe (the same subsample, config and
/// untrained model, with the served section): 98 POIs and 81,678 bytes,
/// every value an f64, an FNV-1a trailer.
fn v1() -> &'static [u8] {
    include_bytes!("data/fuzz_fixture_v1.ckpt")
}

#[test]
fn a_v1_file_decodes_and_keeps_its_served_section() {
    assert_eq!(v1()[8..12], 1u32.to_le_bytes());
    let ckpt = decode_checkpoint(decode_bytes(v1()).unwrap()).unwrap();
    assert_eq!(ckpt.graph.num_pois(), 98);
    assert!(
        ckpt.served.is_some(),
        "the v1 fingerprint rule must still match"
    );
}

/// Re-encoding a v1 file's decoded checkpoint (its rebuilt model and its
/// adopted store) writes v2 with the same header and tensor table: names,
/// flags, shapes and f64 value bits. Only `served.meta` differs, since v2
/// fingerprints stored bytes; the v2 file adopts the same section.
#[test]
fn a_v1_file_re_encodes_to_the_same_tensor_table() {
    let ckpt = decode_checkpoint(decode_bytes(v1()).unwrap()).unwrap();
    let (model, _) = ckpt.rebuild().unwrap();
    let store = EmbeddingStore::adopted(&ckpt).unwrap();
    let v2 = encode_checkpoint(
        &ckpt.run,
        &model,
        &ckpt.graph,
        &ckpt.taxonomy,
        &ckpt.attrs,
        &ckpt.relation_names,
        None,
        Some(&store),
    );
    assert_eq!(v2[8..12], 2u32.to_le_bytes());
    let header = |b: &[u8]| {
        let n = u32::from_le_bytes(b[12..16].try_into().unwrap()) as usize;
        b[16..16 + n].to_vec()
    };
    assert_eq!(header(v1()), header(&v2));
    type Row = (String, u8, usize, usize, Vec<u64>);
    let table = |raw: &RawCheckpoint| -> Vec<Row> {
        raw.tensors
            .iter()
            .filter(|t| t.name != "served.meta")
            .map(|t| {
                let bits = t.values.iter().map(|v| v.to_bits()).collect();
                (t.name.clone(), t.flags, t.rows, t.cols, bits)
            })
            .collect()
    };
    let (old, new) = (decode_bytes(v1()).unwrap(), decode_bytes(&v2).unwrap());
    assert_eq!(table(&old), table(&new));
    assert_ne!(
        old.tensor("served.meta").unwrap().values,
        new.tensor("served.meta").unwrap().values
    );
    let adopted = decode_checkpoint(new).unwrap().served;
    assert!(adopted.is_some(), "the v2 fingerprint must match");
    assert_eq!(adopted, ckpt.served);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// [`any_truncation_is_a_structured_error`] over the v1 file.
    #[test]
    fn any_truncation_of_a_v1_file_is_a_structured_error(raw_cut in 0usize..1_000_000) {
        let cut = raw_cut % v1().len();
        prop_assert!(
            decode_bytes(&v1()[..cut]).is_err(),
            "v1 truncation at {cut}/{} decoded successfully",
            v1().len()
        );
    }

    /// [`any_byte_flip_is_a_structured_error`] over the v1 file.
    #[test]
    fn any_byte_flip_of_a_v1_file_is_a_structured_error(
        raw_at in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let mut bytes = v1().to_vec();
        let at = raw_at % bytes.len();
        bytes[at] ^= mask;
        prop_assert!(
            decode_bytes(&bytes).is_err(),
            "v1 flip of byte {at} (mask {mask:#04x}) decoded successfully"
        );
    }
}
