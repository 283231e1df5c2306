//! Checkpoint robustness: bitwise round-trips and structured corruption
//! errors (truncation, flipped bytes, version skew) — never panics.

use prim_baselines::encoders::{EncoderModel, GcnEncoder};
use prim_baselines::{BaselineConfig, PairModel};
use prim_core::{fit, ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_graph::PoiId;
use prim_serve::{
    checksum, load_checkpoint, load_pair_model, load_raw, save_checkpoint, save_pair_model,
    save_params, CkptError,
};

mod common;
use common::Scratch;

fn tiny_trained() -> (Dataset, PrimConfig, ModelInputs, PrimModel) {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.12, 7);
    let cfg = PrimConfig {
        dim: 8,
        cat_dim: 4,
        epochs: 4,
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
    let mut model = PrimModel::new(cfg.clone(), &inputs);
    fit(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);
    (ds, cfg, inputs, model)
}

fn save_tiny(
    scratch: &Scratch,
    name: &str,
) -> (
    Dataset,
    PrimConfig,
    ModelInputs,
    PrimModel,
    std::path::PathBuf,
) {
    let (ds, cfg, inputs, model) = tiny_trained();
    let path = scratch.path(name);
    save_checkpoint(
        &path,
        "test-run",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
    )
    .unwrap();
    (ds, cfg, inputs, model, path)
}

#[test]
fn round_trip_is_bitwise_per_parameter() {
    let scratch = Scratch::new("serve-ckpt");
    let (ds, cfg, _inputs, model, path) = save_tiny(&scratch, "roundtrip.ckpt");
    let ckpt = load_checkpoint(&path).unwrap();

    assert_eq!(ckpt.run, "test-run");
    assert_eq!(ckpt.relation_names, ds.relation_names);
    assert_eq!(ckpt.graph.num_pois(), ds.graph.num_pois());
    assert_eq!(ckpt.graph.num_edges(), ds.graph.num_edges());
    assert_eq!(ckpt.graph.edges(), ds.graph.edges());
    assert_eq!(ckpt.taxonomy.num_nodes(), ds.taxonomy.num_nodes());
    assert_eq!(ckpt.taxonomy.num_categories(), ds.taxonomy.num_categories());
    assert_eq!(ckpt.config.seed, cfg.seed);
    assert_eq!(ckpt.config.bins.edges(), cfg.bins.edges());
    assert_eq!(ckpt.config.dim, cfg.dim);
    assert_eq!(ckpt.config.lr.to_bits(), cfg.lr.to_bits());
    assert_eq!(
        ckpt.config.weight_decay.to_bits(),
        cfg.weight_decay.to_bits()
    );

    // Locations must survive exactly: binning is threshold-sensitive.
    for (a, b) in ckpt.graph.pois().iter().zip(ds.graph.pois()) {
        assert_eq!(a.location.lon.to_bits(), b.location.lon.to_bits());
        assert_eq!(a.location.lat.to_bits(), b.location.lat.to_bits());
        assert_eq!(a.category, b.category);
    }

    // Every parameter group, bitwise, in registration order.
    let saved: Vec<(&str, &prim_tensor::Matrix, bool)> = model.params().entries().collect();
    assert_eq!(saved.len(), ckpt.params.len());
    for ((name, value, _decays), (l_name, l_value)) in saved.iter().zip(&ckpt.params) {
        assert_eq!(name, l_name, "parameter order must be preserved");
        assert_eq!(value.shape(), l_value.shape(), "{name}");
        for (x, y) in value.data().iter().zip(l_value.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{name} must round-trip bitwise");
        }
    }

    // And the rebuilt model scores identically to the original.
    let (rebuilt, re_inputs) = ckpt.rebuild().unwrap();
    let t0 = model.embed(&_inputs);
    let t1 = rebuilt.embed(&re_inputs);
    for (x, y) in t0.pois.data().iter().zip(t1.pois.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "embeddings must rebuild bitwise");
    }
    let pairs = [(PoiId(0), PoiId(1)), (PoiId(3), PoiId(2))];
    assert_eq!(
        model.predict_pairs(&t0, &_inputs, &pairs),
        rebuilt.predict_pairs(&t1, &re_inputs, &pairs)
    );
}

#[test]
fn no_decay_flags_survive() {
    let scratch = Scratch::new("serve-ckpt");
    let (_, _, _, model, path) = save_tiny(&scratch, "flags.ckpt");
    let loaded = load_raw(&path).unwrap().take_params();
    for ((name, _, decays), (l_name, _, l_no_decay)) in model.params().entries().zip(&loaded) {
        assert_eq!(name, l_name);
        assert_eq!(
            !decays, *l_no_decay,
            "{name}: the no-decay flag must round-trip"
        );
    }
}

#[test]
fn short_file_reports_truncated() {
    let scratch = Scratch::new("serve-ckpt");
    let (_, _, _, _, path) = save_tiny(&scratch, "trunc_short.ckpt");
    let bytes = std::fs::read(&path).unwrap();
    for cut in [0usize, 4, 10, 20] {
        let short = scratch.path(&format!("trunc_short_{cut}.ckpt"));
        std::fs::write(&short, &bytes[..cut]).unwrap();
        match load_checkpoint(&short) {
            Err(CkptError::Truncated { available, .. }) => {
                assert_eq!(available, cut as u64);
            }
            other => panic!(
                "cut at {cut}: expected Truncated, got {other:?}",
                other = other.map(|_| "Ok")
            ),
        }
    }
}

#[test]
fn mid_file_cut_reports_checksum_mismatch() {
    // Anything past the fixed prologue is covered by the trailing
    // checksum, so a mid-tensor cut surfaces as integrity loss (the
    // trailer bytes are now tensor data, not the real checksum).
    let scratch = Scratch::new("serve-ckpt");
    let (_, _, _, _, path) = save_tiny(&scratch, "trunc_mid.ckpt");
    let bytes = std::fs::read(&path).unwrap();
    let cut = bytes.len() / 2;
    let p = scratch.path("trunc_mid_cut.ckpt");
    std::fs::write(&p, &bytes[..cut]).unwrap();
    match load_checkpoint(&p) {
        Err(CkptError::ChecksumMismatch { stored, computed }) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected ChecksumMismatch, got {:?}", other.map(|_| "Ok")),
    }
}

#[test]
fn flipped_byte_reports_checksum_mismatch() {
    let scratch = Scratch::new("serve-ckpt");
    let (_, _, _, _, path) = save_tiny(&scratch, "flip.ckpt");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let p = scratch.path("flip_corrupt.ckpt");
    std::fs::write(&p, &bytes).unwrap();
    match load_checkpoint(&p) {
        Err(CkptError::ChecksumMismatch { .. }) => {}
        other => panic!("expected ChecksumMismatch, got {:?}", other.map(|_| "Ok")),
    }
}

#[test]
fn wrong_version_reports_skew() {
    let scratch = Scratch::new("serve-ckpt");
    let (_, _, _, _, path) = save_tiny(&scratch, "skew.ckpt");
    let mut bytes = std::fs::read(&path).unwrap();
    // Bump the version *and* re-seal the checksum: version skew must be
    // reported as such even on an internally consistent file.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let body_len = bytes.len() - 8;
    let sum = checksum(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    let p = scratch.path("skew_v99.ckpt");
    std::fs::write(&p, &bytes).unwrap();
    match load_checkpoint(&p) {
        Err(CkptError::VersionSkew { found, supported }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, prim_serve::VERSION);
        }
        other => panic!("expected VersionSkew, got {:?}", other.map(|_| "Ok")),
    }
}

#[test]
fn wrong_magic_reports_bad_magic() {
    let scratch = Scratch::new("serve-ckpt");
    let p = scratch.path("not_a_ckpt.bin");
    std::fs::write(
        &p,
        b"GIF89a......plenty of bytes here to pass length checks",
    )
    .unwrap();
    match load_checkpoint(&p) {
        Err(CkptError::BadMagic) => {}
        other => panic!("expected BadMagic, got {:?}", other.map(|_| "Ok")),
    }
}

#[test]
fn pair_model_round_trip_is_bitwise() {
    // The baselines' shared-trainer models persist through the same API.
    let ds = Dataset::beijing(Scale::Quick).subsample(0.12, 9);
    let cfg = BaselineConfig {
        dim: 8,
        epochs: 3,
        ..BaselineConfig::quick()
    };
    let inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &PrimConfig::quick(),
    );
    let mut model = EncoderModel::<GcnEncoder>::new(cfg.clone(), &inputs);
    prim_baselines::train_pair_model(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);

    let scratch = Scratch::new("serve-ckpt");
    let path = scratch.path("gcn.ckpt");
    save_pair_model(&path, "baseline-run", &model).unwrap();

    let mut fresh = EncoderModel::<GcnEncoder>::new(cfg, &inputs);
    load_pair_model(&path, &mut fresh).unwrap();
    for ((name, a, _), (_, b, _)) in model.store().entries().zip(fresh.store().entries()) {
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}");
        }
    }
    let pairs = [(PoiId(0), PoiId(1)), (PoiId(2), PoiId(4))];
    assert_eq!(
        prim_baselines::common::predict_pairs(&model, &inputs, &pairs),
        prim_baselines::common::predict_pairs(&fresh, &inputs, &pairs)
    );
}

#[test]
fn pair_model_rejects_wrong_family() {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.12, 9);
    let cfg = BaselineConfig {
        dim: 8,
        epochs: 1,
        ..BaselineConfig::quick()
    };
    let inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &PrimConfig::quick(),
    );
    let model = EncoderModel::<GcnEncoder>::new(cfg.clone(), &inputs);
    let scratch = Scratch::new("serve-ckpt");
    let path = scratch.path("family.ckpt");
    save_params(&path, "SomeOtherModel", "run", model.store()).unwrap();
    let mut fresh = EncoderModel::<GcnEncoder>::new(cfg, &inputs);
    match load_pair_model(&path, &mut fresh) {
        Err(CkptError::Incompatible(msg)) => {
            assert!(msg.contains("SomeOtherModel"), "{msg}");
        }
        other => panic!("expected Incompatible, got {:?}", other.map(|_| "Ok")),
    }
}

/// Ingest snapshots carry a `snapshot_seq` + frozen-grid section; it
/// must round-trip exactly, and a store loaded from such a checkpoint
/// must keep retired POIs out of the spatial candidate set (a promoted
/// follower or recovered primary serves from exactly this path).
#[test]
fn ingest_state_round_trips_and_retires_stay_tombstoned() {
    use prim_serve::{
        decode_bytes, decode_checkpoint, encode_checkpoint_ingest, EmbeddingStore,
        IngestSnapshotState,
    };
    let (ds, _cfg, _inputs, model) = tiny_trained();
    let n = ds.graph.num_pois();
    let retired: Vec<u32> = vec![2, 5];
    let state = IngestSnapshotState {
        snapshot_seq: 42,
        base_pois: n as u64,
        retired: retired.clone(),
    };
    let bytes = encode_checkpoint_ingest(
        "ingest-run",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        None,
        None,
        Some(&state),
    );
    let ckpt = decode_checkpoint(decode_bytes(&bytes).unwrap()).unwrap();
    let got = ckpt.ingest_state.as_ref().expect("ingest section lost");
    assert_eq!(got.snapshot_seq, 42);
    assert_eq!(got.base_pois, n as u64);
    assert_eq!(got.retired, retired);

    // Without the section, the same encode yields a plain checkpoint.
    let plain = encode_checkpoint_ingest(
        "plain-run",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        None,
        None,
        None,
    );
    let plain = decode_checkpoint(decode_bytes(&plain).unwrap()).unwrap();
    assert!(plain.ingest_state.is_none());

    // The loaded store must tombstone retirements in its grid: retired
    // ids never appear as spatial candidates, from any query point, at
    // any radius — while every live POI is still reachable.
    let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    let live = EmbeddingStore::from_checkpoint(&plain).unwrap();
    let mut saw_live = 0usize;
    for src in 0..n {
        for (j, _) in store.within_radius(PoiId(src as u32), 1.0e4) {
            assert!(
                !retired.contains(&(j as u32)),
                "retired poi {j} served as a candidate of {src}"
            );
        }
        // The plain store *does* surface the retired ids (the test would
        // be vacuous otherwise).
        saw_live += live
            .within_radius(PoiId(src as u32), 1.0e4)
            .iter()
            .filter(|(j, _)| retired.contains(&(*j as u32)))
            .count();
    }
    assert!(saw_live > 0, "retired ids never candidates even when live");
}

/// `ann.meta` slot 5 holds the quantized tier code: 0 for int8, the only
/// tier, which the writer always puts there. Older files may carry 1
/// (f16); the HNSW graph never depended on the code, so both decode to
/// the same graph, and any other code is corrupt.
#[test]
fn ann_tier_slot_accepts_both_known_codes_and_rejects_others() {
    use prim_serve::{decode_bytes, decode_checkpoint, encode_checkpoint, EmbeddingStore};
    let (ds, _cfg, inputs, model) = tiny_trained();
    let store = EmbeddingStore::from_model(&model, &inputs, ds.relation_names.clone());
    let graph = store
        .ann
        .as_ref()
        .expect("from_model indexes")
        .graph
        .clone();
    let bytes = encode_checkpoint(
        "tier-run",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        None,
        Some(&store),
    );
    // Tensor entries start with the u32 name length, then the name, a u8
    // flag byte, a u8 dtype byte, u64 rows and u64 cols; the slots follow
    // at the dtype's width (0: f64, 1: f32, 2: u32).
    let entry: Vec<u8> = [&8u32.to_le_bytes()[..], b"ann.meta"].concat();
    let at = bytes
        .windows(entry.len())
        .position(|w| w == entry.as_slice())
        .expect("indexed checkpoint carries ann.meta");
    let dtype = bytes[at + entry.len() + 1];
    let width = if dtype == 0 { 8 } else { 4 };
    let slot5 = at + entry.len() + 2 + 8 + 8 + 5 * width;
    let with_tier = |code: f64| {
        let mut b = bytes.clone();
        let stored = match dtype {
            0 => code.to_le_bytes().to_vec(),
            1 => (code as f32).to_le_bytes().to_vec(),
            _ => (code as u32).to_le_bytes().to_vec(),
        };
        b[slot5..slot5 + width].copy_from_slice(&stored);
        let body_len = b.len() - 8;
        let sum = checksum(&b[..body_len]);
        b[body_len..].copy_from_slice(&sum.to_le_bytes());
        b
    };
    assert_eq!(with_tier(0.0), bytes, "the writer puts 0 in slot 5");

    let int8 = decode_checkpoint(decode_bytes(&bytes).unwrap()).unwrap();
    assert_eq!(int8.served.as_ref().map(|s| &s.ann), Some(&graph));
    let f16 = decode_checkpoint(decode_bytes(&with_tier(1.0)).unwrap()).unwrap();
    assert_eq!(
        f16.served.as_ref().map(|s| &s.ann),
        int8.served.as_ref().map(|s| &s.ann)
    );

    match decode_bytes(&with_tier(2.0)).and_then(decode_checkpoint) {
        Err(CkptError::Malformed(msg)) => assert!(msg.contains("tier code 2"), "{msg}"),
        other => panic!("expected Malformed, got {:?}", other.map(|_| "Ok")),
    }
}

/// Everything a store serves from, as bits: the three tables, the HNSW
/// graph and quantized tier, locations, bins, and every POI's radius
/// candidates with their distances.
fn assert_same_store(a: &prim_serve::EmbeddingStore, b: &prim_serve::EmbeddingStore, label: &str) {
    let bits =
        |m: &prim_tensor::Matrix| -> Vec<u32> { m.data().iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&a.pois), bits(&b.pois), "{label}: POI table");
    assert_eq!(bits(&a.relations), bits(&b.relations), "{label}: relations");
    assert_eq!(
        bits(&a.bin_normals),
        bits(&b.bin_normals),
        "{label}: bin normals"
    );
    let (ia, ib) = (a.ann.as_ref().unwrap(), b.ann.as_ref().unwrap());
    assert_eq!(ia.graph, ib.graph, "{label}: HNSW graph");
    assert_eq!(ia.quant, ib.quant, "{label}: quantized tier");
    assert_eq!(
        a.relation_names, b.relation_names,
        "{label}: relation names"
    );
    assert_eq!(a.bins.edges(), b.bins.edges(), "{label}: bins");
    assert_eq!(a.use_distance_scoring, b.use_distance_scoring);
    let loc = |s: &prim_serve::EmbeddingStore| -> Vec<(u64, u64)> {
        s.locations
            .iter()
            .map(|l| (l.lon.to_bits(), l.lat.to_bits()))
            .collect()
    };
    assert_eq!(loc(a), loc(b), "{label}: locations");
    for p in 0..a.n_pois() as u32 {
        let near = |s: &prim_serve::EmbeddingStore| -> Vec<(usize, u64)> {
            s.within_radius(PoiId(p), 3.0)
                .into_iter()
                .map(|(j, d)| (j, d.to_bits()))
                .collect()
        };
        assert_eq!(near(a), near(b), "{label}: grid around {p}");
    }
}

/// Adopt equals recompute: the served section `save_checkpoint` writes is
/// bitwise the store `rebuild` + `from_model` computes from the same file,
/// and `from_checkpoint` takes the adopt branch.
#[test]
fn served_save_adopts_exactly_what_recompute_builds() {
    use prim_serve::EmbeddingStore;
    let scratch = Scratch::new("serve-ckpt");
    let (ds, _cfg, _inputs, _model, path) = save_tiny(&scratch, "served.ckpt");
    let ckpt = load_checkpoint(&path).unwrap();
    assert!(ckpt.served.is_some(), "save_checkpoint writes the section");
    let (model, inputs) = ckpt.rebuild().unwrap();
    let oracle = EmbeddingStore::from_model(&model, &inputs, ds.relation_names.clone());
    let adopted = EmbeddingStore::adopted(&ckpt).unwrap();
    assert_same_store(&adopted, &oracle, "adopted vs rebuild + from_model");
    let loaded = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    assert_same_store(&loaded, &adopted, "from_checkpoint vs adopted");
}
