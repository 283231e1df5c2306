//! ANN serving parity: the approximate top-k path must match the exact
//! path bitwise wherever their candidate sets overlap, meet the recall
//! bar everywhere else, round-trip its graph through the checkpoint, and
//! swap atomically with the store under hot reload.

use prim_core::{fit, ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_geo::{DistanceBins, GridIndex, Location};
use prim_obs::{Counter, Recorder};
use prim_serve::{
    decode_bytes, decode_checkpoint, encode_checkpoint, load_checkpoint, save_checkpoint, AnnOpts,
    AnnParams, EmbeddingStore, EngineOpts, EngineSlot, Neighbor, ServeEngine,
};
use prim_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

mod common;
use common::Scratch;

/// A synthetic serving store: random embeddings over random
/// Singapore-box locations. Fabricated directly (no training) so the ANN
/// regimes can be exercised at sizes a trained fixture would make slow.
fn synthetic_store(n: usize, dim: usize, seed: u64, distance_scoring: bool) -> EmbeddingStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rand_mat = |rows: usize| {
        Matrix::from_vec(
            rows,
            dim,
            (0..rows * dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    };
    let pois = rand_mat(n);
    let relations = rand_mat(4); // three relations + φ
    let bins = DistanceBins::new(vec![0.5, 1.0, 2.0, 5.0]);
    let mut bin_normals = rand_mat(bins.len());
    for b in 0..bin_normals.rows() {
        let norm = bin_normals.row(b).iter().map(|v| v * v).sum::<f32>().sqrt();
        for v in bin_normals.row_mut(b) {
            *v /= norm;
        }
    }
    let locations: Vec<Location> = (0..n)
        .map(|_| {
            Location::new(
                103.8198 + rng.gen_range(-0.08..0.08),
                1.3521 + rng.gen_range(-0.08..0.08),
            )
        })
        .collect();
    let grid = GridIndex::build(&locations, 1.0);
    let mut store = EmbeddingStore {
        pois,
        relations,
        bin_normals,
        relation_names: vec!["serve".into(), "compete".into(), "complement".into()],
        locations,
        bins,
        use_distance_scoring: distance_scoring,
        grid,
        ann: None,
    };
    store.build_ann(AnnParams {
        seed,
        ..AnnParams::default()
    });
    store
}

fn engine_with(store: EmbeddingStore, ann: AnnOpts, recorder: Recorder) -> ServeEngine {
    let opts = EngineOpts {
        ann,
        ..EngineOpts::default()
    };
    ServeEngine::new(store, &opts, recorder)
}

/// Forces the quantized-scan regime on every non-empty candidate set.
fn scan_opts() -> AnnOpts {
    AnnOpts {
        min_exact: 0,
        beam_cutoff: usize::MAX,
        ..AnnOpts::default()
    }
}

/// Forces the HNSW-beam regime on every non-empty candidate set.
fn beam_opts() -> AnnOpts {
    AnnOpts {
        min_exact: 0,
        beam_cutoff: 1,
        ef_search: 128,
        ..AnnOpts::default()
    }
}

fn ranking_key(neighbors: &[Neighbor]) -> Vec<(u32, u32)> {
    neighbors
        .iter()
        .map(|n| (n.poi, n.score.to_bits()))
        .collect()
}

fn recall(ann: &[Neighbor], exact: &[Neighbor]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let truth: std::collections::HashSet<u32> = exact.iter().map(|n| n.poi).collect();
    let hit = ann.iter().filter(|n| truth.contains(&n.poi)).count();
    hit as f64 / exact.len() as f64
}

/// When `ef` covers the whole candidate set, the quantized scan keeps
/// everything the exact path scores — so the ANN response must be the
/// exact response, bit for bit, tie-break for tie-break.
#[test]
fn scan_regime_with_full_coverage_is_bitwise_exact() {
    let engine = engine_with(
        synthetic_store(3000, 16, 11, true),
        scan_opts(),
        Recorder::disabled(),
    );
    let mut checked = 0usize;
    for src in (0..3000u32).step_by(97) {
        // ~30 candidates inside 1 km; ef = max(64, 10·4) covers them all.
        let exact = engine.top_k_related(src, 1.0, 10, 1);
        let (ann, mode) = engine.top_k_related_mode(src, 1.0, 10, 1, false);
        if exact.is_empty() {
            continue;
        }
        assert_eq!(mode, "ann", "src {src}");
        assert_eq!(
            ranking_key(&ann),
            ranking_key(&exact),
            "src {src}: full-coverage scan must reproduce the exact response"
        );
        checked += 1;
    }
    assert!(checked > 20, "fixture degenerated: only {checked} queries");
}

/// With `ef` far below the candidate count the scan actually prunes, and
/// recall is bounded by quantization ranking error alone — which must
/// stay above the 0.95 gate. Returned scores stay bitwise-exact.
#[test]
fn scan_regime_recall_meets_bar_under_pruning() {
    let engine = engine_with(
        synthetic_store(4000, 16, 13, true),
        scan_opts(),
        Recorder::disabled(),
    );
    let (mut total, mut n_queries) = (0.0f64, 0usize);
    for src in (0..4000u32).step_by(61) {
        // ~350 candidates inside 3.5 km, ef = 64: real pruning.
        let exact = engine.top_k_related(src, 3.5, 10, 1);
        let (ann, mode) = engine.top_k_related_mode(src, 3.5, 10, 1, false);
        if exact.len() < 10 {
            continue;
        }
        assert_eq!(mode, "ann");
        for n in &ann {
            let want = exact.iter().find(|e| e.poi == n.poi);
            if let Some(e) = want {
                assert_eq!(
                    n.score.to_bits(),
                    e.score.to_bits(),
                    "src {src} poi {}",
                    n.poi
                );
            }
        }
        total += recall(&ann, &exact);
        n_queries += 1;
    }
    assert!(
        n_queries > 30,
        "fixture degenerated: only {n_queries} queries"
    );
    let avg = total / n_queries as f64;
    assert!(avg >= 0.95, "scan recall@10 {avg:.4} below the 0.95 gate");
}

/// The beam regime: broad radius, graph walk under the quantized
/// similarity. Recall must clear the gate and every returned score must
/// equal the exact kernel's bits for that pair.
#[test]
fn beam_regime_recall_meets_bar() {
    let engine = engine_with(
        synthetic_store(4000, 16, 17, true),
        beam_opts(),
        Recorder::disabled(),
    );
    let (mut total, mut n_queries) = (0.0f64, 0usize);
    for src in (0..4000u32).step_by(121) {
        let exact = engine.top_k_related(src, 30.0, 10, 0);
        let (ann, mode) = engine.top_k_related_mode(src, 30.0, 10, 0, false);
        assert_eq!(mode, "ann");
        for n in &ann {
            let s = engine.score(src, n.poi);
            assert_eq!(
                n.score.to_bits(),
                s.scores()[0].to_bits(),
                "src {src} poi {}: beam result must carry exact-kernel bits",
                n.poi
            );
        }
        total += recall(&ann, &exact);
        n_queries += 1;
    }
    assert!(n_queries > 20);
    let avg = total / n_queries as f64;
    assert!(avg >= 0.95, "beam recall@10 {avg:.4} below the 0.95 gate");
}

/// Manufactured ties: clusters of POIs sharing one embedding row score
/// identically (distance scoring off), so ordering is decided purely by
/// the `(score desc, poi asc)` tie-break — which must come out the same
/// on the exact and ANN paths.
#[test]
fn tie_break_is_identical_on_exact_and_ann_paths() {
    let mut store = synthetic_store(1500, 16, 19, false);
    // Three clusters of ten duplicates each, scattered across the id
    // space so the grid order differs from the id order.
    for (c, base) in [(0usize, 40usize), (1, 700), (2, 1310)] {
        let row: Vec<f32> = store.pois.row(100 + c * 13).to_vec();
        for i in 0..10 {
            store.pois.row_mut(base + i * 7).copy_from_slice(&row);
        }
    }
    store.build_ann(AnnParams {
        seed: 19,
        ..AnnParams::default()
    });
    let engine = engine_with(
        store,
        AnnOpts {
            // Wide ef so the scan keeps every candidate: any ordering
            // difference is then a tie-break bug, not a recall artifact.
            ef_search: 1 << 16,
            ..scan_opts()
        },
        Recorder::disabled(),
    );
    let mut tied_queries = 0usize;
    for src in (0..1500u32).step_by(23) {
        let exact = engine.top_k_related(src, 6.0, 25, 2);
        let (ann, mode) = engine.top_k_related_mode(src, 6.0, 25, 2, false);
        if exact.is_empty() {
            continue;
        }
        assert_eq!(mode, "ann");
        assert_eq!(
            ranking_key(&ann),
            ranking_key(&exact),
            "src {src}: tie-break order diverged between exact and ANN"
        );
        let mut score_ids: std::collections::HashMap<u32, Vec<u32>> = Default::default();
        for n in &exact {
            score_ids.entry(n.score.to_bits()).or_default().push(n.poi);
        }
        if score_ids.values().any(|ids| ids.len() >= 2) {
            tied_queries += 1;
            // Within a tie, ids must ascend.
            for ids in score_ids.values() {
                assert!(
                    ids.windows(2).all(|w| w[0] < w[1]),
                    "src {src}: tie ids not ascending"
                );
            }
        }
    }
    assert!(
        tied_queries > 0,
        "fixture never produced an observable tie — test is vacuous"
    );
}

/// Dispatch contract: `exact: true` and tiny candidate sets both serve
/// the exact path (and say so), a store without an index serves exact,
/// and the ANN regimes report their counters.
#[test]
fn dispatch_modes_and_counters() {
    // exact=true forces the oracle path even with ANN available.
    let engine = engine_with(
        synthetic_store(2000, 16, 23, true),
        scan_opts(),
        Recorder::disabled(),
    );
    let (_, mode) = engine.top_k_related_mode(5, 1.0, 10, 1, true);
    assert_eq!(mode, "exact");

    // Tiny populations delegate to exact even when ANN is on.
    let engine = engine_with(
        synthetic_store(2000, 16, 23, true),
        AnnOpts {
            min_exact: 1 << 20,
            ..AnnOpts::default()
        },
        Recorder::disabled(),
    );
    let (_, mode) = engine.top_k_related_mode(5, 1.0, 10, 1, false);
    assert_eq!(mode, "exact");

    // A store built without an index always serves exact.
    let mut unindexed = synthetic_store(2000, 16, 23, true);
    unindexed.ann = None;
    let engine = engine_with(unindexed, scan_opts(), Recorder::disabled());
    let (_, mode) = engine.top_k_related_mode(5, 1.0, 10, 1, false);
    assert_eq!(mode, "exact");

    // Scan regime fills the ANN counters.
    let rec = Recorder::enabled("ann_counters_scan");
    let engine = engine_with(
        synthetic_store(2000, 16, 23, true),
        scan_opts(),
        rec.clone(),
    );
    let (res, mode) = engine.top_k_related_mode(5, 1.0, 10, 1, false);
    assert_eq!(mode, "ann");
    assert!(!res.is_empty());
    assert!(rec.counter(Counter::AnnNodesVisited) > 0);
    assert!(rec.counter(Counter::AnnCandidates) > 0);
    assert_eq!(
        rec.counter(Counter::AnnRescored),
        rec.counter(Counter::ServePairs),
        "every rescored candidate is a served pair"
    );

    // Beam regime (radius covering most of the box, so the selectivity
    // guard lets the walk run): visited nodes and the radius filter both
    // show up.
    let rec = Recorder::enabled("ann_counters_beam");
    let engine = engine_with(
        synthetic_store(2000, 16, 23, true),
        beam_opts(),
        rec.clone(),
    );
    let (res, mode) = engine.top_k_related_mode(5, 9.0, 10, 1, false);
    assert_eq!(mode, "ann");
    assert!(!res.is_empty());
    assert!(rec.counter(Counter::AnnNodesVisited) > 0);
    assert!(
        rec.counter(Counter::AnnRadiusPruned) > 0,
        "a 9 km radius over an 18 km box must prune beam candidates"
    );
    assert!(rec.counter(Counter::AnnRescored) > 0);
}

/// Checkpoint round-trip: `save_checkpoint` persists the graph it builds
/// at save time bit-exactly, `from_checkpoint` adopts it, and a checkpoint
/// encoded without the served section rebuilds the identical graph from
/// the config seed (determinism).
#[test]
fn ann_graph_round_trips_through_checkpoint() {
    let cfg = PrimConfig {
        dim: 16,
        cat_dim: 8,
        epochs: 3,
        val_check_every: 0,
        ..PrimConfig::quick()
    };
    let ds = Dataset::beijing(Scale::Quick).subsample(0.2, 5);
    let inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &cfg,
    );
    let mut model = PrimModel::new(cfg, &inputs);
    fit(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);

    let built = EmbeddingStore::from_model(&model, &inputs, ds.relation_names.clone());
    let graph = built
        .ann
        .as_ref()
        .expect("from_model indexes")
        .graph
        .clone();

    // Served save → the graph built at save time comes back exactly and
    // is adopted.
    let scratch = Scratch::new("ann-topk");
    let served = scratch.path("served.ckpt");
    save_checkpoint(
        &served,
        "ann_roundtrip",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
    )
    .unwrap();
    let ckpt = load_checkpoint(&served).unwrap();
    assert_eq!(
        ckpt.served.as_ref().map(|s| &s.ann),
        Some(&graph),
        "persisted graph differs"
    );
    let adopted = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    assert_eq!(adopted.ann.as_ref().unwrap().graph, graph);

    // Encode without the section → no served tensors, but the rebuild is
    // deterministic and lands on the same graph.
    let plain = encode_checkpoint(
        "ann_rebuild",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        None,
        None,
    );
    let ckpt = decode_checkpoint(decode_bytes(&plain).unwrap()).unwrap();
    assert!(ckpt.served.is_none());
    let rebuilt = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    assert_eq!(
        rebuilt.ann.as_ref().unwrap().graph,
        graph,
        "seeded construction must be deterministic across processes"
    );

    // The adopted store serves the same responses as the built one.
    let opts = EngineOpts::default();
    let a = ServeEngine::new(built, &opts, Recorder::disabled());
    let b = ServeEngine::new(adopted, &opts, Recorder::disabled());
    for src in (0..a.store().n_pois() as u32).step_by(17) {
        let (ra, ma) = a.top_k_related_mode(src, 2.0, 5, 0, false);
        let (rb, mb) = b.top_k_related_mode(src, 2.0, 5, 0, false);
        assert_eq!(ma, mb, "src {src}");
        assert_eq!(ranking_key(&ra), ranking_key(&rb), "src {src}");
    }
}

/// Hot reload under load: the ANN index rides inside the store, so a
/// swap can never pair the new tables with the old graph. Every response
/// observed while swapping must be wholly old or wholly new.
#[test]
fn reload_swaps_store_and_index_atomically_under_load() {
    let ann = scan_opts();
    let make = |seed: u64| {
        Arc::new(engine_with(
            synthetic_store(1200, 16, seed, true),
            ann,
            Recorder::disabled(),
        ))
    };
    let old = make(31);
    let new = make(32);
    let query = |e: &ServeEngine| e.top_k_related_mode(7, 2.0, 10, 1, false).0;
    let want_old = ranking_key(&query(&old));
    let want_new = ranking_key(&query(&new));
    assert_ne!(want_old, want_new, "stores must be distinguishable");

    let slot = EngineSlot::new(Arc::clone(&old));
    let mut workers = Vec::new();
    for _ in 0..4 {
        let slot = Arc::clone(&slot);
        let (want_old, want_new) = (want_old.clone(), want_new.clone());
        workers.push(std::thread::spawn(move || {
            let mut saw_new = false;
            for _ in 0..300 {
                let got = ranking_key(&slot.get().top_k_related_mode(7, 2.0, 10, 1, false).0);
                assert!(
                    got == want_old || got == want_new,
                    "observed a response matching neither engine — torn swap"
                );
                saw_new |= got == want_new;
            }
            saw_new
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(5));
    slot.swap(Arc::clone(&new));
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(slot.reloads(), 1);
    let after = ranking_key(&slot.get().top_k_related_mode(7, 2.0, 10, 1, false).0);
    assert_eq!(
        after, want_new,
        "post-swap responses must come from the new engine"
    );
}
