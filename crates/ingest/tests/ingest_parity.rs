//! End-to-end parity of the streaming ingest pipeline.
//!
//! The pipeline stages mutations through the WAL, applies them in batches
//! via subset re-embedding, and publishes through the engine slot. The
//! oracle re-embeds the mutated city *from scratch* over the same frozen
//! grid. Every published row must match the oracle bitwise — at one and
//! at four kernel threads — and serving queries over the published store
//! must match an exact re-scored oracle.

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_geo::{GridIndex, Location};
use prim_graph::{CategoryId, HeteroGraph, Poi, PoiId, RelationId};
use prim_ingest::{CityIngest, IngestOpts, Mutation, StageError};
use prim_obs::Recorder;
use prim_serve::{
    decode_bytes, decode_checkpoint, encode_checkpoint, encode_checkpoint_ingest, AnnOpts,
    CkptRotator, EmbeddingStore, EngineOpts, EngineSlot, Neighbor, PrimCheckpoint, RealIo,
    ServeEngine,
};
use prim_tensor::{kernel, Matrix};
use std::sync::{Arc, OnceLock};

mod common;
use common::Scratch;

/// Encodes one small (untrained — parity is training-independent) city
/// checkpoint shared by every test.
fn ckpt_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.15, 7);
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
            "ingest-parity",
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

/// A mixed mutation script in three flush groups: onboard POIs (one far
/// outside the original bounding box), wire edges (including new↔new),
/// and retire both an original and a freshly onboarded POI.
fn script(ckpt: &PrimCheckpoint) -> Vec<Vec<Mutation>> {
    let anchor = |i: u32| ckpt.graph.poi(PoiId(i)).location;
    let cat = |i: u32| ckpt.graph.poi(PoiId(i)).category.0;
    let attr_dim = ckpt.attrs.cols();
    let attrs = |s: f32| -> Vec<f32> { (0..attr_dim).map(|c| s * (c as f32 + 1.0)).collect() };
    let n = ckpt.graph.num_pois() as u32;
    let last_rel = (ckpt.graph.num_relations() - 1) as u8;
    let a = n; // first onboarded id
    let b = n + 1;
    let c = n + 2;
    vec![
        vec![
            Mutation::AddPoi {
                location: Location::new(anchor(0).lon + 0.002, anchor(0).lat + 0.001),
                category: cat(3),
                attrs: attrs(0.05),
            },
            Mutation::AddEdge {
                src: a,
                dst: 5,
                relation: 0,
            },
            Mutation::AddEdge {
                src: 2,
                dst: 9,
                relation: last_rel,
            },
        ],
        vec![
            Mutation::RetirePoi { poi: 4 },
            Mutation::AddPoi {
                location: Location::new(anchor(10).lon + 0.001, anchor(10).lat - 0.001),
                category: cat(1),
                attrs: attrs(-0.03),
            },
            Mutation::AddEdge {
                src: b,
                dst: a,
                relation: 0,
            },
        ],
        vec![
            Mutation::AddEdge {
                src: 7,
                dst: 12,
                relation: 0,
            },
            // Out-of-bbox onboarding: lands in the grid's overflow list.
            Mutation::AddPoi {
                location: Location::new(anchor(0).lon + 1.0, anchor(0).lat + 0.5),
                category: cat(0),
                attrs: attrs(0.01),
            },
            Mutation::RetirePoi { poi: b },
            Mutation::AddEdge {
                src: c,
                dst: 1,
                relation: last_rel,
            },
        ],
    ]
}

struct Pipeline {
    ingest: Arc<CityIngest>,
    slot: Arc<EngineSlot>,
    /// Holds the WAL and snapshot directories; dropped last.
    _scratch: Scratch,
}

/// Opens a pipeline over a fresh WAL and snapshot directory and runs the
/// whole script, flushing after each group.
fn run_pipeline(wal_name: &str, engine_opts: &EngineOpts) -> Pipeline {
    let ckpt = load();
    let groups = script(&ckpt);
    let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    let slot = EngineSlot::new(Arc::new(ServeEngine::new(
        store,
        engine_opts,
        Recorder::disabled(),
    )));
    let scratch = Scratch::new("ingest-parity");
    let ingest = CityIngest::open_replicated(
        Some(ckpt),
        scratch.path(wal_name),
        scratch.path("snap"),
        Arc::new(RealIo),
        Arc::clone(&slot),
        engine_opts.clone(),
        IngestOpts {
            batch_max: 1000, // manual flushes only
            ..IngestOpts::default()
        },
    )
    .unwrap();
    for group in groups {
        for m in group {
            ingest.stage(m).unwrap();
        }
        assert!(ingest.flush() > 0);
    }
    Pipeline {
        ingest,
        slot,
        _scratch: scratch,
    }
}

struct Oracle {
    graph: HeteroGraph,
    pois: Matrix,
    store: EmbeddingStore,
    retired: Vec<u32>,
}

/// From-scratch oracle: replay the script onto the checkpoint state and
/// fully re-embed the mutated city over the frozen-projection grid.
fn oracle() -> Oracle {
    let ckpt = load();
    let groups = script(&ckpt);
    let (mut model, _inputs) = ckpt.rebuild().unwrap();
    let mut graph = ckpt.graph.clone();
    let mut attrs = ckpt.attrs.clone();
    let locations: Vec<Location> = graph.pois().iter().map(|p| p.location).collect();
    let mut grid = GridIndex::build(&locations, ckpt.config.spatial_radius_km.max(1e-6));
    let mut serve_grid = GridIndex::build(&locations, ckpt.config.spatial_radius_km.max(0.1));
    let mut retired = Vec::new();
    for m in groups.iter().flatten() {
        match m {
            Mutation::AddPoi {
                location,
                category,
                attrs: row,
            } => {
                graph.add_poi(Poi {
                    location: *location,
                    category: CategoryId(*category),
                });
                let r = Matrix::from_vec(1, attrs.cols(), row.clone());
                attrs = Matrix::vstack(&[&attrs, &r]);
                grid.insert(*location);
                serve_grid.insert(*location);
            }
            Mutation::AddEdge { src, dst, relation } => {
                graph.add_edge(PoiId(*src), PoiId(*dst), RelationId(*relation));
            }
            Mutation::RetirePoi { poi } => {
                graph.remove_edges_of(PoiId(*poi));
                grid.retire(*poi as usize);
                serve_grid.retire(*poi as usize);
                retired.push(*poi);
            }
        }
    }
    let extra = graph.num_pois() - model.n_poi_rows();
    model.extend_pois(extra);
    let full = ModelInputs::build_with_grid(
        &graph,
        &ckpt.taxonomy,
        &attrs,
        graph.edges(),
        &grid,
        &ckpt.config,
    );
    let table = model.embed(&full);
    let store = EmbeddingStore {
        pois: table.pois.clone(),
        relations: table.relations,
        bin_normals: table.bin_normals,
        relation_names: ckpt.relation_names.clone(),
        locations: graph.pois().iter().map(|p| p.location).collect(),
        bins: ckpt.config.bins.clone(),
        use_distance_scoring: ckpt.config.use_distance_scoring,
        grid: serve_grid,
        ann: None,
    };
    Oracle {
        graph,
        pois: table.pois,
        store,
        retired,
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn published_rows_match_full_reembed_bitwise() {
    let p = run_pipeline("parity.wal", &EngineOpts::default());
    let want = oracle();
    let engine = p.slot.get();
    let store = engine.store();
    assert_eq!(store.n_pois(), want.graph.num_pois());
    assert_eq!(
        bits(&store.pois),
        bits(&want.pois),
        "published embedding table must equal the from-scratch oracle bit for bit"
    );
    let status = p.ingest.status();
    assert_eq!(status.staged, 0);
    assert_eq!(status.applied, 10);
    assert_eq!(status.next_seq, 11);
}

#[test]
fn published_rows_identical_across_thread_counts() {
    let run = |threads: usize, name: &str| {
        kernel::set_threads(threads);
        let p = run_pipeline(name, &EngineOpts::default());
        let engine = p.slot.get();
        let b = bits(&engine.store().pois);
        kernel::set_threads(1);
        b
    };
    let serial = run(1, "threads1.wal");
    let parallel = run(4, "threads4.wal");
    assert_eq!(
        serial, parallel,
        "publish must be bitwise thread-count independent"
    );
}

fn ranking_key(neighbors: &[Neighbor]) -> Vec<(u32, u32)> {
    neighbors
        .iter()
        .map(|n| (n.poi, n.score.to_bits()))
        .collect()
}

#[test]
fn top_k_on_mutated_store_matches_exact_oracle() {
    let p = run_pipeline("topk.wal", &EngineOpts::default());
    let want = oracle();
    let engine = p.slot.get();
    // Exact-path oracle over the *oracle's* store (tables re-embedded from
    // scratch, fresh grid): by the row-parity test these must agree, but
    // here the whole query path is crossed too.
    let oracle_engine = ServeEngine::new(
        want.store.clone(),
        &EngineOpts::default(),
        Recorder::disabled(),
    );
    let n = engine.store().n_pois() as u32;
    let n_rel = engine.store().n_relations();
    let mut checked = 0;
    for src in (0..n).step_by(7).chain(n - 3..n) {
        if want.retired.contains(&src) {
            continue;
        }
        for rel in 0..=n_rel {
            let got = engine.top_k_related_mode(src, 2.0, 10, rel, true).0;
            let exact = oracle_engine.top_k_related_mode(src, 2.0, 10, rel, true).0;
            assert_eq!(
                ranking_key(&got),
                ranking_key(&exact),
                "src {src} rel {rel}: exact top-k must match the oracle"
            );
            for nb in &got {
                assert!(
                    !want.retired.contains(&nb.poi),
                    "retired poi {} surfaced for src {src}",
                    nb.poi
                );
            }
            checked += got.len();
        }
    }
    assert!(
        checked > 50,
        "fixture degenerated: only {checked} neighbors"
    );
}

/// Quantized-scan regime with full candidate coverage must reproduce the
/// exact response bitwise — including candidates from the post-seal delta
/// segment (rows appended by ingest after the HNSW graph was built).
#[test]
fn ann_scan_with_full_coverage_is_bitwise_exact_on_mutated_store() {
    let opts = EngineOpts {
        ann: AnnOpts {
            min_exact: 0,
            beam_cutoff: usize::MAX,
            oversample: 1 << 20,
            ..AnnOpts::default()
        },
        ..EngineOpts::default()
    };
    let p = run_pipeline("scan.wal", &opts);
    let engine = p.slot.get();
    let store = engine.store();
    let sealed = store.ann.as_ref().unwrap().len();
    assert!(
        store.n_pois() > sealed,
        "fixture must leave a non-empty delta segment"
    );
    let n = store.n_pois() as u32;
    let mut ann_checked = 0;
    for src in (0..n).step_by(5).chain(n - 3..n) {
        let (exact, _) = engine.top_k_related_mode(src, 2.0, 10, 0, true);
        let (ann, mode) = engine.top_k_related_mode(src, 2.0, 10, 0, false);
        if exact.is_empty() {
            continue;
        }
        assert_eq!(
            ranking_key(&ann),
            ranking_key(&exact),
            "src {src}: full-coverage scan must be exact"
        );
        if mode == "ann" {
            ann_checked += 1;
        }
    }
    assert!(ann_checked > 5, "scan regime exercised only {ann_checked}x");
}

/// Beam regime over the mutated store: every returned score is the exact
/// pair score bitwise, and — because the delta segment is scanned
/// exhaustively and `ef` covers every candidate — any *new* POI that the
/// exact oracle ranks into the top-k must be found by the beam too.
#[test]
fn ann_beam_surfaces_delta_segment_candidates() {
    let opts = EngineOpts {
        ann: AnnOpts {
            min_exact: 0,
            beam_cutoff: 1,
            ef_search: 1 << 14,
            oversample: 1 << 20,
            budget_mult: usize::MAX,
        },
        ..EngineOpts::default()
    };
    let p = run_pipeline("beam.wal", &opts);
    let engine = p.slot.get();
    let store = engine.store();
    let sealed = store.ann.as_ref().unwrap().len();
    let n = store.n_pois() as u32;
    let mut delta_hits = 0;
    for src in (0..n).step_by(3) {
        let (exact, _) = engine.top_k_related_mode(src, 3.0, 10, 0, true);
        let (ann, mode) = engine.top_k_related_mode(src, 3.0, 10, 0, false);
        if exact.is_empty() {
            continue;
        }
        assert_eq!(mode, "ann", "src {src}");
        for nb in &ann {
            let want = exact.iter().find(|e| e.poi == nb.poi);
            if let Some(e) = want {
                assert_eq!(
                    e.score.to_bits(),
                    nb.score.to_bits(),
                    "src {src} → {}: beam must rescore exactly",
                    nb.poi
                );
            }
        }
        let ann_ids: Vec<u32> = ann.iter().map(|e| e.poi).collect();
        for e in &exact {
            if e.poi >= sealed as u32 {
                assert!(
                    ann_ids.contains(&e.poi),
                    "src {src}: delta candidate {} in exact top-k missed by beam",
                    e.poi
                );
                delta_hits += 1;
            }
        }
    }
    assert!(
        delta_hits > 0,
        "no query ranked a delta-segment POI; fixture degenerated"
    );
}

/// Validation rejects malformed mutations with structured errors and the
/// WAL stages nothing for them.
#[test]
fn invalid_mutations_are_rejected_without_staging() {
    let ckpt = load();
    let n = ckpt.graph.num_pois() as u32;
    let attr_dim = ckpt.attrs.cols();
    let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    let slot = EngineSlot::new(Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::disabled(),
    )));
    let scratch = Scratch::new("ingest-parity");
    let ingest = CityIngest::open_replicated(
        Some(ckpt),
        scratch.path("reject.wal"),
        scratch.path("reject.snap"),
        Arc::new(RealIo),
        slot,
        EngineOpts::default(),
        IngestOpts::default(),
    )
    .unwrap();
    let bad = vec![
        Mutation::AddEdge {
            src: 1,
            dst: 1,
            relation: 0,
        },
        Mutation::AddEdge {
            src: 0,
            dst: n + 5,
            relation: 0,
        },
        Mutation::AddEdge {
            src: 0,
            dst: 1,
            relation: 200,
        },
        Mutation::RetirePoi { poi: n },
        Mutation::AddPoi {
            location: Location::new(400.0, 0.0),
            category: 0,
            attrs: vec![0.0; attr_dim],
        },
        Mutation::AddPoi {
            location: Location::new(0.0, 0.0),
            category: u32::MAX,
            attrs: vec![0.0; attr_dim],
        },
        Mutation::AddPoi {
            location: Location::new(0.0, 0.0),
            category: 0,
            attrs: vec![0.0; attr_dim + 1],
        },
        Mutation::AddPoi {
            location: Location::new(0.0, 0.0),
            category: 0,
            attrs: vec![f32::NAN; attr_dim],
        },
    ];
    for m in bad {
        match ingest.stage(m.clone()) {
            Err(StageError::Invalid(_)) => {}
            other => panic!("{m:?}: expected rejection, got {other:?}"),
        }
    }
    // Double-retire: first passes, second rejects while only staged.
    ingest.stage(Mutation::RetirePoi { poi: 3 }).unwrap();
    assert!(matches!(
        ingest.stage(Mutation::RetirePoi { poi: 3 }),
        Err(StageError::Invalid(_))
    ));
    // Edges to a retired endpoint reject too.
    assert!(matches!(
        ingest.stage(Mutation::AddEdge {
            src: 3,
            dst: 8,
            relation: 0
        }),
        Err(StageError::Invalid(_))
    ));
    let status = ingest.status();
    assert_eq!(status.staged, 1, "only the valid retire may be staged");
    assert_eq!(status.next_seq, 2);
}

/// The tables, quantized tier, locations and grid of two stores, as bits
/// (the HNSW graph is compared separately).
fn assert_same_tables(a: &EmbeddingStore, b: &EmbeddingStore, label: &str) {
    assert_eq!(bits(&a.pois), bits(&b.pois), "{label}: POI table");
    assert_eq!(bits(&a.relations), bits(&b.relations), "{label}: relations");
    assert_eq!(
        bits(&a.bin_normals),
        bits(&b.bin_normals),
        "{label}: bin normals"
    );
    assert_eq!(
        a.ann.as_ref().unwrap().quant,
        b.ann.as_ref().unwrap().quant,
        "{label}: quantized tier"
    );
    let loc = |s: &EmbeddingStore| -> Vec<(u64, u64)> {
        s.locations
            .iter()
            .map(|l| (l.lon.to_bits(), l.lat.to_bits()))
            .collect()
    };
    assert_eq!(loc(a), loc(b), "{label}: locations");
    for p in 0..a.n_pois() as u32 {
        let near = |s: &EmbeddingStore| -> Vec<(usize, u64)> {
            s.within_radius(PoiId(p), 1.0e4)
                .into_iter()
                .map(|(j, d)| (j, d.to_bits()))
                .collect()
        };
        assert_eq!(near(a), near(b), "{label}: grid around {p}");
    }
}

/// A snapshot taken after adds, edges and retirements carries the store
/// its primary published: the tables (delta rows included) equal a
/// recompute of the snapshot file bitwise, and recovery adopts the sealed
/// graph with them, so the recovered index is the primary's.
#[test]
fn snapshot_adopts_the_published_store_bitwise() {
    let ckpt = load();
    let groups = script(&ckpt);
    let fresh_slot = || {
        let store = EmbeddingStore::from_checkpoint(&load()).unwrap();
        EngineSlot::new(Arc::new(ServeEngine::new(
            store,
            &EngineOpts::default(),
            Recorder::disabled(),
        )))
    };
    let scratch = Scratch::new("ingest-parity");
    let (wal, snap) = (scratch.path("snapshot.wal"), scratch.path("snapshot.snap"));
    let opts = IngestOpts {
        batch_max: 1000,
        wal_segment_bytes: 1, // every flush snapshots
    };
    let slot = fresh_slot();
    let ingest = CityIngest::open_replicated(
        Some(ckpt),
        &wal,
        &snap,
        Arc::new(RealIo),
        Arc::clone(&slot),
        EngineOpts::default(),
        opts.clone(),
    )
    .unwrap();
    for group in groups {
        for m in group {
            ingest.stage(m).unwrap();
        }
        ingest.flush();
    }
    let status = ingest.status();
    assert_eq!(
        status.snapshot_seq,
        status.next_seq - 1,
        "last flush snapshots"
    );
    assert!(status.delta_rows > 0, "onboarded rows sit past the graph");
    drop(ingest);
    let published = slot.get();
    let published = published.store();

    let (_, snapshot) = CkptRotator::new(&snap, 2)
        .unwrap()
        .latest_valid()
        .expect("a snapshot");
    let adopted = EmbeddingStore::adopted(&snapshot).expect("snapshots carry the served section");
    assert_same_tables(&adopted, published, "adopted vs published");
    let graph = |s: &EmbeddingStore| s.ann.as_ref().unwrap().graph.clone();
    assert_eq!(graph(&adopted), graph(published), "sealed graph");

    let (model, inputs) = snapshot.rebuild().unwrap();
    let recomputed = EmbeddingStore::recomputed(&snapshot, &model, &inputs);
    assert_same_tables(&adopted, &recomputed, "adopted vs recomputed");

    let recovered = fresh_slot();
    let reopened = CityIngest::open_replicated(
        None,
        &wal,
        &snap,
        Arc::new(RealIo),
        Arc::clone(&recovered),
        EngineOpts::default(),
        opts,
    )
    .unwrap();
    assert_eq!(reopened.status().delta_rows, status.delta_rows);
    let recovered = recovered.get();
    assert_same_tables(recovered.store(), published, "recovered vs published");
    assert_eq!(
        graph(recovered.store()),
        graph(published),
        "recovered graph"
    );
}

/// A snapshot without its served section (re-encoded from a real one
/// taken after adds, edges and retirements, its `ingest.*` state kept)
/// reopens by recompute, the one open that builds the city's inputs: it
/// serves bitwise the store the adopted reopen serves, and so does it
/// after one more flush on both.
#[test]
fn snapshot_without_served_section_reopens_to_the_adopted_store() {
    let ckpt = load();
    let extra = vec![
        Mutation::AddPoi {
            location: ckpt.graph.poi(PoiId(6)).location,
            category: ckpt.graph.poi(PoiId(6)).category.0,
            attrs: vec![0.02; ckpt.attrs.cols()],
        },
        Mutation::AddEdge {
            src: 3,
            dst: 8,
            relation: 0,
        },
        Mutation::RetirePoi { poi: 11 },
    ];
    let groups = script(&ckpt);
    let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    let slot = || {
        EngineSlot::new(Arc::new(ServeEngine::new(
            store.clone(),
            &EngineOpts::default(),
            Recorder::disabled(),
        )))
    };
    let scratch = Scratch::new("ingest-parity");
    let opts = IngestOpts {
        batch_max: 1000,
        wal_segment_bytes: 1, // every flush snapshots
    };
    let open = |base: Option<PrimCheckpoint>, name: &str, slot: &Arc<EngineSlot>| {
        CityIngest::open_replicated(
            base,
            scratch.path(&format!("{name}.wal")),
            scratch.path(&format!("{name}.snap")),
            Arc::new(RealIo),
            Arc::clone(slot),
            EngineOpts::default(),
            opts.clone(),
        )
        .unwrap()
    };
    let primary = open(Some(ckpt), "primary", &slot());
    for group in groups {
        for m in group {
            primary.stage(m).unwrap();
        }
        primary.flush();
    }
    let status = primary.status();
    assert_eq!(status.snapshot_seq, status.next_seq - 1);
    drop(primary);

    let (_, snapshot) = CkptRotator::new(scratch.path("primary.snap"), 2)
        .unwrap()
        .latest_valid()
        .expect("a snapshot");
    assert!(snapshot.served.is_some());
    let state = snapshot.ingest_state.clone().expect("ingest state");
    assert!(!state.retired.is_empty(), "the script retires POIs");
    let bare = encode_checkpoint_ingest(
        &snapshot.run,
        &snapshot.restore_model().unwrap(),
        &snapshot.graph,
        &snapshot.taxonomy,
        &snapshot.attrs,
        &snapshot.relation_names,
        None,
        None,
        Some(&state),
    );
    let decoded = decode_checkpoint(decode_bytes(&bare).unwrap()).unwrap();
    assert!(decoded.served.is_none() && decoded.ingest_state == Some(state));
    CkptRotator::new(scratch.path("bare.snap"), 2)
        .unwrap()
        .save_real(0, &bare)
        .unwrap();

    // The adopted reopen recovers the primary's own directories; the
    // recomputing one starts from the bare snapshot and an empty log,
    // which the snapshot's seq anchors.
    let (adopted_slot, recomputed_slot) = (slot(), slot());
    let adopted = open(None, "primary", &adopted_slot);
    let recomputed = open(None, "bare", &recomputed_slot);
    assert_eq!(adopted.status().snapshot_seq, status.snapshot_seq);
    assert_eq!(recomputed.status().snapshot_seq, status.snapshot_seq);
    assert!(recomputed_slot.get().store().n_pois() > store.n_pois());
    assert_same_tables(
        recomputed_slot.get().store(),
        adopted_slot.get().store(),
        "reopened",
    );

    for ingest in [&adopted, &recomputed] {
        for m in &extra {
            ingest.stage(m.clone()).unwrap();
        }
        assert!(ingest.flush() > 0);
    }
    assert_same_tables(
        recomputed_slot.get().store(),
        adopted_slot.get().store(),
        "after one more flush",
    );
}
