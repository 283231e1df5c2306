//! Streaming-ingest benchmark: staging throughput, batch apply latency,
//! and the headline number — *time-to-visibility* of a single onboarded
//! POI through the incremental k-hop re-embedding path versus a full
//! checkpoint reload (load + full re-embed + ANN build), on a
//! spatially-local 20k-POI city at quick scale (100k at full).
//!
//! The pipeline snapshots like every other: a flush after its WAL rolls
//! to a new segment also writes a snapshot checkpoint, and the timed
//! flushes below include that write whenever they pay it.
//!
//! Results land in the `ingest` section of `BENCH_ingest.json`
//! (override with `PRIM_BENCH_JSON`), gated by `check_bench_regression`:
//! the incremental path must be at least 5× faster to visibility than
//! the reload it replaces.

use prim_bench::json;
use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::generator::generate_taxonomy;
use prim_data::{CityConfig, Dataset, RelationConfig, Scale, TaxonomyConfig};
use prim_geo::Location;
use prim_graph::PoiId;
use prim_ingest::{CityIngest, IngestOpts, Mutation};
use prim_obs::Recorder;
use prim_serve::{
    load_checkpoint, save_checkpoint, EmbeddingStore, EngineOpts, EngineSlot, RealIo, ServeEngine,
};
use std::sync::Arc;
use std::time::Instant;

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

fn main() {
    prim_bench::ensure_run_report("ingest");
    let quick = Scale::from_env() == Scale::Quick;
    let (n_pois, stage_n, visibility_rounds) = if quick {
        (20_000, 512, 12)
    } else {
        (100_000, 2048, 12)
    };

    let dir = std::env::temp_dir().join(format!("prim-ingest-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A metro-scale spatially-local city (the data model PRIM targets).
    // Two deliberate choices: the `scalability` generator's uniformly
    // *random* edges are an expander — two hops reach most of any graph,
    // which no real city exhibits — so we use the realistic relation
    // generator; and the geography is stretched to metro extent so the
    // k-hop frontier around one onboarding covers the same small *fraction*
    // of the city that it does at production scale (a quick-scale POI count
    // squeezed into one downtown is artificially dense relative to the
    // fixed edge-length physics).
    let tax = generate_taxonomy(&TaxonomyConfig::preset(Scale::Quick));
    let city_cfg = CityConfig {
        name: "Singapore-metro".into(),
        city_radius_km: 65.0,
        core_radius_km: 22.0,
        n_clusters: 200,
        ..CityConfig::singapore(n_pois)
    };
    // Local-commerce relation profile: both relation kinds concentrate
    // within walking distance and there are no city-spanning brand edges.
    // The incremental win is proportional to the k-hop frontier, so this
    // is the regime streaming ingest is for; with global chain edges the
    // frontier saturates and apply degrades gracefully toward (but never
    // worse than) one full re-embed — see DESIGN.md §13.
    let rel_cfg = RelationConfig {
        candidate_radius_km: 2.5,
        complementary_decay_km: 2.5,
        random_candidates: 0,
        category_candidates: 0,
        ..RelationConfig::binary()
    };
    let ds = Dataset::generate(&city_cfg, &tax, &rel_cfg);
    let cfg = PrimConfig::quick();
    let inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &cfg,
    );
    let model = PrimModel::new(cfg, &inputs);
    let ckpt_path = dir.join("city.ckpt");
    save_checkpoint(
        &ckpt_path,
        "ingest-bench",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
    )
    .unwrap();

    // -- Baseline: full checkpoint reload (the pre-ingest path to get a
    // -- mutated city visible): load + full re-embed + ANN build + swap.
    // -- A mutated city has no persisted tables, so the baseline rebuilds
    // -- and embeds even though this checkpoint carries its own.
    let engine = {
        let ckpt = load_checkpoint(&ckpt_path).unwrap();
        let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
        Arc::new(ServeEngine::new(
            store,
            &EngineOpts::default(),
            Recorder::enabled("ingest-bench"),
        ))
    };
    let slot = EngineSlot::new(Arc::clone(&engine));
    let mut full_reload_ms = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let ckpt = load_checkpoint(&ckpt_path).unwrap();
        let (model, inputs) = ckpt.rebuild().unwrap();
        let store = EmbeddingStore::from_model(&model, &inputs, ckpt.relation_names.clone());
        slot.swap(Arc::new(ServeEngine::new(
            store,
            &EngineOpts::default(),
            Recorder::enabled("ingest-bench"),
        )));
        full_reload_ms = full_reload_ms.min(ms(t));
    }
    println!("ingest: full reload to visibility {full_reload_ms:.1} ms at {n_pois} POIs");
    // Restore the original engine so the pipeline below inherits its
    // recorder (counters and apply scalars accumulate there).
    slot.swap(Arc::clone(&engine));

    // -- Ingest pipeline over the same slot.
    let ingest = CityIngest::open_replicated(
        Some(load_checkpoint(&ckpt_path).unwrap()),
        dir.join("bench.wal"),
        dir.join("bench.snap"),
        Arc::new(RealIo),
        Arc::clone(&slot),
        EngineOpts::default(),
        IngestOpts {
            batch_max: usize::MAX, // applies only on explicit flush below
            ..IngestOpts::default()
        },
    )
    .unwrap();

    // Staging throughput: a mixed stream (2/3 edges, 1/3 onboardings —
    // few enough adds to stay below the ANN reseal threshold, so the
    // visibility rounds below measure the incremental path, not a
    // rebuild). Every ack is an fsynced WAL record.
    let anchor = |i: usize| {
        let p = ds.graph.poi(PoiId((i % n_pois) as u32));
        (p.location, p.category.0)
    };
    let attr_dim = ds.attrs.cols();
    let attrs: Vec<f32> = (0..attr_dim).map(|c| 0.1 * (c as f32 + 1.0)).collect();
    let n0 = n_pois as u32;
    let t = Instant::now();
    for i in 0..stage_n {
        let m = if i % 3 == 0 {
            let (loc, category) = anchor(i * 17);
            Mutation::AddPoi {
                location: Location::new(loc.lon + 1e-4, loc.lat - 1e-4),
                category,
                attrs: attrs.clone(),
            }
        } else {
            let src = (i as u32 * 29) % n0;
            Mutation::AddEdge {
                src,
                dst: (src + 3) % n0,
                relation: 0,
            }
        };
        ingest.stage(m).unwrap();
    }
    let stage_ms = ms(t);
    let staged_per_sec = stage_n as f64 / (stage_ms / 1e3);
    println!("ingest: staged {stage_n} mutations in {stage_ms:.1} ms ({staged_per_sec:.0}/s)");

    // One big batch apply (k-hop re-embed of every ball touched above).
    let t = Instant::now();
    let applied = ingest.flush();
    let batch_apply_ms = ms(t);
    assert_eq!(applied, stage_n, "everything staged must apply");
    println!("ingest: applied batch of {applied} in {batch_apply_ms:.1} ms");

    // Time-to-visibility: one onboarding staged and flushed per round;
    // the clock stops when the swapped-in store serves the new POI.
    let mut vis_ms: Vec<f64> = Vec::new();
    for r in 0..visibility_rounds {
        let (loc, category) = anchor(r * 997 + 13);
        let before = slot.get().store().n_pois();
        let t = Instant::now();
        ingest
            .stage(Mutation::AddPoi {
                location: Location::new(loc.lon - 1e-4, loc.lat + 1e-4),
                category,
                attrs: attrs.clone(),
            })
            .unwrap();
        ingest.flush();
        let elapsed = ms(t);
        assert_eq!(
            slot.get().store().n_pois(),
            before + 1,
            "flush makes the onboarded POI visible"
        );
        vis_ms.push(elapsed);
    }
    if let Some(s) = engine.recorder().scalar_summary("ingest/apply_targets") {
        println!(
            "ingest: apply targets last {} mean {:.0} max {:.0} (of {n_pois})",
            s.last, s.mean, s.max
        );
    }
    if let Some(s) = engine.recorder().scalar_summary("ingest/apply_support") {
        println!(
            "ingest: apply support last {} mean {:.0} max {:.0}",
            s.last, s.mean, s.max
        );
    }
    let vis_mean = vis_ms.iter().sum::<f64>() / vis_ms.len() as f64;
    let vis_max = vis_ms.iter().cloned().fold(0.0f64, f64::max);
    let speedup = full_reload_ms / vis_mean;
    println!(
        "ingest: time-to-visibility mean {vis_mean:.2} ms, max {vis_max:.2} ms \
         ({speedup:.1}x faster than full reload)"
    );

    let status = ingest.status();
    assert_eq!(status.staged, 0);
    assert_eq!(status.applied, (stage_n + visibility_rounds) as u64);

    let section = json::obj(&[
        ("scale", json::str(if quick { "quick" } else { "full" })),
        ("n_pois", json::int(n_pois as u64)),
        ("staged", json::int(stage_n as u64)),
        ("staged_per_sec", json::num(staged_per_sec)),
        ("batch_apply_ms", json::num(batch_apply_ms)),
        ("visibility_ms_mean", json::num(vis_mean)),
        ("visibility_ms_max", json::num(vis_max)),
        ("full_reload_ms", json::num(full_reload_ms)),
        ("speedup_visibility", json::num(speedup)),
        ("delta_rows", json::int(status.delta_rows as u64)),
    ]);
    let path = json::bench_json_path("BENCH_ingest.json");
    json::update_section(&path, "ingest", &section);
    println!("ingest: recorded to {}", path.display());
    engine.recorder().finish();

    std::fs::remove_dir_all(&dir).ok();
}
