//! Warm-standby failover benchmark: crash-recovery time with and
//! without snapshot-coupled WAL compaction, steady-state replication
//! lag, and promotion latency.
//!
//! The headline: recovery of a replicated pipeline (newest snapshot +
//! WAL tail) must stay roughly *flat* as the mutation history grows
//! 10×, while the snapshot-less pipeline (base checkpoint + full WAL
//! replay) grows with the history — compaction has to pay for itself
//! exactly where it matters, at the recovery path a failover takes.
//! The primary snapshots on the first flush after its WAL rolls to a
//! new segment (4 KiB, the default, here about 8 flushes of 8
//! mutations), so the compacted pipeline replays at most about one
//! segment plus one flush interval past its newest snapshot.
//!
//! Results land in the `failover` section of `BENCH_failover.json`
//! (override with `PRIM_BENCH_JSON`), gated by `check_bench_regression`:
//! compacted 10× recovery must beat uncompacted 10× recovery by ≥ 1.25×,
//! and follower catch-up p99 must fit inside one primary flush interval
//! (the follower never falls behind cumulatively).

use prim_bench::{json, percentile};
use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::generator::generate_taxonomy;
use prim_data::{CityConfig, Dataset, RelationConfig, Scale, TaxonomyConfig};
use prim_geo::Location;
use prim_graph::PoiId;
use prim_ingest::{CityIngest, IngestOpts, Mutation, ReplFollower, ReplLink};
use prim_obs::Recorder;
use prim_serve::{
    handle_line, load_checkpoint, save_checkpoint, EmbeddingStore, EngineOpts, EngineSlot,
    IngestBackend, PrimCheckpoint, RealIo, ServeCtx, ServeEngine, TenantSpec,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn bench_json_path() -> PathBuf {
    if let Ok(p) = std::env::var("PRIM_BENCH_JSON") {
        return PathBuf::from(p);
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_failover.json")
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

/// In-process protocol link (the replication wire without kernel noise).
struct CtxLink<'a>(&'a ServeCtx);

impl ReplLink for CtxLink<'_> {
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        Ok(handle_line(self.0, line).response)
    }
}

fn fresh_slot(ckpt: &PrimCheckpoint) -> Arc<EngineSlot> {
    let store = EmbeddingStore::from_checkpoint(ckpt).unwrap();
    EngineSlot::new(Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::disabled(),
    )))
}

/// The mutation stream: spatially-local onboardings (each pays a k-hop
/// re-embed on apply) mixed with edges — the shape recovery replays.
fn mutation(i: usize, ds: &Dataset, n0: u32) -> Mutation {
    let anchor = ds.graph.poi(PoiId((i * 131 % n0 as usize) as u32));
    if i.is_multiple_of(4) {
        let attrs: Vec<f32> = (0..ds.attrs.cols())
            .map(|c| 0.1 * (c as f32 + 1.0))
            .collect();
        Mutation::AddPoi {
            location: Location::new(anchor.location.lon + 1e-4, anchor.location.lat - 1e-4),
            category: anchor.category.0,
            attrs,
        }
    } else {
        let src = (i as u32 * 29) % n0;
        Mutation::AddEdge {
            src,
            dst: (src + 7) % n0,
            relation: 0,
        }
    }
}

/// Stages `n` mutations (flushing every `flush_every`) into a pipeline
/// opened at `wal`/`snap`, then drops it mid-flight exactly as a crash
/// would — acknowledged WAL records and published snapshots are all that
/// survives. Returns wall time of the run.
#[allow(clippy::too_many_arguments)]
fn run_history(
    ckpt_path: &Path,
    ds: &Dataset,
    n0: u32,
    wal: &Path,
    snap: Option<&Path>,
    n: usize,
    flush_every: usize,
    opts: &IngestOpts,
) {
    let ckpt = load_checkpoint(ckpt_path).unwrap();
    let slot = fresh_slot(&ckpt);
    let ingest = match snap {
        Some(snap) => CityIngest::open_replicated(
            Some(ckpt),
            wal,
            snap,
            Arc::new(RealIo),
            slot,
            EngineOpts::default(),
            opts.clone(),
        )
        .unwrap(),
        None => CityIngest::open(
            ckpt,
            wal,
            Arc::new(RealIo),
            slot,
            EngineOpts::default(),
            opts.clone(),
        )
        .unwrap(),
    };
    for i in 0..n {
        ingest.stage(mutation(i, ds, n0)).unwrap();
        if (i + 1) % flush_every == 0 {
            ingest.flush();
        }
    }
    ingest.flush();
}

/// Times recovery: reopen the pipeline from whatever the crash left
/// (snapshot + tail when `snap` is given, base + full replay otherwise)
/// until the store is published and serving.
fn time_recovery(
    ckpt_path: &Path,
    wal: &Path,
    snap: Option<&Path>,
    opts: &IngestOpts,
    expect_applied: u64,
) -> f64 {
    let ckpt = load_checkpoint(ckpt_path).unwrap();
    let slot = fresh_slot(&ckpt);
    let t = Instant::now();
    let ingest = match snap {
        Some(snap) => CityIngest::open_replicated(
            Some(ckpt),
            wal,
            snap,
            Arc::new(RealIo),
            Arc::clone(&slot),
            EngineOpts::default(),
            opts.clone(),
        )
        .unwrap(),
        None => CityIngest::open(
            ckpt,
            wal,
            Arc::new(RealIo),
            Arc::clone(&slot),
            EngineOpts::default(),
            opts.clone(),
        )
        .unwrap(),
    };
    let elapsed = ms(t);
    let status = ingest.status();
    assert_eq!(
        status.next_seq,
        expect_applied + 1,
        "history fully recovered"
    );
    assert_eq!(status.staged, 0);
    elapsed
}

fn main() {
    prim_bench::ensure_run_report("failover");
    let quick = Scale::from_env() == Scale::Quick;
    let (n_pois, n_1x, lag_rounds) = if quick {
        (4_000, 48, 10)
    } else {
        (20_000, 96, 16)
    };
    let n_10x = n_1x * 10;
    let flush_every = 8;

    let dir = std::env::temp_dir().join(format!("prim-failover-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tax = generate_taxonomy(&TaxonomyConfig::preset(Scale::Quick));
    let city_cfg = CityConfig {
        name: "Failover-metro".into(),
        ..CityConfig::singapore(n_pois)
    };
    let rel_cfg = RelationConfig {
        candidate_radius_km: 2.5,
        complementary_decay_km: 2.5,
        random_candidates: 0,
        category_candidates: 0,
        ..RelationConfig::binary()
    };
    let ds = Dataset::generate(&city_cfg, &tax, &rel_cfg);
    let n0 = ds.graph.num_pois() as u32;
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
        "failover-bench",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
    )
    .unwrap();
    // The default segment size (the snapshot cadence), and a realistic
    // batch cap so uncompacted replay pays per-batch apply cost (one
    // giant batch would hide the linear-replay penalty entirely).
    let opts = IngestOpts {
        batch_max: 32,
        ..IngestOpts::default()
    };

    // -- Crash-recovery: 1× and 10× histories, compacted vs not.
    let mut recovered = Vec::new();
    for (label, n, compacted) in [
        ("nocompact_1x", n_1x, false),
        ("nocompact_10x", n_10x, false),
        ("compact_1x", n_1x, true),
        ("compact_10x", n_10x, true),
    ] {
        let wal = dir.join(format!("{label}.wal"));
        let snap_dir = dir.join(format!("{label}.snap"));
        let snap = compacted.then_some(snap_dir.as_path());
        run_history(&ckpt_path, &ds, n0, &wal, snap, n, flush_every, &opts);
        let t = time_recovery(&ckpt_path, &wal, snap, &opts, n as u64);
        println!("failover: {label} recovery {t:.1} ms ({n} mutations)");
        recovered.push((label, n, t));
    }
    let find = |l: &str| recovered.iter().find(|(label, ..)| *label == l).unwrap().2;
    let (nc1, nc10, c1, c10) = (
        find("nocompact_1x"),
        find("nocompact_10x"),
        find("compact_1x"),
        find("compact_10x"),
    );
    let compaction_speedup = nc10 / c10;
    println!(
        "failover: 10x history recovers {compaction_speedup:.2}x faster compacted \
         ({c10:.1} ms vs {nc10:.1} ms; 1x: {c1:.1} ms vs {nc1:.1} ms)"
    );

    // -- Replication lag: a primary flushing every `flush_every`
    // -- mutations, a follower pulling after each flush. The follower
    // -- must absorb one interval's worth of records faster than the
    // -- primary produces the next.
    let pwal = dir.join("lag-p.wal");
    let psnap = dir.join("lag-p.snap");
    let ckpt = load_checkpoint(&ckpt_path).unwrap();
    let pslot = fresh_slot(&ckpt);
    let primary = CityIngest::open_replicated(
        Some(ckpt),
        &pwal,
        &psnap,
        Arc::new(RealIo),
        pslot,
        EngineOpts::default(),
        opts.clone(),
    )
    .unwrap();
    let pengine = {
        let ckpt = load_checkpoint(&ckpt_path).unwrap();
        let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
        Arc::new(ServeEngine::new(
            store,
            &EngineOpts::default(),
            Recorder::disabled(),
        ))
    };
    let ctx = ServeCtx::multi(vec![TenantSpec::new("beijing", Arc::clone(&pengine))
        .with_slot(EngineSlot::new(pengine))
        .with_ingest(Arc::clone(&primary) as Arc<dyn IngestBackend>)]);

    let ckpt = load_checkpoint(&ckpt_path).unwrap();
    let fslot = fresh_slot(&ckpt);
    let fwal = dir.join("lag-f.wal");
    let fsnap = dir.join("lag-f.snap");
    let follower = ReplFollower::new(
        Some(ckpt),
        "beijing",
        &fwal,
        &fsnap,
        Arc::new(RealIo),
        fslot,
        EngineOpts::default(),
        opts.clone(),
    )
    .unwrap();
    let mut link = CtxLink(&ctx);
    let mut flush_ms = Vec::new();
    let mut catchup_ms = Vec::new();
    for round in 0..lag_rounds {
        let t = Instant::now();
        for i in 0..flush_every {
            primary
                .stage(mutation(round * flush_every + i, &ds, n0))
                .unwrap();
        }
        primary.flush();
        flush_ms.push(ms(t));
        let t = Instant::now();
        follower.catch_up(&mut link).unwrap();
        catchup_ms.push(ms(t));
        assert_eq!(follower.lag(), 0);
    }
    catchup_ms.sort_by(f64::total_cmp);
    let flush_interval = flush_ms.iter().sum::<f64>() / flush_ms.len() as f64;
    let lag_p50 = percentile(&catchup_ms, 0.5);
    let lag_p99 = percentile(&catchup_ms, 0.99);
    println!(
        "failover: catch-up p50 {lag_p50:.1} ms p99 {lag_p99:.1} ms \
         (primary flush interval {flush_interval:.1} ms)"
    );

    // -- Promotion: flipping the standby to the write path.
    let t = Instant::now();
    let next_seq = follower.promote();
    let promote_ms = ms(t);
    assert_eq!(next_seq, (lag_rounds * flush_every) as u64 + 1);
    println!("failover: promotion {promote_ms:.3} ms (next_seq {next_seq})");

    let section = json::obj(&[
        ("scale", json::str(if quick { "quick" } else { "full" })),
        ("n_pois", json::int(n_pois as u64)),
        ("mutations_1x", json::int(n_1x as u64)),
        ("mutations_10x", json::int(n_10x as u64)),
        ("recover_nocompact_1x_ms", json::num(nc1)),
        ("recover_nocompact_10x_ms", json::num(nc10)),
        ("recover_compact_1x_ms", json::num(c1)),
        ("recover_compact_10x_ms", json::num(c10)),
        ("compaction_speedup_10x", json::num(compaction_speedup)),
        ("flush_interval_ms", json::num(flush_interval)),
        ("lag_ms_p50", json::num(lag_p50)),
        ("lag_ms_p99", json::num(lag_p99)),
        ("promote_ms", json::num(promote_ms)),
    ]);
    let path = bench_json_path();
    json::update_section(&path, "failover", &section);
    println!("failover: recorded to {}", path.display());

    std::fs::remove_dir_all(&dir).ok();
}
