//! Ingest-vs-serve under concurrent fire: query threads hammer a tenant
//! with `score`/`top_k` while a mutator client streams `add_poi` /
//! `add_edge` / `retire_poi` (plus periodic flushes) into the same city,
//! and a second ingest-less tenant serves alongside as an isolation
//! control. Invariants: zero failed requests on either side, no deadlock
//! (wall-clock watchdog), and exact per-tenant counter reconciliation —
//! every acknowledged mutation is staged exactly once, applied exactly
//! once, every rejection is counted, every batch publish is one engine
//! swap, and freshly onboarded POIs are queryable once flushed.

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_ingest::{CityIngest, IngestOpts};
use prim_obs::json::{self, Value};
use prim_obs::{Counter, Recorder};
use prim_serve::{
    decode_bytes, decode_checkpoint, encode_checkpoint, ChaosClient, EmbeddingStore, EngineOpts,
    EngineSlot, ServeCtx, ServeEngine, TcpServer, TenantSpec,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENT_THREADS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 60;
const MUTATOR_STEPS: usize = 60;
/// Small enough that auto-apply fires many times mid-stream.
const BATCH_MAX: usize = 4;
/// Generous wall-clock budget; blowing it means a deadlock, not slowness.
const WATCHDOG: Duration = Duration::from_secs(120);

mod common;
use common::Scratch;

fn parse(response: &str) -> Value {
    json::parse(response).expect("responses are valid JSON")
}

fn is_ok(v: &Value) -> bool {
    v.get("ok") == Some(&Value::Bool(true))
}

struct CityFixture {
    engine: Arc<ServeEngine>,
    /// The encoded checkpoint.
    ckpt: Vec<u8>,
    /// (lon, lat) anchor for valid onboarding coordinates.
    anchor: (f64, f64),
    category: u32,
    attr_dim: usize,
    n_pois: u32,
}

fn city(name: &str, seed: u64) -> CityFixture {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.1, seed);
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
    let ckpt = encode_checkpoint(
        name,
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        None,
        None,
    );
    let anchor_poi = ds.graph.poi(prim_graph::PoiId(0));
    let store = EmbeddingStore::from_model(&model, &inputs, ds.relation_names.clone());
    let engine = Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::enabled(format!("stress-ingest-{name}")),
    ));
    CityFixture {
        engine,
        ckpt,
        anchor: (anchor_poi.location.lon, anchor_poi.location.lat),
        category: anchor_poi.category.0,
        attr_dim: ds.attrs.cols(),
        n_pois: ds.graph.num_pois() as u32,
    }
}

#[test]
fn ingest_and_serve_survive_concurrent_hammering() {
    let beijing = city("beijing", 3);
    let shanghai = city("shanghai", 5);

    // Wire beijing's ingest pipeline to the slot the tenant serves from.
    let slot = EngineSlot::new(Arc::clone(&beijing.engine));
    let scratch = Scratch::new("ingest-stress");
    let ingest = CityIngest::open_replicated(
        Some(decode_checkpoint(decode_bytes(&beijing.ckpt).unwrap()).unwrap()),
        scratch.path("stress.wal"),
        scratch.path("stress.snap"),
        Arc::new(prim_serve::RealIo),
        Arc::clone(&slot),
        EngineOpts::default(),
        IngestOpts {
            batch_max: BATCH_MAX,
            ..IngestOpts::default()
        },
    )
    .unwrap();
    let ingest_handle = Arc::clone(&ingest);

    let ctx = ServeCtx::multi(vec![
        TenantSpec::new("beijing", Arc::clone(&beijing.engine))
            .with_slot(Arc::clone(&slot))
            .with_ingest(ingest),
        TenantSpec::new("shanghai", Arc::clone(&shanghai.engine)),
    ]);
    let server = TcpServer::bind("127.0.0.1:0", ctx).unwrap().with_shards(2);
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());

    let sent_ok = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
    let failures = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0));

    // Query workers: only ever reference original POI ids (the mutator
    // retires onboarded ids exclusively), so every request stays valid no
    // matter how the swap races the query.
    let mut workers = Vec::new();
    for t in 0..CLIENT_THREADS {
        let city_name = if t % 2 == 0 { "beijing" } else { "shanghai" };
        let n_pois = if t % 2 == 0 {
            beijing.n_pois
        } else {
            shanghai.n_pois
        };
        let sent = Arc::clone(&sent_ok[t % 2]);
        let failures = Arc::clone(&failures);
        let done = Arc::clone(&done);
        workers.push(std::thread::spawn(move || {
            let mut client = ChaosClient::connect(addr).expect("client connects");
            for i in 0..REQUESTS_PER_CLIENT {
                let src = (i as u32 * 7) % n_pois;
                let dst = (src + 1) % n_pois;
                let req = if i % 3 == 2 {
                    format!(
                        "{{\"op\": \"top_k\", \"src\": {src}, \"k\": 3, \"relation\": \"competitive\", \
                         \"radius_km\": 2.0, \"city\": \"{city_name}\"}}"
                    )
                } else {
                    format!(
                        "{{\"op\": \"score\", \"src\": {src}, \"dst\": {dst}, \
                         \"city\": \"{city_name}\"}}"
                    )
                };
                match client.request(&req) {
                    Ok(resp) => {
                        let v = parse(&resp);
                        if is_ok(&v) {
                            sent.fetch_add(1, Ordering::SeqCst);
                            assert_eq!(
                                v.get("city").and_then(|c| c.as_str()),
                                Some(city_name),
                                "response for {city_name} mis-routed: {resp}"
                            );
                        } else {
                            failures.fetch_add(1, Ordering::SeqCst);
                            eprintln!("worker {t}: failed response {resp}");
                        }
                    }
                    Err(e) => {
                        failures.fetch_add(1, Ordering::SeqCst);
                        eprintln!("worker {t}: transport error {e}");
                    }
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
        }));
    }

    // The mutator streams a deterministic script: onboard POIs near the
    // anchor, wire edges between original ids (never retired), retire
    // previously onboarded ids, and sprinkle deliberately invalid
    // mutations (self-loop edges) that must be rejected without staging.
    let mut_failures = Arc::new(AtomicU64::new(0));
    let valid_acked = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let added = Arc::new(AtomicU64::new(0));
    let mutator = {
        let (lon, lat) = beijing.anchor;
        let (category, attr_dim, n0) = (beijing.category, beijing.attr_dim, beijing.n_pois);
        let mut_failures = Arc::clone(&mut_failures);
        let valid_acked = Arc::clone(&valid_acked);
        let rejected = Arc::clone(&rejected);
        let added = Arc::clone(&added);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut client = ChaosClient::connect(addr).expect("mutator connects");
            let attrs: Vec<String> = (0..attr_dim)
                .map(|c| format!("{}", c as f64 * 0.1))
                .collect();
            let attrs = format!("[{}]", attrs.join(", "));
            // Onboarded ids not yet retired, oldest first.
            let mut live_new: Vec<u64> = Vec::new();
            for i in 0..MUTATOR_STEPS {
                let (req, expect_ok) = if i % 5 == 4 {
                    // Self-loop: must be rejected, never staged.
                    (
                        "{\"op\": \"add_edge\", \"city\": \"beijing\", \"src\": 1, \
                         \"dst\": 1, \"relation\": 0}"
                            .to_string(),
                        false,
                    )
                } else if i % 3 == 1 {
                    let src = (i as u32 * 11) % n0;
                    let dst = (src + 2) % n0;
                    (
                        format!(
                            "{{\"op\": \"add_edge\", \"city\": \"beijing\", \"src\": {src}, \
                             \"dst\": {dst}, \"relation\": 0}}"
                        ),
                        true,
                    )
                } else if i % 3 == 2 && !live_new.is_empty() {
                    let poi = live_new.remove(0);
                    (
                        format!(
                            "{{\"op\": \"retire_poi\", \"city\": \"beijing\", \"poi\": {poi}}}"
                        ),
                        true,
                    )
                } else {
                    let jitter = i as f64 * 1e-4;
                    (
                        format!(
                            "{{\"op\": \"add_poi\", \"city\": \"beijing\", \"lon\": {}, \
                             \"lat\": {}, \"category\": {category}, \"attrs\": {attrs}}}",
                            lon + jitter,
                            lat + jitter
                        ),
                        true,
                    )
                };
                match client.request(&req) {
                    Ok(resp) => {
                        let v = parse(&resp);
                        if is_ok(&v) != expect_ok {
                            mut_failures.fetch_add(1, Ordering::SeqCst);
                            eprintln!("mutator: unexpected outcome for {req}: {resp}");
                        } else if expect_ok {
                            valid_acked.fetch_add(1, Ordering::SeqCst);
                            if let Some(poi) = v.get("poi").and_then(|p| p.as_f64()) {
                                added.fetch_add(1, Ordering::SeqCst);
                                live_new.push(poi as u64);
                            }
                        } else {
                            rejected.fetch_add(1, Ordering::SeqCst);
                            assert_eq!(
                                v.get("code").and_then(|c| c.as_str()),
                                Some("bad_request"),
                                "rejection must be structured: {resp}"
                            );
                        }
                    }
                    Err(e) => {
                        mut_failures.fetch_add(1, Ordering::SeqCst);
                        eprintln!("mutator: transport error {e}");
                    }
                }
                if i % 12 == 11 {
                    match client.request("{\"op\": \"ingest_flush\", \"city\": \"beijing\"}") {
                        Ok(resp) if is_ok(&parse(&resp)) => {}
                        Ok(resp) => {
                            mut_failures.fetch_add(1, Ordering::SeqCst);
                            eprintln!("mutator: flush failed {resp}");
                        }
                        Err(e) => {
                            mut_failures.fetch_add(1, Ordering::SeqCst);
                            eprintln!("mutator: flush transport error {e}");
                        }
                    }
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
        })
    };

    // Watchdog: poll completion against a wall-clock budget instead of
    // joining blindly — a deadlocked server must fail the test, not hang.
    let deadline = Instant::now() + WATCHDOG;
    let all = (CLIENT_THREADS + 1) as u64;
    while done.load(Ordering::SeqCst) < all {
        assert!(
            Instant::now() < deadline,
            "deadlock: {}/{all} threads finished within {WATCHDOG:?}",
            done.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    for w in workers {
        w.join().unwrap();
    }
    mutator.join().unwrap();

    assert_eq!(failures.load(Ordering::SeqCst), 0, "zero failed queries");
    assert_eq!(
        mut_failures.load(Ordering::SeqCst),
        0,
        "zero failed mutations"
    );

    // Query accounting first (the reconciler below issues its own top_k):
    // every ok score/top_k a client counted for a city landed on exactly
    // that city's engine, across every mid-flight engine swap.
    assert_eq!(
        beijing.engine.recorder().counter(Counter::ServeRequests),
        sent_ok[0].load(Ordering::SeqCst),
        "beijing served exactly what its clients counted"
    );
    assert_eq!(
        shanghai.engine.recorder().counter(Counter::ServeRequests),
        sent_ok[1].load(Ordering::SeqCst),
        "shanghai served exactly what its clients counted"
    );

    // Drain the tail of the stream, then reconcile exactly.
    let mut client = ChaosClient::connect(addr).expect("reconciler connects");
    let flush = parse(
        &client
            .request("{\"op\": \"ingest_flush\", \"city\": \"beijing\"}")
            .unwrap(),
    );
    assert!(is_ok(&flush), "final flush: {flush:?}");

    let valid = valid_acked.load(Ordering::SeqCst);
    let bad = rejected.load(Ordering::SeqCst);
    let adds = added.load(Ordering::SeqCst);
    assert!(
        valid > 0 && bad > 0 && adds > 0,
        "script exercised all paths"
    );

    let rec = beijing.engine.recorder();
    assert_eq!(
        rec.counter(Counter::IngestStaged),
        valid,
        "every acknowledged mutation staged exactly once"
    );
    assert_eq!(
        rec.counter(Counter::IngestApplied),
        valid,
        "every staged mutation applied exactly once after the final flush"
    );
    assert_eq!(
        rec.counter(Counter::IngestRejected),
        bad,
        "every deliberate self-loop rejected"
    );
    assert_eq!(
        rec.counter(Counter::IngestBatches),
        slot.reloads(),
        "each applied batch published exactly one engine swap"
    );

    let status = parse(
        &client
            .request("{\"op\": \"ingest_status\", \"city\": \"beijing\"}")
            .unwrap(),
    );
    assert!(is_ok(&status), "status: {status:?}");
    assert_eq!(status.get("staged").and_then(|s| s.as_f64()), Some(0.0));
    assert_eq!(
        status.get("applied").and_then(|s| s.as_f64()),
        Some(valid as f64)
    );
    assert_eq!(
        status.get("n_pois").and_then(|s| s.as_f64()),
        Some((beijing.n_pois as u64 + adds) as f64),
        "published POI count is the base city plus every onboarding"
    );

    // The pipeline's own status agrees with the protocol view.
    let local = ingest_handle.status();
    assert_eq!(local.staged, 0);
    assert_eq!(local.applied, valid);
    assert_eq!(local.next_seq, valid + 1);

    // Freshly onboarded POIs are queryable on the serving path: the last
    // add is never retired (retire consumes oldest-first and each retire
    // is followed by more adds), so its top-k must succeed and echo it.
    let newest = beijing.n_pois as u64 + adds - 1;
    let topk = parse(
        &client
            .request(&format!(
                "{{\"op\": \"top_k\", \"src\": {newest}, \"k\": 3, \"relation\": \
                 \"competitive\", \"radius_km\": 5.0, \"city\": \"beijing\"}}"
            ))
            .unwrap(),
    );
    assert!(is_ok(&topk), "onboarded POI is queryable: {topk:?}");
    assert_eq!(
        topk.get("src").and_then(|s| s.as_f64()),
        Some(newest as f64)
    );

    // Shanghai never saw a mutation: its tenant has no ingest backend and
    // its counters stay untouched by beijing's stream.
    let sh = shanghai.engine.recorder();
    assert_eq!(sh.counter(Counter::IngestStaged), 0);
    assert_eq!(sh.counter(Counter::IngestApplied), 0);
    let deny = parse(
        &client
            .request(
                "{\"op\": \"add_poi\", \"city\": \"shanghai\", \"lon\": 121.4, \"lat\": 31.2, \
                 \"category\": 0, \"attrs\": []}",
            )
            .unwrap(),
    );
    assert!(!is_ok(&deny), "ingest-less tenant rejects mutations");
    assert_eq!(sh.counter(Counter::IngestStaged), 0);
}
