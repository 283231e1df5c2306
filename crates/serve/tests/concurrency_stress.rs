//! Multi-tenant event loop under concurrent fire: client threads hammer
//! two cities with `score`/`top_k` while a reloader thread hot-swaps both
//! tenants' checkpoints in a loop. The invariants: zero failed requests,
//! no deadlock (a wall-clock watchdog, not a hung `join`), and per-tenant
//! request counters that reconcile exactly with what the clients sent —
//! reloads must neither drop requests nor leak them across tenants.

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_obs::json::{self, Value};
use prim_obs::{Counter, Recorder};
use prim_serve::{
    save_checkpoint, ChaosClient, EmbeddingStore, EngineOpts, ServeCtx, ServeEngine, TcpServer,
    TenantSpec,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENT_THREADS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 60;
const RELOAD_ROUNDS: usize = 12;
/// Generous wall-clock budget; blowing it means a deadlock, not slowness.
const WATCHDOG: Duration = Duration::from_secs(120);

mod common;
use common::Scratch;

struct CityFixture {
    engine: Arc<ServeEngine>,
    /// Two checkpoints the reloader alternates between.
    ckpts: [PathBuf; 2],
}

/// Builds a city's engine (with its own recorder, so counters are
/// per-tenant) plus two distinct checkpoints in `scratch` for the reload
/// loop.
fn city(scratch: &Scratch, name: &str, seed: u64) -> CityFixture {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.1, seed);
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
    let ckpts = [
        scratch.path(&format!("{name}-a.prim")),
        scratch.path(&format!("{name}-b.prim")),
    ];
    for (i, p) in ckpts.iter().enumerate() {
        save_checkpoint(
            p,
            &format!("{name}-v{i}"),
            &model,
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            &ds.relation_names,
        )
        .unwrap();
    }
    let store = EmbeddingStore::from_model(&model, &inputs, ds.relation_names.clone());
    let engine = Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::enabled(format!("stress-{name}")),
    ));
    CityFixture { engine, ckpts }
}

fn parse(response: &str) -> Value {
    json::parse(response).expect("responses are valid JSON")
}

#[test]
fn tenants_survive_concurrent_hammering_and_reloads() {
    let scratch = Scratch::new("serve-stress");
    let beijing = city(&scratch, "beijing", 3);
    let shanghai = city(&scratch, "shanghai", 5);
    let ctx = ServeCtx::multi(vec![
        TenantSpec::new("beijing", Arc::clone(&beijing.engine))
            .with_ckpt_path(beijing.ckpts[0].display().to_string()),
        TenantSpec::new("shanghai", Arc::clone(&shanghai.engine))
            .with_ckpt_path(shanghai.ckpts[0].display().to_string()),
    ]);
    let server = TcpServer::bind("127.0.0.1:0", ctx).unwrap().with_shards(2);
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let n_beijing = beijing.engine.store().n_pois() as u32;
    let n_shanghai = shanghai.engine.store().n_pois() as u32;
    let sent_beijing = Arc::new(AtomicU64::new(0));
    let sent_shanghai = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0)); // finished worker threads

    let mut workers = Vec::new();
    for t in 0..CLIENT_THREADS {
        let city_name = if t % 2 == 0 { "beijing" } else { "shanghai" };
        let n_pois = if t % 2 == 0 { n_beijing } else { n_shanghai };
        let sent = if t % 2 == 0 {
            Arc::clone(&sent_beijing)
        } else {
            Arc::clone(&sent_shanghai)
        };
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
                        if v.get("ok") == Some(&Value::Bool(true)) {
                            sent.fetch_add(1, Ordering::SeqCst);
                            // Routing must echo the tenant we asked for.
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

    // The reloader alternates each tenant between its two checkpoints
    // while the clients fire — every reload must succeed.
    let reloader_failures = Arc::new(AtomicU64::new(0));
    let reloader = {
        let beijing_ckpts = beijing.ckpts.clone();
        let shanghai_ckpts = shanghai.ckpts.clone();
        let failures = Arc::clone(&reloader_failures);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut client = ChaosClient::connect(addr).expect("reloader connects");
            for round in 0..RELOAD_ROUNDS {
                for (city_name, ckpts) in
                    [("beijing", &beijing_ckpts), ("shanghai", &shanghai_ckpts)]
                {
                    let path = ckpts[round % 2].display().to_string();
                    let req = format!(
                        "{{\"op\": \"reload\", \"path\": {}, \"city\": \"{city_name}\"}}",
                        json::str(&path)
                    );
                    match client.request(&req) {
                        Ok(resp) => {
                            if parse(&resp).get("ok") != Some(&Value::Bool(true)) {
                                failures.fetch_add(1, Ordering::SeqCst);
                                eprintln!("reload of {city_name} failed: {resp}");
                            }
                        }
                        Err(e) => {
                            failures.fetch_add(1, Ordering::SeqCst);
                            eprintln!("reload transport error: {e}");
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            done.fetch_add(1, Ordering::SeqCst);
        })
    };

    // Watchdog: poll completion flags against a wall-clock budget instead
    // of joining blindly — a deadlocked server must fail the test, not
    // hang CI.
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
    reloader.join().unwrap();

    assert_eq!(failures.load(Ordering::SeqCst), 0, "zero failed requests");
    assert_eq!(
        reloader_failures.load(Ordering::SeqCst),
        0,
        "zero failed reloads"
    );

    // Per-tenant accounting: every ok score/top_k request a client counted
    // for a city must appear on exactly that city's recorder — reloads
    // share the recorder across engine swaps, so nothing is lost.
    let served_beijing = beijing.engine.recorder().counter(Counter::ServeRequests);
    let served_shanghai = shanghai.engine.recorder().counter(Counter::ServeRequests);
    assert_eq!(
        served_beijing,
        sent_beijing.load(Ordering::SeqCst),
        "beijing served != client total"
    );
    assert_eq!(
        served_shanghai,
        sent_shanghai.load(Ordering::SeqCst),
        "shanghai served != client total"
    );

    // Both tenants saw every one of their reloads.
    assert_eq!(
        beijing.engine.recorder().counter(Counter::ServeReloads),
        RELOAD_ROUNDS as u64,
        "beijing reload count"
    );
    assert_eq!(
        shanghai.engine.recorder().counter(Counter::ServeReloads),
        RELOAD_ROUNDS as u64,
        "shanghai reload count"
    );

    let mut closer = ChaosClient::connect(addr).unwrap();
    let _ = closer.request(r#"{"op": "shutdown"}"#);
    server_thread.join().unwrap().unwrap();
}
