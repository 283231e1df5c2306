//! Open-loop load test of the event-loop serve front end.
//!
//! For each connection-count tier, sweeps Poisson arrival rates up a
//! doubling ladder and records throughput-vs-tail-latency per point, the
//! *saturation point* (the highest offered rate the server still achieves
//! ≥85% of), and a deliberate overload run at 2× saturation measuring the
//! shed rate — the admission gate and tick-stamped deadlines should turn
//! overload into prompt structured sheds, not latency collapse.
//!
//! Two modes:
//!
//! * **Self-hosted** (default): trains two quick-scale city models, starts
//!   a real multi-tenant [`prim_serve::TcpServer`] in-process, and drives
//!   it over loopback. Results land in the `loadtest` section of
//!   `BENCH_loadtest.json` (gated by `check_bench_regression`).
//! * **Smoke** (`PRIM_LOADTEST_ADDR=host:port`): drives an externally
//!   started server at one low rate for a few seconds and records a
//!   `loadtest_smoke` section — CI's end-to-end check that the loadgen,
//!   the multi-tenant server and the telemetry pipeline agree.
//!
//! Env knobs: `PRIM_LOADTEST_ADDR` (external server), `PRIM_LOADTEST_RATE`
//! / `PRIM_LOADTEST_SECS` / `PRIM_LOADTEST_CONNS` (smoke-mode overrides),
//! `PRIM_BENCH_SCALE=quick|full` (tier sizes: quick 100/1000 connections,
//! full 1000/10000 — the full tier needs `ulimit -n` headroom).

use prim_bench::json;
use prim_bench::loadgen::{self, CityInfo, LoadSpec, Report};
use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_obs::Recorder;
use prim_serve::{
    save_checkpoint, EmbeddingStore, EngineOpts, ServeCtx, ServeEngine, ServeLimits, TcpServer,
    TenantSpec,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Builds one quick-scale city engine plus an on-disk checkpoint for
/// `reload` traffic.
fn city(name: &str, seed: u64, dir: &Path) -> (Arc<ServeEngine>, PathBuf) {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.15, seed);
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
    let ckpt = dir.join(format!("{name}.prim"));
    save_checkpoint(
        &ckpt,
        name,
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
    )
    .unwrap();
    let store = EmbeddingStore::from_model(&model, &inputs, ds.relation_names.clone());
    let engine = Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::enabled(format!("loadtest-{name}")),
    ));
    (engine, ckpt)
}

fn point_spec(addr: SocketAddr, conns: usize, rate: f64, secs: f64, fixture: &Fixture) -> LoadSpec {
    LoadSpec {
        addr,
        conns,
        rate_hz: rate,
        duration: Duration::from_secs_f64(secs),
        drain: Duration::from_secs(3),
        cities: fixture.cities.clone(),
        relations: fixture.relations.clone(),
        seed: 0x10ad + rate as u64 + conns as u64,
    }
}

struct Fixture {
    cities: Vec<CityInfo>,
    relations: Vec<String>,
}

fn print_point(label: &str, conns: usize, r: &Report) {
    println!(
        "loadtest[{label}]: conns={conns} offered={:.0}rps achieved={:.0}rps \
         ok={} shed={} err={} unanswered={} p50={:.2}ms p99={:.2}ms shed_rate={:.3}",
        r.offered_rps,
        r.achieved_rps,
        r.ok,
        r.shed,
        r.errors,
        r.unanswered,
        r.p50_ms,
        r.p99_ms,
        r.shed_rate()
    );
    use std::io::Write;
    let _ = std::io::stdout().flush();
}

/// A rate ladder for one connection tier: doubling offered rates until
/// achieved throughput drops below 85% of offered (at least `min_points`
/// points either way), then a 2×-saturation overload probe.
fn run_tier(
    addr: SocketAddr,
    conns: usize,
    base_rate: f64,
    secs: f64,
    fixture: &Fixture,
) -> (Vec<(f64, Report)>, f64, Report) {
    const ACHIEVED_FRACTION: f64 = 0.85;
    const MIN_POINTS: usize = 3;
    const MAX_POINTS: usize = 7;
    let mut points: Vec<(f64, Report)> = Vec::new();
    let mut saturation = base_rate;
    let mut rate = base_rate;
    for i in 0..MAX_POINTS {
        let report =
            loadgen::run(&point_spec(addr, conns, rate, secs, fixture)).expect("load point runs");
        print_point("ladder", conns, &report);
        let keeping_up = report.achieved_rps >= ACHIEVED_FRACTION * rate;
        if keeping_up {
            saturation = rate;
        }
        points.push((rate, report));
        if !keeping_up && i + 1 >= MIN_POINTS {
            break;
        }
        rate *= 2.0;
    }
    // Overload probe: 2× the last rate the server kept up with.
    let overload_rate = saturation * 2.0;
    let overload = loadgen::run(&point_spec(addr, conns, overload_rate, secs, fixture))
        .expect("overload point runs");
    print_point("overload", conns, &overload);
    (points, saturation, overload)
}

fn tier_json(conns: usize, points: &[(f64, Report)], saturation: f64, overload: &Report) -> String {
    let rows: Vec<String> = points.iter().map(|(_, r)| r.to_json(conns)).collect();
    json::obj(&[
        ("conns", json::int(conns as u64)),
        ("rates", json::arr(&rows)),
        ("saturation_rps", json::num(saturation)),
        ("overload", overload.to_json(conns)),
    ])
}

fn main() {
    prim_bench::ensure_run_report("loadtest");
    let quick = Scale::from_env() == Scale::Quick;

    // -- Smoke mode: drive an external server briefly and exit -------------
    if let Ok(addr) = std::env::var("PRIM_LOADTEST_ADDR") {
        let addr: SocketAddr = addr.parse().expect("PRIM_LOADTEST_ADDR is host:port");
        let (cities, relations) = loadgen::discover(addr).expect("server answers discovery");
        println!(
            "loadtest: discovered {} tenant(s), {} relation(s) at {addr}",
            cities.len(),
            relations.len()
        );
        let fixture = Fixture { cities, relations };
        let conns = env_f64("PRIM_LOADTEST_CONNS", 32.0) as usize;
        let rate = env_f64("PRIM_LOADTEST_RATE", 200.0);
        let secs = env_f64("PRIM_LOADTEST_SECS", 5.0);
        let report =
            loadgen::run(&point_spec(addr, conns, rate, secs, &fixture)).expect("smoke run");
        print_point("smoke", conns, &report);
        assert_eq!(report.errors, 0, "smoke run must be error-free");
        assert!(report.ok > 0, "smoke run must complete requests");
        let section = json::obj(&[
            ("tenants", json::int(fixture.cities.len() as u64)),
            ("point", report.to_json(conns)),
        ]);
        let path = json::bench_json_path("BENCH_loadtest.json");
        json::update_section(&path, "loadtest_smoke", &section);
        println!("loadtest: smoke section recorded to {}", path.display());
        return;
    }

    // -- Self-hosted mode: real multi-tenant server over loopback ----------
    let dir = std::env::temp_dir().join(format!("prim-loadtest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (bj_engine, bj_ckpt) = city("beijing", 7, &dir);
    let (sh_engine, sh_ckpt) = city("shanghai", 9, &dir);
    let limits = ServeLimits {
        deadline: Some(Duration::from_millis(100)),
        queue_capacity: 512,
        read_timeout: Some(Duration::from_secs(10)),
        write_timeout: Some(Duration::from_secs(10)),
        ..ServeLimits::default()
    };
    let ctx = ServeCtx::multi(vec![
        TenantSpec::new("beijing", Arc::clone(&bj_engine))
            .with_ckpt_path(bj_ckpt.display().to_string()),
        TenantSpec::new("shanghai", Arc::clone(&sh_engine))
            .with_ckpt_path(sh_ckpt.display().to_string()),
    ])
    .with_limits(limits);
    let server = TcpServer::bind("127.0.0.1:0", ctx).unwrap();
    let addr = server.local_addr().unwrap();
    let stop = server.stop_handle();
    let server_thread = std::thread::spawn(move || server.run());

    let (cities, relations) = loadgen::discover(addr).expect("self-hosted discovery");
    assert_eq!(cities.len(), 2, "both tenants visible in health");
    assert!(!relations.is_empty(), "probe score reveals relations");
    let fixture = Fixture { cities, relations };

    // Quick keeps the fleet inside default fd limits; full is the paper-
    // style 1k/10k-connection run.
    let tiers: &[usize] = if quick { &[100, 1000] } else { &[1000, 10000] };
    let base_rate = if quick { 500.0 } else { 1000.0 };
    let secs = if quick { 3.0 } else { 10.0 };

    let mut tier_rows = Vec::new();
    for &conns in tiers {
        let (points, saturation, overload) = run_tier(addr, conns, base_rate, secs, &fixture);
        assert!(
            points.len() >= 3,
            "ladder must measure at least 3 rates per tier"
        );
        let total_errors: u64 = points.iter().map(|(_, r)| r.errors).sum();
        assert_eq!(total_errors, 0, "ladder points must be error-free");
        println!(
            "loadtest: tier {conns} conns saturates at {saturation:.0} rps \
             (overload shed_rate {:.3})",
            overload.shed_rate()
        );
        tier_rows.push(tier_json(conns, &points, saturation, &overload));
    }

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    server_thread.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let section = json::obj(&[
        ("scale", json::str(if quick { "quick" } else { "full" })),
        ("tiers", json::arr(&tier_rows)),
    ]);
    let path = json::bench_json_path("BENCH_loadtest.json");
    json::update_section(&path, "loadtest", &section);
    println!("loadtest: recorded to {}", path.display());
}
