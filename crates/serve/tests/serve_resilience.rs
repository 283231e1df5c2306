//! Serving-side resilience: structured deadline/overload errors, graceful
//! `top_k` degradation, health probes, hot checkpoint reload with zero
//! failed in-flight requests, and clean handling of clients that vanish
//! or stall mid-request.

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_obs::json::{self, Value};
use prim_obs::{Counter, Recorder};
use prim_serve::{
    handle_line, handle_request, save_checkpoint, ChaosClient, EmbeddingStore, EngineOpts,
    ServeCtx, ServeEngine, ServeLimits, TcpServer,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::Scratch;

struct Fixture {
    engine: Arc<ServeEngine>,
    /// A checkpoint on disk the `reload` op can load.
    ckpt_path: PathBuf,
    /// Holds the checkpoint's directory for the fixture's lifetime.
    _scratch: Scratch,
}

fn fixture(name: &str, run: &str) -> Fixture {
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
    let scratch = Scratch::new("serve-resilience");
    let ckpt_path = scratch.path(&format!("{name}.prim"));
    save_checkpoint(
        &ckpt_path,
        run,
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
        Recorder::enabled("resilience-test"),
    ));
    Fixture {
        engine,
        ckpt_path,
        _scratch: scratch,
    }
}

fn parse(response: &str) -> Value {
    json::parse(response).expect("responses are valid JSON")
}

fn code(v: &Value) -> Option<String> {
    v.get("code").and_then(|c| c.as_str()).map(String::from)
}

#[test]
fn expired_deadline_returns_structured_error_immediately() {
    let fx = fixture("deadline", "v1");
    let ctx = ServeCtx::direct(Arc::clone(&fx.engine));
    let started = Instant::now();
    let h = handle_request(
        &ctx,
        r#"{"op": "score", "src": 0, "dst": 1}"#,
        Some(Instant::now()), // already expired
    );
    let v = parse(&h.response);
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(code(&v).as_deref(), Some("deadline_exceeded"));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "the error must come back promptly, not after scoring"
    );
    assert_eq!(fx.engine.recorder().counter(Counter::ServeDeadlines), 1);
}

#[test]
fn saturated_gate_sheds_with_overloaded_and_recovers() {
    let fx = fixture("overload", "v1");
    let ctx = ServeCtx::direct(Arc::clone(&fx.engine)).with_limits(ServeLimits {
        queue_capacity: 1,
        ..ServeLimits::default()
    });
    let held = ctx.gate().admit_owned().expect("first slot admits");

    let h = handle_line(&ctx, r#"{"op": "score", "src": 0, "dst": 1}"#);
    let v = parse(&h.response);
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(code(&v).as_deref(), Some("overloaded"));
    assert_eq!(fx.engine.recorder().counter(Counter::ServeOverloads), 1);

    // Health answers even while saturated.
    let h = handle_line(&ctx, r#"{"op": "health"}"#);
    let v = parse(&h.response);
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));

    drop(held);
    let h = handle_line(&ctx, r#"{"op": "score", "src": 0, "dst": 1}"#);
    assert_eq!(parse(&h.response).get("ok"), Some(&Value::Bool(true)));
}

#[test]
fn top_k_degrades_to_grid_only_under_deadline_pressure() {
    let fx = fixture("degrade", "v1");
    let ctx = ServeCtx::direct(Arc::clone(&fx.engine)).with_limits(ServeLimits {
        degrade_margin: Duration::from_secs(3600),
        ..ServeLimits::default()
    });
    let req = r#"{"op": "top_k", "src": 0, "radius_km": 5.0, "k": 3, "relation": "phi"}"#;

    // Remaining budget (~10 s) is far under the margin: degraded answer.
    let h = handle_request(&ctx, req, Some(Instant::now() + Duration::from_secs(10)));
    let v = parse(&h.response);
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(v.get("degraded"), Some(&Value::Bool(true)));
    assert_eq!(fx.engine.recorder().counter(Counter::ServeDegraded), 1);
    if let Some(results) = v.get("results").and_then(|r| r.as_arr()) {
        for r in results {
            assert!(r.get("poi").is_some());
            assert!(r.get("distance_km").is_some());
            assert!(r.get("score").is_none(), "degraded results carry no scores");
        }
    }

    // No deadline: the full scored path, marked un-degraded.
    let h = handle_line(&ctx, req);
    let v = parse(&h.response);
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(v.get("degraded"), Some(&Value::Bool(false)));
}

#[test]
fn reload_swaps_the_engine_and_reports_failures_structurally() {
    let fx = fixture("reload-a", "v1");
    let fx2 = fixture("reload-b", "v2");
    let ctx = ServeCtx::direct(Arc::clone(&fx.engine));
    let before = ctx.engine();

    // Unknown path: structured failure, engine untouched.
    let h = handle_line(&ctx, r#"{"op": "reload", "path": "/nonexistent/x.prim"}"#);
    let v = parse(&h.response);
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(code(&v).as_deref(), Some("reload_failed"));
    assert!(Arc::ptr_eq(&before, &ctx.engine()));

    // Real checkpoint: swapped atomically, counted, visible in health.
    let req = json::obj(&[
        ("op", json::str("reload")),
        ("path", json::str(fx2.ckpt_path.to_str().unwrap())),
    ]);
    let h = handle_line(&ctx, &req);
    let v = parse(&h.response);
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{}", h.response);
    assert_eq!(v.get("run").and_then(|r| r.as_str()), Some("v2"));
    assert!(
        !Arc::ptr_eq(&before, &ctx.engine()),
        "engine must be swapped"
    );
    assert_eq!(fx.engine.recorder().counter(Counter::ServeReloads), 1);

    let h = handle_line(&ctx, r#"{"op": "health"}"#);
    let v = parse(&h.response);
    assert_eq!(v.get("reloads").and_then(|r| r.as_f64()), Some(1.0));
}

/// Hot reload under live traffic: clients hammer `score` over TCP while a
/// reload lands mid-stream; every single request must succeed.
#[test]
fn hot_reload_fails_zero_inflight_requests() {
    let fx = fixture("hot-a", "v1");
    let fx2 = fixture("hot-b", "v2");
    let ctx = ServeCtx::direct(Arc::clone(&fx.engine));
    let server = TcpServer::bind("127.0.0.1:0", ctx).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let n_pois = fx.engine.store().n_pois() as u32;
    let mut clients = Vec::new();
    for t in 0..3u32 {
        clients.push(std::thread::spawn(move || -> usize {
            let mut failures = 0usize;
            let mut c = ChaosClient::connect(addr).unwrap();
            for i in 0..60u32 {
                let src = (t * 7 + i) % n_pois;
                let dst = (src + 1) % n_pois;
                let req = format!("{{\"op\": \"score\", \"src\": {src}, \"dst\": {dst}}}");
                match c.request(&req) {
                    Ok(resp) => {
                        let v = json::parse(&resp).unwrap();
                        if v.get("ok") != Some(&Value::Bool(true)) {
                            failures += 1;
                        }
                    }
                    Err(_) => failures += 1,
                }
            }
            failures
        }));
    }

    // Let traffic build, then reload mid-stream.
    std::thread::sleep(Duration::from_millis(30));
    let mut admin = ChaosClient::connect(addr).unwrap();
    let req = json::obj(&[
        ("op", json::str("reload")),
        ("path", json::str(fx2.ckpt_path.to_str().unwrap())),
    ]);
    let resp = admin.request(&req).unwrap();
    assert_eq!(
        json::parse(&resp).unwrap().get("ok"),
        Some(&Value::Bool(true)),
        "{resp}"
    );

    let total_failures: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(total_failures, 0, "hot reload must fail zero requests");

    let health = admin.request(r#"{"op": "health"}"#).unwrap();
    let v = json::parse(&health).unwrap();
    assert_eq!(v.get("reloads").and_then(|r| r.as_f64()), Some(1.0));

    let _ = admin.request(r#"{"op": "shutdown"}"#);
    server_thread.join().unwrap().unwrap();
}

/// Waits for a counter to reach `want`, with a bounded retry loop (the
/// server-side bump happens on a worker thread).
fn wait_for_counter(recorder: &Recorder, counter: Counter, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let got = recorder.counter(counter);
        if got >= want || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn vanished_client_is_a_counted_clean_disconnect() {
    let fx = fixture("disconnect", "v1");
    let ctx = ServeCtx::direct(Arc::clone(&fx.engine));
    let server = TcpServer::bind("127.0.0.1:0", ctx).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    // Half a request line, then gone: the server sees EOF mid-line.
    let mut c = ChaosClient::connect(addr).unwrap();
    c.send_partial(r#"{"op": "score", "src": 0,"#, 12).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    c.hang_up();

    let got = wait_for_counter(fx.engine.recorder(), Counter::ServeDisconnects, 1);
    assert!(got >= 1, "disconnect must be counted, got {got}");

    // The server is unharmed: a well-behaved client still gets answers.
    let mut ok_client = ChaosClient::connect(addr).unwrap();
    let resp = ok_client
        .request(r#"{"op": "score", "src": 0, "dst": 1}"#)
        .unwrap();
    assert_eq!(
        json::parse(&resp).unwrap().get("ok"),
        Some(&Value::Bool(true))
    );
    let _ = ok_client.request(r#"{"op": "shutdown"}"#);
    server_thread.join().unwrap().unwrap();
}

#[test]
fn stalled_mid_line_connection_is_closed_after_read_timeout() {
    let fx = fixture("stall", "v1");
    let ctx = ServeCtx::direct(Arc::clone(&fx.engine)).with_limits(ServeLimits {
        read_timeout: Some(Duration::from_millis(50)),
        ..ServeLimits::default()
    });
    let server = TcpServer::bind("127.0.0.1:0", ctx).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    // Send half a line and stall (slow-loris): the worker must give up
    // at the read timeout instead of being pinned forever.
    let mut loris = ChaosClient::connect(addr).unwrap();
    loris
        .send_partial(r#"{"op": "score", "src": 0,"#, 10)
        .unwrap();
    let got = wait_for_counter(fx.engine.recorder(), Counter::ServeDeadlines, 1);
    assert!(got >= 1, "stalled connection must be counted, got {got}");

    // A prompt client is unaffected by the stalled one.
    let mut ok_client = ChaosClient::connect(addr).unwrap();
    let resp = ok_client
        .request(r#"{"op": "score", "src": 0, "dst": 1}"#)
        .unwrap();
    assert_eq!(
        json::parse(&resp).unwrap().get("ok"),
        Some(&Value::Bool(true))
    );
    let _ = ok_client.request(r#"{"op": "shutdown"}"#);
    server_thread.join().unwrap().unwrap();
    drop(loris);
}

/// A client that sends whole lines is never caught mid-line, so a read
/// timeout shorter than a loopback delayed ACK (about 40 ms) must not
/// reap it: every request on one connection, the shutdown included, gets
/// its answer. A request whose newline trails in a second write would be
/// held back by Nagle's algorithm from the second request on and closed
/// as a slow loris here — a lost shutdown then leaves `run` waiting.
#[test]
fn prompt_client_outlives_a_read_timeout_shorter_than_a_delayed_ack() {
    let fx = fixture("prompt", "v1");
    let ctx = ServeCtx::direct(Arc::clone(&fx.engine)).with_limits(ServeLimits {
        read_timeout: Some(Duration::from_millis(20)),
        ..ServeLimits::default()
    });
    let server = TcpServer::bind("127.0.0.1:0", ctx).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let mut client = ChaosClient::connect(addr).unwrap();
    for i in 0..8 {
        let resp = client
            .request(r#"{"op": "score", "src": 0, "dst": 1}"#)
            .unwrap();
        assert_eq!(
            json::parse(&resp).ok().and_then(|v| v.get("ok").cloned()),
            Some(Value::Bool(true)),
            "request {i} on one connection got {resp:?}"
        );
    }
    let resp = client.request(r#"{"op": "shutdown"}"#).unwrap();
    assert_eq!(
        json::parse(&resp).ok().and_then(|v| v.get("ok").cloned()),
        Some(Value::Bool(true)),
        "shutdown got {resp:?}"
    );
    server_thread.join().unwrap().unwrap();
    assert_eq!(fx.engine.recorder().counter(Counter::ServeDeadlines), 0);
}

/// The event loop must keep the shed path prompt while misbehaving
/// connections pile up: slow readers pin admission permits (their queued
/// responses hold gate slots until flushed) and a slow loris holds a
/// half-sent line — a well-behaved client must still get `overloaded`
/// within a bounded wait, and full service once the stalled connections
/// are reaped by their timeouts.
#[test]
fn shed_path_stays_prompt_despite_slow_readers_and_loris() {
    let fx = fixture("shed", "v1");
    let ctx = ServeCtx::direct(Arc::clone(&fx.engine)).with_limits(ServeLimits {
        queue_capacity: 2,
        read_timeout: Some(Duration::from_millis(400)),
        write_timeout: Some(Duration::from_millis(1500)),
        ..ServeLimits::default()
    });
    let server = TcpServer::bind("127.0.0.1:0", ctx).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    // A slow loris holds one connection hostage mid-line.
    let mut loris = ChaosClient::connect(addr).unwrap();
    loris
        .send_partial(r#"{"op": "score", "src": 0,"#, 10)
        .unwrap();

    // Two slow readers flood large batch requests and never read a byte:
    // their responses overflow the socket buffers into the server's write
    // queues, pinning admission permits until the write timeout reaps them.
    // Each admitted response must exceed what the kernel will buffer for
    // an unread loopback connection (a few hundred KB), or the permit
    // releases at flush and the gate only saturates transiently within a
    // single tick. 4096 pairs make a ~1MB response; a handful of lines per
    // connection is enough to pin both permits.
    let n_pois = fx.engine.store().n_pois() as u32;
    let pairs: Vec<String> = (0..4096u32)
        .map(|i| format!("[{}, {}]", i % n_pois, (i + 1) % n_pois))
        .collect();
    let flood_req = format!("{{\"op\": \"batch\", \"pairs\": [{}]}}", pairs.join(", "));
    let mut floods = Vec::new();
    for _ in 0..2 {
        let mut c = ChaosClient::connect(addr).unwrap();
        c.flood_lines(&flood_req, 8);
        floods.push(c);
    }

    // The shed path must answer promptly — a stalled connection must not
    // starve it — and the saturated gate must actually shed.
    let mut fast = ChaosClient::connect(addr).unwrap();
    let mut saw_overloaded = false;
    for _ in 0..120 {
        let started = Instant::now();
        let resp = fast
            .request(r#"{"op": "score", "src": 0, "dst": 1}"#)
            .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "responses must stay prompt while the gate is saturated"
        );
        if code(&parse(&resp)).as_deref() == Some("overloaded") {
            saw_overloaded = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        saw_overloaded,
        "slow readers must saturate the gate (overloads={}, requests={}, disconnects={})",
        fx.engine.recorder().counter(Counter::ServeOverloads),
        fx.engine.recorder().counter(Counter::ServeRequests),
        fx.engine.recorder().counter(Counter::ServeDisconnects),
    );
    assert!(fx.engine.recorder().counter(Counter::ServeOverloads) >= 1);

    // The loris is reaped at the read timeout (counted as a deadline) and
    // the slow readers at the write timeout, releasing their permits:
    // service recovers without restarting anything.
    let got = wait_for_counter(fx.engine.recorder(), Counter::ServeDeadlines, 1);
    assert!(got >= 1, "slow loris must be closed and counted, got {got}");
    let recovery_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = fast
            .request(r#"{"op": "score", "src": 0, "dst": 1}"#)
            .unwrap();
        if parse(&resp).get("ok") == Some(&Value::Bool(true)) {
            break;
        }
        assert!(
            Instant::now() < recovery_deadline,
            "gate must recover once stalled connections are reaped: {resp}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let _ = fast.request(r#"{"op": "shutdown"}"#);
    server_thread.join().unwrap().unwrap();
    drop(floods);
    drop(loris);
}

#[test]
fn unknown_op_and_bad_json_carry_codes() {
    let fx = fixture("codes", "v1");
    let ctx = ServeCtx::direct(Arc::clone(&fx.engine));

    let v = parse(&handle_line(&ctx, r#"{"op": "explode"}"#).response);
    assert_eq!(code(&v).as_deref(), Some("unknown_op"));

    let v = parse(&handle_line(&ctx, "not json at all").response);
    assert_eq!(code(&v).as_deref(), Some("bad_request"));
}
