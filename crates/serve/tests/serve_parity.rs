//! Serving parity: after save → load → rebuild, the engine's scores are
//! bitwise identical to [`PrimModel::score_pair_eager`] — with the cache
//! cold and warm, at one and at four kernel threads, through single,
//! batched and top-k paths, and through both front ends.

use prim_core::{fit, ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_graph::PoiId;
use prim_obs::{Counter, Recorder};
use prim_serve::{
    load_checkpoint, save_checkpoint, EmbeddingStore, EngineOpts, ServeCtx, ServeEngine,
};
use prim_tensor::kernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

mod common;
use common::Scratch;

struct Fixture {
    model: PrimModel,
    inputs: ModelInputs,
    engine: Arc<ServeEngine>,
    table: prim_core::EmbeddingTable,
}

/// Trains a small model, checkpoints it, reloads the checkpoint and
/// builds an engine from the *reloaded* state — every comparison below
/// crosses the full persistence boundary.
fn fixture(cfg: PrimConfig, cache_capacity: usize) -> Fixture {
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

    let scratch = Scratch::new("serve-parity");
    let path = scratch.path(&format!("parity_{cache_capacity}.ckpt"));
    save_checkpoint(
        &path,
        "parity",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
    )
    .unwrap();
    let ckpt = load_checkpoint(&path).unwrap();
    let (loaded, loaded_inputs) = ckpt.rebuild().unwrap();
    let store = EmbeddingStore::from_model(&loaded, &loaded_inputs, ckpt.relation_names.clone());
    let opts = EngineOpts {
        cache_capacity,
        ..EngineOpts::default()
    };
    let engine = Arc::new(ServeEngine::new(store, &opts, Recorder::disabled()));

    // Reference table from the ORIGINAL (pre-save) model: parity across
    // the checkpoint boundary, not just within one process state.
    let table = model.embed(&inputs);
    Fixture {
        model,
        inputs,
        engine,
        table,
    }
}

fn random_pairs(n_pois: usize, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let a = rng.gen_range(0..n_pois as u32);
            let mut b = rng.gen_range(0..n_pois as u32);
            if b == a {
                b = (b + 1) % n_pois as u32;
            }
            (a, b)
        })
        .collect()
}

fn assert_pair_parity(fx: &Fixture, pairs: &[(u32, u32)], label: &str) {
    let phi = fx.model.phi();
    for &(a, b) in pairs {
        let got = fx.engine.score(a, b);
        let bin = fx.inputs.pair_bin(PoiId(a), PoiId(b), fx.model.config());
        assert_eq!(got.bin, bin, "{label}: bin for ({a},{b})");
        assert_eq!(got.scores().len(), phi + 1);
        for r in 0..=phi {
            let want = fx
                .model
                .score_pair_eager(&fx.table, PoiId(a), r, PoiId(b), bin);
            assert_eq!(
                got.scores()[r].to_bits(),
                want.to_bits(),
                "{label}: score ({a},{b}) relation {r}"
            );
        }
    }
}

#[test]
fn engine_matches_eager_bitwise_cold_warm_and_across_threads() {
    let fx = fixture(
        PrimConfig {
            dim: 16,
            cat_dim: 8,
            epochs: 5,
            val_check_every: 0,
            ..PrimConfig::quick()
        },
        4096,
    );
    let pairs = random_pairs(fx.engine.store().n_pois(), 1000, 42);

    kernel::set_threads(1);
    assert_pair_parity(&fx, &pairs, "cold cache, 1 thread");
    // Second pass: everything now comes from the cache and must still be
    // the same bits.
    assert_pair_parity(&fx, &pairs, "warm cache, 1 thread");
    let warm = fx.engine.score(pairs[0].0, pairs[0].1);
    assert!(warm.cached, "second pass must hit the cache");

    kernel::set_threads(4);
    assert_pair_parity(&fx, &pairs, "warm cache, 4 threads");
    kernel::set_threads(0);
}

#[test]
fn batch_and_threads_do_not_change_bits() {
    let fx = fixture(
        PrimConfig {
            dim: 16,
            cat_dim: 8,
            epochs: 4,
            val_check_every: 0,
            ..PrimConfig::quick()
        },
        0, // cache off: every call exercises the kernel
    );
    let pairs = random_pairs(fx.engine.store().n_pois(), 512, 7);

    kernel::set_threads(1);
    let one = fx.engine.batch(&pairs);
    kernel::set_threads(4);
    let four = fx.engine.batch(&pairs);
    kernel::set_threads(0);

    for (x, y) in one.iter().zip(&four) {
        assert_eq!(x.src, y.src);
        for (a, b) in x.scores().iter().zip(y.scores()) {
            assert_eq!(a.to_bits(), b.to_bits(), "thread count changed bits");
        }
    }
    // Batched equals single-pair equals eager.
    for (i, s) in one.iter().enumerate() {
        let single = fx.engine.score(s.src, s.dst);
        for (a, b) in s.scores().iter().zip(single.scores()) {
            assert_eq!(a.to_bits(), b.to_bits(), "batch vs single, pair {i}");
        }
        for r in 0..s.scores().len() {
            let want = fx
                .model
                .score_pair_eager(&fx.table, PoiId(s.src), r, PoiId(s.dst), s.bin);
            assert_eq!(s.scores()[r].to_bits(), want.to_bits(), "batch vs eager");
        }
    }
}

#[test]
fn parity_holds_without_distance_scoring() {
    let fx = fixture(
        PrimConfig {
            dim: 16,
            cat_dim: 8,
            epochs: 3,
            val_check_every: 0,
            use_distance_scoring: false,
            ..PrimConfig::quick()
        },
        64,
    );
    let pairs = random_pairs(fx.engine.store().n_pois(), 200, 11);
    assert_pair_parity(&fx, &pairs, "no distance scoring");
}

#[test]
fn best_relation_matches_predict_pairs() {
    let fx = fixture(
        PrimConfig {
            dim: 16,
            cat_dim: 8,
            epochs: 5,
            val_check_every: 0,
            ..PrimConfig::quick()
        },
        1024,
    );
    let pairs = random_pairs(fx.engine.store().n_pois(), 300, 23);
    let id_pairs: Vec<(PoiId, PoiId)> = pairs.iter().map(|&(a, b)| (PoiId(a), PoiId(b))).collect();
    let want = fx.model.predict_pairs(&fx.table, &fx.inputs, &id_pairs);
    for (&(a, b), w) in pairs.iter().zip(&want) {
        assert_eq!(fx.engine.score(a, b).best, *w, "argmax for ({a},{b})");
    }
}

#[test]
fn top_k_is_deterministic_and_correctly_ranked() {
    let fx = fixture(
        PrimConfig {
            dim: 16,
            cat_dim: 8,
            epochs: 4,
            val_check_every: 0,
            ..PrimConfig::quick()
        },
        0,
    );
    let n = fx.engine.store().n_pois();
    for src in [0u32, (n as u32) / 2, n as u32 - 1] {
        let a = fx.engine.top_k_related(src, 2.0, 5, 0);
        kernel::set_threads(4);
        let b = fx.engine.top_k_related(src, 2.0, 5, 0);
        kernel::set_threads(0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.poi, y.poi, "top-k order must be thread-independent");
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        // Scores descend; ties (if any) break on ascending poi id.
        assert!(a
            .windows(2)
            .all(|w| w[1].score.total_cmp(&w[0].score).is_le()));
        // Every returned score is bitwise the eager score.
        for nb in &a {
            let bin = fx
                .inputs
                .pair_bin(PoiId(src), PoiId(nb.poi), fx.model.config());
            let want = fx
                .model
                .score_pair_eager(&fx.table, PoiId(src), 0, PoiId(nb.poi), bin);
            assert_eq!(nb.score.to_bits(), want.to_bits());
        }
    }
}

#[test]
fn tcp_server_round_trip_on_loopback() {
    use std::io::{BufRead, BufReader, Write};

    let fx = fixture(
        PrimConfig {
            dim: 12,
            cat_dim: 6,
            epochs: 3,
            val_check_every: 0,
            ..PrimConfig::quick()
        },
        256,
    );
    let ctx = ServeCtx::direct(Arc::clone(&fx.engine));
    let server = prim_serve::TcpServer::bind("127.0.0.1:0", ctx).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    writeln!(conn, "{{\"op\": \"score\", \"src\": 0, \"dst\": 1}}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = prim_obs::json::parse(line.trim()).unwrap();
    assert_eq!(v.get("ok"), Some(&prim_obs::json::Value::Bool(true)));
    let direct = fx.engine.score(0, 1);
    let got = v
        .get("result")
        .and_then(|r| r.get("best_score"))
        .and_then(|s| s.as_f64())
        .unwrap();
    assert!(
        (got - direct.best_score as f64).abs() < 1e-5,
        "protocol score {got} vs engine {}",
        direct.best_score
    );

    // Malformed line: structured error, connection stays up.
    writeln!(conn, "this is not json").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let v = prim_obs::json::parse(line.trim()).unwrap();
    assert_eq!(v.get("ok"), Some(&prim_obs::json::Value::Bool(false)));

    // Graceful shutdown stops the accept loop.
    writeln!(conn, "{{\"op\": \"shutdown\"}}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("shutdown"));
    server_thread.join().unwrap();
}

#[test]
fn stdin_front_end_handles_requests_and_errors() {
    let fx = fixture(
        PrimConfig {
            dim: 12,
            cat_dim: 6,
            epochs: 3,
            val_check_every: 0,
            ..PrimConfig::quick()
        },
        256,
    );
    // Same store, but a recorder that counts, so the disconnect shows.
    let engine = Arc::new(ServeEngine::new(
        fx.engine.store().clone(),
        &EngineOpts::default(),
        Recorder::enabled("stdin-front-end"),
    ));
    let ctx = ServeCtx::direct(Arc::clone(&engine));
    let requests: &[u8] = b"\
{\"op\": \"score\", \"src\": 0, \"dst\": 2}\n\
{\"op\": \"batch\", \"pairs\": [[0, 1], [2, 3]]}\n\
{\"op\": \"top_k\", \"src\": 0, \"radius_km\": 2.0, \"k\": 3, \"relation\": \"phi\"}\n\
{\"op\": \"nope\"}\n\
{\"op\": \"score\", \"src\": 999999, \"dst\": 0}\n\
{\"op\": \"sc\xffore\", \"src\": 0, \"dst\": 2}\n\
{\"op\": \"health\"}\n\
{\"op\": \"health\"}";
    let mut out = Vec::new();
    prim_serve::serve_stdin(&ctx, requests, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // The unterminated last line is a vanished client: no response.
    assert_eq!(lines.len(), 7, "one response per complete line:\n{text}");
    for (i, ok_expected) in [true, true, true, false, false, false, true]
        .iter()
        .enumerate()
    {
        let v = prim_obs::json::parse(lines[i]).unwrap();
        assert_eq!(
            v.get("ok"),
            Some(&prim_obs::json::Value::Bool(*ok_expected)),
            "line {i}: {}",
            lines[i]
        );
    }
    // A non-UTF-8 byte earns the structured error TCP gives it, and the
    // requests after it are still answered.
    let v = prim_obs::json::parse(lines[5]).unwrap();
    assert_eq!(v.get("code").and_then(|c| c.as_str()), Some("unknown_op"));
    assert_eq!(engine.recorder().counter(Counter::ServeDisconnects), 1);

    // `shutdown` ends the loop: nothing after it is answered.
    let mut out = Vec::new();
    let requests: &[u8] = b"{\"op\": \"shutdown\"}\n{\"op\": \"health\"}\n";
    prim_serve::serve_stdin(&ctx, requests, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(text.contains("\"op\": \"shutdown\""), "{text}");
}
