//! `query`: read-only TCP traffic against one city.
//!
//! A seeded mix of `score` calls on a skewed hot set of pairs (the score
//! cache sees hits and misses), `batch` calls of 16 pairs, and `top_k`
//! calls in three radius classes chosen so the engine serves each of its
//! regimes: exact, quantized scan, and HNSW beam.

use crate::common::{self, LineClient, Meter, Outcome, Rng, Serving};
use crate::read::{
    listed_pois, serve_counters, serve_counters_since, served_regime, Read, BATCH_SHARE,
    SCORE_SHARE,
};
use crate::trace::{per_req_us, self_us, Trace};
use crate::{alloc, fixture, procfs, stats, Args};
use prim_core::PrimConfig;
use prim_geo::{GridIndex, Location};
use prim_graph::PoiId;
use prim_obs::{json, Recorder};
use prim_serve::{
    handle_request, handle_request_gated, load_checkpoint, score_pairs_all, AnnOpts,
    EmbeddingStore, EngineOpts, ServeCtx, ServeEngine, TcpServer,
};
use prim_tensor::pool;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Timed requests per second of `--seconds`: sized so the timed phase
/// lasts about `--seconds` on a 2-vCPU host. The work is fixed by the
/// argument, not by the clock, so every run of a seed sends the same
/// requests.
const REQUESTS_PER_SEC: usize = 14_000;
/// Untimed warm-up requests, from the same generator, sent first.
const WARMUP: usize = 4_000;
/// Pairs in the hot set `score` calls draw from.
const HOT_PAIRS: usize = 512;
/// Pairs per `batch` call.
const BATCH_PAIRS: usize = 16;
/// `top_k` result size.
const K: usize = 10;
/// A radius whose cells hold at most `AnnOpts::min_exact` POIs around
/// most sources: the exact path.
const EXACT_RADIUS_KM: f64 = 0.5;
/// A radius past `min_exact` but well under a quarter of the city: the
/// quantized scan.
const SCAN_RADIUS_KM: f64 = 10.0;
/// A radius covering the whole metro area, the only way a 5k-POI city
/// passes the beam's `beam_cutoff` and quarter-of-the-store tests.
const BEAM_RADIUS_KM: f64 = 150.0;
/// Share of timed requests whose responses are checked against the oracle.
const VERIFY_SHARE: f64 = 1.0 / 16.0;

/// The `top_k` regime a request's radius class is built to reach. The
/// three classes are drawn equally often: the load generator the op
/// shares come from sends one radius only, so there is no mix to copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    Exact,
    Scan,
    Beam,
}

impl Regime {
    pub fn name(self) -> &'static str {
        match self {
            Regime::Exact => "exact",
            Regime::Scan => "scan",
            Regime::Beam => "beam",
        }
    }

    /// The `mode` the protocol reports for this regime.
    fn mode(self) -> &'static str {
        match self {
            Regime::Exact => "exact",
            Regime::Scan | Regime::Beam => "ann",
        }
    }

    /// The regime the engine's dispatch picks for `src` at `radius_km`
    /// (the rule of `ServeEngine::top_k_related_mode` under `opts`).
    fn of(grid: &GridIndex, opts: &AnnOpts, src: usize, radius_km: f64) -> Regime {
        let est = grid.count_in_cells_around(src, radius_km);
        if est <= opts.min_exact {
            Regime::Exact
        } else if est > opts.beam_cutoff && est.saturating_mul(4) >= grid.len() {
            Regime::Beam
        } else {
            Regime::Scan
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub read: Read,
    /// The regime a `top_k` is built to reach.
    pub regime: Option<Regime>,
    pub line: String,
    /// Checked against the oracle after the timed phase.
    pub verify: bool,
}

impl Request {
    pub fn kind(&self) -> &'static str {
        match (&self.read, self.regime) {
            (Read::Score(..), _) => "score",
            (Read::Batch(_), _) => "batch",
            (_, Some(Regime::Exact)) => "topk_exact",
            (_, Some(Regime::Scan)) => "topk_scan",
            _ => "topk_beam",
        }
    }
}

/// The whole request sequence of one run.
pub struct Plan {
    pub warmup: Vec<Request>,
    pub timed: Vec<Request>,
}

/// Requests in a run of `seconds`.
pub fn timed_requests(seconds: u64) -> usize {
    REQUESTS_PER_SEC * seconds as usize
}

/// The serving grid's cell size for a quick-config checkpoint.
fn serve_grid(locations: &[Location]) -> GridIndex {
    GridIndex::build(locations, PrimConfig::quick().spatial_radius_km.max(0.1))
}

/// Builds the request sequence from the seed and the city alone.
pub fn plan(seed: u64, locations: &[Location], relations: &[String], n_timed: usize) -> Plan {
    let mut rng = Rng::new(seed ^ 0x0071_7565_7279);
    let grid = serve_grid(locations);
    let n = locations.len();
    // Two distinct POIs drawn uniformly, as the load generator draws them.
    let pair = |rng: &mut Rng| -> (u32, u32) {
        let src = rng.below(n);
        let dst = (src + 1 + rng.below(n - 1)) % n;
        (src as u32, dst as u32)
    };
    let hot: Vec<(u32, u32)> = (0..HOT_PAIRS).map(|_| pair(&mut rng)).collect();
    // Log-uniform rank: rank r is drawn with probability ∝ 1/(r+1), the
    // Zipf skew of lookups for popular storefronts.
    let hot_pair = |rng: &mut Rng| -> (u32, u32) {
        let r = ((HOT_PAIRS as f64 + 1.0).powf(rng.unit()) - 1.0) as usize;
        hot[r.min(HOT_PAIRS - 1)]
    };

    let opts = AnnOpts::default();
    let sources = |radius: f64, want: Regime| -> Vec<u32> {
        let s: Vec<u32> = (0..n)
            .filter(|&i| Regime::of(&grid, &opts, i, radius) == want)
            .map(|i| i as u32)
            .collect();
        assert!(
            !s.is_empty(),
            "no source reaches the {} regime",
            want.name()
        );
        s
    };
    let classes = [
        (Regime::Exact, EXACT_RADIUS_KM),
        (Regime::Scan, SCAN_RADIUS_KM),
        (Regime::Beam, BEAM_RADIUS_KM),
    ]
    .map(|(regime, radius)| (regime, radius, sources(radius, regime)));

    let draw = |rng: &mut Rng, verify: bool| -> Request {
        let u = rng.unit();
        let mut regime = None;
        let read = if u < SCORE_SHARE {
            let (a, b) = if rng.unit() < 0.8 {
                hot_pair(rng)
            } else {
                pair(rng)
            };
            Read::Score(a, b)
        } else if u < SCORE_SHARE + BATCH_SHARE {
            Read::Batch(
                (0..BATCH_PAIRS)
                    .map(|_| {
                        if rng.unit() < 0.5 {
                            hot_pair(rng)
                        } else {
                            pair(rng)
                        }
                    })
                    .collect(),
            )
        } else {
            let (class, radius_km, srcs) = &classes[rng.below(classes.len())];
            regime = Some(*class);
            Read::TopK {
                src: srcs[rng.below(srcs.len())],
                radius_km: *radius_km,
                k: K,
                relation: rng.below(relations.len()),
                exact: false,
            }
        };
        Request {
            line: read.line(None, relations),
            read,
            regime,
            verify,
        }
    };
    let warmup = (0..WARMUP).map(|_| draw(&mut rng, false)).collect();
    let timed = (0..n_timed)
        .map(|_| {
            let verify = rng.unit() < VERIFY_SHARE;
            draw(&mut rng, verify)
        })
        .collect();
    Plan { warmup, timed }
}

/// Brings up a server over `store`: the last step of a serving process's
/// set-up.
fn serve(store: EmbeddingStore, recorder: Recorder) -> (TcpServer, Arc<ServeEngine>) {
    let engine = Arc::new(ServeEngine::new(store, &EngineOpts::default(), recorder));
    let server = TcpServer::bind("127.0.0.1:0", ServeCtx::direct(Arc::clone(&engine)))
        .expect("server binds");
    (server, engine)
}

/// Loads the checkpoint and brings up a server over it: the set-up a
/// serving process pays before it can take its first request.
fn bring_up(ckpt: &Path) -> (TcpServer, Arc<ServeEngine>) {
    let ckpt = load_checkpoint(ckpt).expect("fixture checkpoint loads");
    let store = EmbeddingStore::from_checkpoint(&ckpt).expect("store builds");
    serve(store, Recorder::disabled())
}

/// Timed TCP pass: per-request wall latency (µs) and sampled responses.
pub struct TcpPass {
    pub lat_us: Vec<f64>,
    pub metered: common::Metered,
    pub samples: Vec<(usize, String)>,
    pub regime_mismatch: usize,
}

/// Sends the warm-up then the timed requests over one connection, one
/// request outstanding at a time; with a trace, each timed request is a
/// `tcp` span.
pub fn tcp_pass(
    addr: std::net::SocketAddr,
    plan: &Plan,
    out: &mut Outcome,
    mut trace: Option<&mut Trace>,
) -> TcpPass {
    let mut client = LineClient::connect(addr).expect("client connects");
    for req in &plan.warmup {
        let resp = client.call(&req.line).expect("warm-up response");
        assert!(
            resp.starts_with("{\"ok\": true"),
            "warm-up request failed: {resp}"
        );
    }
    let mut lat_us = Vec::with_capacity(plan.timed.len());
    let mut samples = Vec::new();
    let mut regime_mismatch = 0;
    let meter = Meter::start();
    for (i, req) in plan.timed.iter().enumerate() {
        let t = Instant::now();
        let resp = match client.call(&req.line) {
            Ok(r) => r,
            Err(e) => {
                // This and every later request go unanswered.
                out.error(format!("request {i}: transport error {e}"));
                out.failed += (plan.timed.len() - i) as u64;
                break;
            }
        };
        let end = Instant::now();
        lat_us.push((end - t).as_secs_f64() * 1e6);
        if let Some(trace) = trace.as_deref_mut() {
            trace.record("tcp", i as u64, None, t, end, 0);
        }
        if !resp.starts_with("{\"ok\": true") {
            out.fail(format!("request {i}: {resp}"));
            continue;
        }
        if let Some(regime) = req.regime {
            if !resp.contains(&format!("\"mode\": \"{}\"", regime.mode())) {
                regime_mismatch += 1;
            }
        }
        if req.verify {
            samples.push((i, resp.to_string()));
        }
    }
    let metered = meter.finish(true);
    TcpPass {
        lat_us,
        metered,
        samples,
        regime_mismatch,
    }
}

/// Checks sampled responses against an oracle engine over a clone of the
/// served store, with its cache off. `score` and `batch` responses must
/// match the oracle's byte for byte (apart from the `cached` flag); an
/// exact-mode `top_k` must match the oracle's `exact: true` answer; an
/// ANN `top_k` must return, byte for byte, the oracle's exact entries for
/// the POIs it names, in the oracle's ranking order. Returns the mean
/// recall of ANN answers against the exact top k.
pub fn verify(
    store: EmbeddingStore,
    plan: &Plan,
    samples: &[(usize, String)],
    out: &mut Outcome,
) -> f64 {
    let oracle = Arc::new(ServeEngine::new(
        store,
        &EngineOpts {
            cache_capacity: 0,
            ..EngineOpts::default()
        },
        Recorder::disabled(),
    ));
    let ctx = ServeCtx::direct(Arc::clone(&oracle));
    let mut recalls = Vec::new();
    for (i, got) in samples {
        let req = &plan.timed[*i];
        let expected = match &req.read {
            Read::Score(..) | Read::Batch(_) => handle_request(&ctx, &req.line, None).response,
            Read::TopK {
                src,
                radius_km,
                relation,
                ..
            } => {
                if got.contains("\"mode\": \"exact\"") {
                    let exact_line = req.line.replacen('}', ", \"exact\": true}", 1);
                    handle_request(&ctx, &exact_line, None).response
                } else {
                    let (all, _) = oracle.top_k_related_mode(
                        *src,
                        *radius_km,
                        oracle.store().n_pois(),
                        *relation,
                        true,
                    );
                    let returned = listed_pois(got);
                    let top: HashSet<u32> = all.iter().take(K).map(|n| n.poi).collect();
                    let hits = returned.iter().filter(|p| top.contains(p)).count();
                    recalls.push(hits as f64 / top.len().max(1) as f64);
                    let results: Vec<String> = all
                        .iter()
                        .filter(|n| returned.contains(&n.poi))
                        .map(|n| {
                            json::obj(&[
                                ("poi", json::int(n.poi as u64)),
                                ("distance_km", json::num(n.distance_km)),
                                ("score", json::num(n.score as f64)),
                                ("is_best", n.is_best.to_string()),
                            ])
                        })
                        .collect();
                    json::obj(&[
                        ("ok", "true".to_string()),
                        ("op", json::str("top_k")),
                        ("degraded", "false".to_string()),
                        ("mode", json::str("ann")),
                        ("src", json::int(*src as u64)),
                        (
                            "relation",
                            json::str(oracle.store().relation_name(*relation)),
                        ),
                        ("results", json::arr(&results)),
                    ])
                }
            }
        };
        let got = got.replace("\"cached\": true", "\"cached\": false");
        if got != expected {
            out.fail(format!(
                "request {i} differs from the oracle\n  sent     {}\n  got      {got}\n  expected {expected}",
                req.line
            ));
        }
    }
    stats::mean(&recalls)
}

/// Ops per kind in the timed sequence, for the run record.
fn mix(plan: &Plan) -> String {
    let mut counts = std::collections::BTreeMap::new();
    for r in &plan.timed {
        *counts.entry(r.kind()).or_insert(0usize) += 1;
    }
    counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Writes the fixture checkpoint and builds the request plan.
fn fixture_and_plan(args: &Args, dir: &Path) -> (Plan, PathBuf) {
    let ds = fixture::city();
    let ckpt = dir.join("city.ckpt");
    fixture::write_checkpoint(&ds, &ckpt);
    let locations: Vec<Location> = (0..ds.graph.num_pois())
        .map(|i| ds.graph.poi(PoiId(i as u32)).location)
        .collect();
    let plan = plan(
        args.seed,
        &locations,
        &ds.relation_names,
        timed_requests(args.seconds),
    );
    (plan, ckpt)
}

pub fn run(args: &Args, out: &mut Outcome) {
    let dir = common::work_dir("query");
    let (plan, ckpt) = fixture_and_plan(args, &dir);
    let mut setup = Vec::new();
    let (server, engine) =
        common::timed_setup(crate::SETUP_REPS_EACH_SIDE, &mut setup, || bring_up(&ckpt));
    let oracle_store = engine.store().clone();
    drop(engine);
    let serving = Serving::start(server);
    let pass = tcp_pass(serving.addr, &plan, out, None);
    serving.stop();
    out.attempted = plan.timed.len() as u64;
    let recall = verify(oracle_store, &plan, &pass.samples, out);
    // Peak memory of the set-up and the served work, before the set-up
    // repetitions that follow it.
    let rss_mb = procfs::vm_hwm_mb();
    drop(common::timed_setup(
        crate::SETUP_REPS_EACH_SIDE,
        &mut setup,
        || bring_up(&ckpt),
    ));

    let lat = stats::Latency::of(&pass.lat_us);
    let ops = pass.lat_us.len().max(1) as f64;
    out.metric("setup_s", stats::median(&setup));
    out.metric("rss_mb", rss_mb);
    out.metric("p50_ms", lat.p50 / 1e3);
    out.metric(
        "cpu_ms_per_op",
        pass.metered.program_cpu.as_secs_f64() * 1e3 / ops,
    );
    out.note("setup", common::describe_setup(&setup));
    out.note("mix", mix(&plan));
    out.note("p99_ms", format!("{:.4}", lat.p99 / 1e3));
    out.note(
        "p99_samples",
        format!("{} of {} beyond", lat.beyond_p99, lat.n),
    );
    out.note(
        "req_per_s",
        format!("{:.0}", ops / pass.metered.wall.as_secs_f64()),
    );
    out.note("timed_phase", pass.metered.describe());
    out.note("verified", pass.samples.len());
    out.note("ann_recall_at_k", format!("{recall:.4}"));
    out.note("regime_mismatch", pass.regime_mismatch);
    common::remove_work_dir(&dir);
}

/// A fresh engine over a clone of the base store, recorder on.
fn fresh_engine(base: &EmbeddingStore) -> Arc<ServeEngine> {
    Arc::new(ServeEngine::new(
        base.clone(),
        &EngineOpts::default(),
        Recorder::enabled("perfbench-query"),
    ))
}

/// Exact counts of one in-process protocol pass.
#[derive(Debug, PartialEq)]
struct ProtoCounts {
    counters: [u64; 5],
    allocs: u64,
    pool_runs: u64,
}

/// Pass 2: every request through `handle_request_gated`, no TCP, each a
/// `proto` span with its allocations counted.
fn proto_pass(base: &EmbeddingStore, plan: &Plan, trace: &mut Trace) -> ProtoCounts {
    let engine = fresh_engine(base);
    let ctx = ServeCtx::direct(Arc::clone(&engine));
    for req in &plan.warmup {
        drop(handle_request_gated(&ctx, &req.line, None));
    }
    let c0 = serve_counters(engine.recorder());
    let pool0 = pool::stats();
    let allocs0 = alloc::total();
    for (i, req) in plan.timed.iter().enumerate() {
        let handled = trace.time_counted("proto", i as u64, None, || {
            handle_request_gated(&ctx, &req.line, None)
        });
        drop(handled);
    }
    ProtoCounts {
        allocs: alloc::total() - allocs0,
        pool_runs: pool::stats().parallel_runs_since(&pool0),
        counters: serve_counters_since(engine.recorder(), c0),
    }
}

/// Per request of pass 3: the pairs it scored through the kernel (cache
/// misses) and, for an exact-mode `top_k`, its query.
#[derive(Default)]
struct KernelWork {
    misses: Vec<(u32, u32)>,
    exact_topk: Option<(u32, f64)>,
}

/// What pass 3 leaves for the passes below it and for the record.
struct EnginePass {
    work: Vec<KernelWork>,
    /// Per request, the `top_k` regime that served it, by its mode and
    /// the ANN counters it moved.
    served: Vec<Option<&'static str>>,
    /// ANN-mode `top_k` answers.
    ann: usize,
    /// Exact counts: allocations inside the pass's spans, and the
    /// engine's cache and ANN counters.
    allocs: u64,
    counters: [u64; 5],
}

/// Pass 3: the engine's public calls, each an `engine` span.
fn engine_pass(base: &EmbeddingStore, plan: &Plan, trace: &mut Trace) -> EnginePass {
    let engine = fresh_engine(base);
    for req in &plan.warmup {
        drop(req.read.call(&engine));
    }
    let start = serve_counters(engine.recorder());
    let allocs0 = alloc::total();
    let mut work = Vec::with_capacity(plan.timed.len());
    let mut served = Vec::with_capacity(plan.timed.len());
    let mut ann = 0;
    for (i, req) in plan.timed.iter().enumerate() {
        let c0 = serve_counters(engine.recorder());
        let answer = trace.time_counted("engine", i as u64, None, || req.read.call(&engine));
        let moved = serve_counters_since(engine.recorder(), c0);
        let mut w = KernelWork {
            misses: answer.misses(),
            exact_topk: None,
        };
        let mut regime = None;
        if let (Read::TopK { src, radius_km, .. }, Some(mode)) = (&req.read, answer.mode()) {
            regime = served_regime(mode, moved);
            if mode == "exact" {
                w.exact_topk = Some((*src, *radius_km));
            } else {
                ann += 1;
            }
        }
        work.push(w);
        served.push(regime);
    }
    EnginePass {
        work,
        served,
        ann,
        allocs: alloc::total() - allocs0,
        counters: serve_counters_since(engine.recorder(), start),
    }
}

/// Records, per planned regime, how many answers the regime served; a
/// regime that did not serve all of its requests is flagged.
fn note_regimes(plan: &Plan, served: &[Option<&'static str>], out: &mut Outcome) {
    for r in [Regime::Exact, Regime::Scan, Regime::Beam] {
        let planned: Vec<usize> = (0..plan.timed.len())
            .filter(|&i| plan.timed[i].regime == Some(r))
            .collect();
        let shaped = planned
            .iter()
            .filter(|&&i| served[i] == Some(r.name()))
            .count();
        let flag = if shaped == planned.len() {
            ""
        } else {
            "FLAG, "
        };
        out.note(
            format!("regime_{}", r.name()),
            format!(
                "{flag}{shaped} of {} planned answers had its shape",
                planned.len()
            ),
        );
    }
}

/// Pass 4: `score_pairs_all` on pass 3's cache misses and exact-mode
/// candidates (`kernel` spans) and `within_radius` for the exact-mode
/// queries (`grid` spans). Returns pairs scored and candidates per query.
fn kernel_pass(base: &EmbeddingStore, work: &[KernelWork], trace: &mut Trace) -> (usize, Vec<f64>) {
    let store = base;
    let bins = |pairs: &[(u32, u32)]| -> Vec<usize> {
        pairs
            .iter()
            .map(|&(a, b)| store.pair_bin(PoiId(a), PoiId(b)))
            .collect()
    };
    let mut pairs_scored = 0;
    let mut candidates = Vec::new();
    for (i, w) in work.iter().enumerate() {
        let req = i as u64;
        if !w.misses.is_empty() {
            let b = bins(&w.misses);
            drop(trace.time("kernel", req, None, || {
                score_pairs_all(store, &w.misses, &b)
            }));
            pairs_scored += w.misses.len();
        }
        if let Some((src, radius_km)) = w.exact_topk {
            let cands = trace.time("grid", req, None, || {
                store.within_radius(PoiId(src), radius_km)
            });
            let pairs: Vec<(u32, u32)> = cands.iter().map(|&(j, _)| (src, j as u32)).collect();
            let b = bins(&pairs);
            drop(trace.time("kernel", req, None, || score_pairs_all(store, &pairs, &b)));
            pairs_scored += pairs.len();
            candidates.push(cands.len() as f64);
        }
    }
    (pairs_scored, candidates)
}

/// Traced run. The timed request sequence is replayed once per layer
/// boundary, each pass one layer lower and each on a fresh engine over a
/// clone of the same store: TCP untraced (the overhead baseline), TCP,
/// `handle_request_gated` and the engine's calls (each twice, to check
/// their exact counts repeat), and the kernel and grid calls the engine
/// made.
pub fn run_traced(args: &Args, out: &mut Outcome) {
    let dir = common::work_dir("query");
    let (plan, ckpt) = fixture_and_plan(args, &dir);
    common::store_layers(&ckpt, out);
    let (server, engine) = bring_up(&ckpt);
    let base = engine.store().clone();
    drop(engine);
    let serving = Serving::start(server);
    let untraced = tcp_pass(serving.addr, &plan, out, None);
    serving.stop();
    out.attempted = plan.timed.len() as u64;

    let mut trace = Trace::new();
    let (server, _) = serve(base.clone(), Recorder::enabled("perfbench-query"));
    let serving = Serving::start(server);
    let pool0 = pool::stats();
    let traced = tcp_pass(serving.addr, &plan, out, Some(&mut trace));
    let pool1 = pool::stats();
    serving.stop();

    // The in-process passes run twice, the second into a throwaway trace,
    // so every exact count below is taken twice.
    let counts = proto_pass(&base, &plan, &mut trace);
    let counts_again = proto_pass(&base, &plan, &mut Trace::new());
    let e = engine_pass(&base, &plan, &mut trace);
    let e_again = engine_pass(&base, &plan, &mut Trace::new());
    note_regimes(&plan, &e.served, out);
    let (pairs_scored, candidates) = kernel_pass(&base, &e.work, &mut trace);
    let ann_topk = e.ann;

    let n = plan.timed.len() as f64;
    let tcp = per_req_us(trace.named("tcp"));
    let proto = per_req_us(trace.named("proto"));
    let engine = per_req_us(trace.named("engine"));
    out.metric("server.self_us", stats::median(&self_us(&tcp, &proto)));
    out.metric("proto.self_us", stats::median(&self_us(&proto, &engine)));
    out.metric(
        "proto.allocs_per_req",
        (counts.allocs - e.allocs) as f64 / n,
    );
    // Engine spans grouped by what served them: the op, and for `top_k`
    // the regime its mode and ANN counters show.
    let class = |i: usize| match (&plan.timed[i].read, e.served[i]) {
        (Read::Score(..), _) => Some("score"),
        (Read::Batch(_), _) => Some("batch"),
        (_, regime) => regime,
    };
    for (kind, metric) in [
        ("score", "engine.score_us"),
        ("batch", "engine.batch_us"),
        ("exact", "engine.topk_exact_us"),
        ("scan", "engine.topk_scan_us"),
        ("beam", "engine.topk_beam_us"),
    ] {
        let v: Vec<f64> = trace
            .named("engine")
            .filter(|s| class(s.req as usize) == Some(kind))
            .map(|s| s.us())
            .collect();
        out.metric(metric, if v.is_empty() { 0.0 } else { stats::median(&v) });
    }
    let [hits, misses, visited, _, rescored] = counts.counters;
    out.metric(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let kernel_ns: f64 = trace.us_of("kernel").iter().sum::<f64>() * 1e3;
    out.metric("kernel.ns_per_pair", kernel_ns / pairs_scored.max(1) as f64);
    let grid = trace.us_of("grid");
    out.metric(
        "grid.within_radius_us",
        if grid.is_empty() {
            0.0
        } else {
            stats::median(&grid)
        },
    );
    out.metric("grid.candidates_per_topk", stats::mean(&candidates));
    let ann = ann_topk.max(1) as f64;
    out.metric("ann.visited_per_topk", visited as f64 / ann);
    out.metric("ann.rescored_per_topk", rescored as f64 / ann);
    out.metric(
        "ann.kept_ratio",
        (K * ann_topk) as f64 / rescored.max(1) as f64,
    );
    let sealed = base.ann.as_ref().map_or(base.n_pois(), |a| a.len());
    out.metric("ann.delta_rows", (base.n_pois() - sealed) as f64);
    out.metric("pool.parallel_runs_per_op", counts.pool_runs as f64 / n);
    // A share of time, not an exact count: taken from the traced TCP pass.
    out.metric(
        "pool.worker_share",
        pool1.worker_share_since(&pool0).unwrap_or(0.0),
    );
    let base_p50 = stats::Latency::of(&untraced.lat_us).p50;
    let traced_p50 = stats::Latency::of(&traced.lat_us).p50;
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced_p50 - base_p50) / base_p50,
    );

    let mut differ = Vec::new();
    if counts != counts_again {
        differ.push(format!("protocol pass {counts:?} vs {counts_again:?}"));
    }
    if (e.allocs, e.counters) != (e_again.allocs, e_again.counters) || e.served != e_again.served {
        differ.push(format!(
            "engine pass allocs {} counters {:?} vs allocs {} counters {:?}",
            e.allocs, e.counters, e_again.allocs, e_again.counters
        ));
    }
    common::note_repeat(out, &differ);
    out.note(
        "p50_us",
        format!("untraced {base_p50:.2}, traced {traced_p50:.2}"),
    );
    common::write_trace(out, &trace, "query", args.seed);
    common::remove_work_dir(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn city() -> (Vec<Location>, Vec<String>) {
        let ds = fixture::city();
        let locs = (0..ds.graph.num_pois())
            .map(|i| ds.graph.poi(PoiId(i as u32)).location)
            .collect();
        (locs, ds.relation_names)
    }

    #[test]
    fn request_sequence_is_identical_for_a_seed() {
        let (locs, names) = city();
        let a = plan(5, &locs, &names, 3000);
        let b = plan(5, &locs, &names, 3000);
        assert_eq!(a.warmup, b.warmup);
        assert_eq!(a.timed, b.timed);
        let c = plan(6, &locs, &names, 3000);
        assert_ne!(a.timed, c.timed, "another seed gives another sequence");
    }

    #[test]
    fn every_regime_and_op_kind_is_planned() {
        let (locs, names) = city();
        let p = plan(5, &locs, &names, 3000);
        let grid = serve_grid(&locs);
        let opts = AnnOpts::default();
        let mut kinds = HashSet::new();
        for r in &p.timed {
            kinds.insert(r.kind());
            if let Read::TopK { src, radius_km, .. } = r.read {
                let regime = Regime::of(&grid, &opts, src as usize, radius_km);
                assert_eq!(Some(regime), r.regime);
            }
        }
        assert_eq!(kinds.len(), 5, "{kinds:?}");
        assert!(p.timed.iter().any(|r| r.verify));
    }

    /// The op mix follows the load generator's weights, and `top_k` is
    /// split evenly over the three regimes.
    #[test]
    fn op_mix_follows_the_shares() {
        let (locs, names) = city();
        let p = plan(5, &locs, &names, 30_000);
        let share = |kinds: &[&str]| {
            p.timed.iter().filter(|r| kinds.contains(&r.kind())).count() as f64
                / p.timed.len() as f64
        };
        assert!((share(&["score"]) - SCORE_SHARE).abs() < 0.01);
        assert!((share(&["batch"]) - BATCH_SHARE).abs() < 0.01);
        let topk = 1.0 - SCORE_SHARE - BATCH_SHARE;
        for kind in ["topk_exact", "topk_scan", "topk_beam"] {
            assert!((share(&[kind]) - topk / 3.0).abs() < 0.01, "{kind}");
        }
    }
}
