//! `onboard`: writes beside reads on a replicated ingest tenant.
//!
//! Each cycle onboards one POI next to an existing storefront (`add_poi`),
//! wires it to its spatial neighbours (`add_edge`, and now and then a
//! `retire_poi` elsewhere), publishes it (`ingest_flush`), then sends a
//! burst of reads around recent onboardings, one of them a verifying
//! exact `top_k` that must list the new POI.

use crate::common::{self, LineClient, Meter, Outcome, Rng, Serving};
use crate::read::{
    listed_pois, serve_counters, serve_counters_since, served_regime, Read, BATCH_SHARE,
    SCORE_SHARE,
};
use crate::trace::{per_req_us, self_us, Trace};
use crate::{alloc, fixture, procfs, stats, Args};
use prim_core::PrimConfig;
use prim_data::Dataset;
use prim_geo::{GridIndex, Location};
use prim_graph::PoiId;
use prim_ingest::{CityIngest, IngestOpts, Mutation, MutationWal};
use prim_obs::{Counter, Recorder};
use prim_serve::{
    handle_request_gated, load_checkpoint, EmbeddingStore, EngineOpts, EngineSlot, IngestBackend,
    RealIo, ServeCtx, ServeEngine, TcpServer, TenantSpec,
};
use prim_tensor::pool;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Timed cycles per second of `--seconds` (one cycle takes about a fifth
/// of a second on a 2-vCPU host). The count is fixed by the argument.
const CYCLES_PER_SEC: usize = 14;
/// Untimed cycles run first, the same in every run.
const WARMUP_CYCLES: usize = 4;
/// Reads per cycle: enough that reads are a visible share of a cycle's
/// CPU next to the flush.
const READS_PER_CYCLE: usize = 160;
/// Every this many cycles, one base POI is retired.
const RETIRE_EVERY: usize = 8;
/// Edges wired from each onboarded POI.
const EDGES_PER_POI: usize = 3;
/// Onboarded POIs the reads centre on.
const RECENT: usize = 8;
/// Tenant name requests route on.
pub const CITY: &str = "metro";
const READ_RADIUS_KM: f64 = 2.0;
const BEAM_RADIUS_KM: f64 = 150.0;
/// The verifying `top_k` radius: newcomers sit within 100 m of their anchor.
const VERIFY_RADIUS_KM: f64 = 0.5;

#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    Mutate(Mutation),
    Flush,
    /// A read; `verify_poi` names a POI the response must list.
    Read {
        op: Read,
        verify_poi: Option<u32>,
    },
}

#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub step: Step,
    pub line: String,
}

/// One onboarding: the requests from `add_poi` to the `ingest_flush` ack,
/// then the reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Cycle {
    pub writes: Vec<Request>,
    pub reads: Vec<Request>,
    pub new_poi: u32,
    /// The base POI the new one is placed beside.
    pub anchor: u32,
}

pub struct Plan {
    pub n0: usize,
    pub warmup: Vec<Cycle>,
    pub timed: Vec<Cycle>,
    /// POIs retired over the whole run.
    pub retired: Vec<u32>,
}

impl Plan {
    pub fn cycles(&self) -> impl Iterator<Item = &Cycle> {
        self.warmup.iter().chain(&self.timed)
    }

    pub fn mutations(&self) -> usize {
        self.cycles()
            .flat_map(|c| &c.writes)
            .filter(|r| matches!(r.step, Step::Mutate(_)))
            .count()
    }
}

pub fn timed_cycles(seconds: u64) -> usize {
    CYCLES_PER_SEC * seconds as usize
}

fn mutation_line(m: &Mutation) -> String {
    match m {
        Mutation::AddPoi {
            location,
            category,
            attrs,
        } => {
            let attrs: Vec<String> = attrs.iter().map(|a| format!("{a}")).collect();
            format!(
                "{{\"op\": \"add_poi\", \"city\": \"{CITY}\", \"lon\": {}, \"lat\": {}, \
                 \"category\": {category}, \"attrs\": [{}]}}",
                location.lon,
                location.lat,
                attrs.join(", ")
            )
        }
        Mutation::AddEdge { src, dst, relation } => format!(
            "{{\"op\": \"add_edge\", \"city\": \"{CITY}\", \"src\": {src}, \"dst\": {dst}, \
             \"relation\": {relation}}}"
        ),
        Mutation::RetirePoi { poi } => {
            format!("{{\"op\": \"retire_poi\", \"city\": \"{CITY}\", \"poi\": {poi}}}")
        }
    }
}

/// Per POI, the size of the set an onboarding beside it (or its
/// retirement) makes the pipeline re-embed, estimated on the base city as
/// `prim-ingest` computes it: the POI's spatial ball, grown `n_layers`
/// relational hops, then the spatial ball of everything reached.
fn frontier_sizes(ds: &Dataset, grid: &GridIndex) -> Vec<usize> {
    let cfg = PrimConfig::quick();
    let n = ds.graph.num_pois();
    let balls: Vec<Vec<u32>> = (0..n)
        .map(|i| {
            grid.within_radius(i, cfg.spatial_radius_km)
                .into_iter()
                .map(|(j, _)| j as u32)
                .collect()
        })
        .collect();
    let mut nbrs: Vec<Vec<u32>> = vec![Vec::new(); n];
    for e in ds.graph.edges() {
        nbrs[e.src.0 as usize].push(e.dst.0);
        nbrs[e.dst.0 as usize].push(e.src.0);
    }
    // `hop[i] == a` and `target[i] == a` mark membership for POI `a`.
    let (mut hop, mut target) = (vec![usize::MAX; n], vec![usize::MAX; n]);
    (0..n)
        .map(|a| {
            let mut reached: Vec<u32> = std::iter::once(a as u32)
                .chain(balls[a].iter().copied())
                .collect();
            reached.iter().for_each(|&v| hop[v as usize] = a);
            let mut frontier = reached.clone();
            for _ in 0..cfg.n_layers {
                let mut next = Vec::new();
                for &v in &frontier {
                    for &u in &nbrs[v as usize] {
                        if hop[u as usize] != a {
                            hop[u as usize] = a;
                            next.push(u);
                        }
                    }
                }
                reached.extend(&next);
                frontier = next;
            }
            let mut size = 0;
            for &v in &reached {
                for &u in std::iter::once(&v).chain(&balls[v as usize]) {
                    if target[u as usize] != a {
                        target[u as usize] = a;
                        size += 1;
                    }
                }
            }
            size
        })
        .collect()
}

/// Seed of the warm-up cycles' own generator. The warm-up is the same in
/// every run, so the pipeline's first publishes, far heavier than later
/// ones (see README.md), do the same work whatever `--seed` is.
const WARMUP_SEED: u64 = 0x7761_726d_7570;

/// Builds every cycle's requests from the seed and the base city alone.
pub fn plan(seed: u64, ds: &Dataset, n_timed: usize) -> Plan {
    let n0 = ds.graph.num_pois();
    let locations: Vec<Location> = (0..n0)
        .map(|i| ds.graph.poi(PoiId(i as u32)).location)
        .collect();
    let grid = GridIndex::build(&locations, PrimConfig::quick().spatial_radius_km.max(0.1));
    let n_cycles = WARMUP_CYCLES + n_timed;
    let relations = &ds.relation_names;

    // Every POI ranked by the re-embedding work an onboarding beside it
    // (or its retirement) causes.
    let mut by_frontier: Vec<(usize, u32)> = frontier_sizes(ds, &grid)
        .into_iter()
        .enumerate()
        .map(|(i, f)| (f, i as u32))
        .collect();
    by_frontier.sort_unstable();
    let ranked: Vec<u32> = by_frontier.iter().map(|&(_, i)| i).collect();
    // The neighbours an onboarding beside `a` is wired to: the nearest
    // POIs that are not in `skip`.
    let neighbours = |a: u32, skip: &HashSet<u32>| -> Vec<u32> {
        grid.within_radius(a as usize, READ_RADIUS_KM)
            .into_iter()
            .map(|(j, _)| j as u32)
            .filter(|j| !skip.contains(j))
            .take(EDGES_PER_POI - 1)
            .collect()
    };

    // The warm-up onboards beside POIs spread evenly over the ranks up to
    // the largest frontier (each the highest-ranked below its quantile
    // with a full set of neighbours), so the pipeline has made its largest
    // allocations before the timed cycles, as a long-running primary has.
    // Neither these POIs nor their neighbours are ever retired, so the
    // warm-up does not depend on the seed.
    let none = HashSet::new();
    let mut warmup_anchors: Vec<u32> = Vec::with_capacity(WARMUP_CYCLES);
    for c in 1..=WARMUP_CYCLES {
        let below = ranked.len() * c / WARMUP_CYCLES;
        let a = ranked[..below]
            .iter()
            .rev()
            .copied()
            .find(|&a| {
                !warmup_anchors.contains(&a) && neighbours(a, &none).len() == EDGES_PER_POI - 1
            })
            .expect("a warm-up anchor with a full set of neighbours");
        warmup_anchors.push(a);
    }
    let kept: HashSet<u32> = warmup_anchors
        .iter()
        .flat_map(|&a| std::iter::once(a).chain(neighbours(a, &none)))
        .collect();

    // Timed anchors and retirement targets are spread evenly over every
    // rank (systematic sampling from a seeded offset), so every seed
    // onboards into the same mix of small and large frontiers.
    let mut rng = Rng::new(seed ^ 0x006f_6e62_6f61_7264);
    let spread = |rng: &mut Rng, pool: &[u32], k: usize| -> Vec<u32> {
        let u = rng.unit();
        let mut picks: Vec<u32> = (0..k)
            .map(|c| pool[((c as f64 + u) / k as f64 * pool.len() as f64) as usize])
            .collect();
        for i in (1..picks.len()).rev() {
            picks.swap(i, rng.below(i + 1));
        }
        picks
    };
    // Retirement targets are reserved up front, so no anchor or edge ever
    // touches a POI that is (or will be) retired.
    let retirable: Vec<u32> = ranked
        .iter()
        .copied()
        .filter(|a| !kept.contains(a))
        .collect();
    let to_retire = spread(&mut rng, &retirable, n_cycles / RETIRE_EVERY);
    let reserved: HashSet<u32> = to_retire.iter().copied().collect();
    let eligible: Vec<u32> = ranked
        .iter()
        .copied()
        .filter(|a| {
            !reserved.contains(a)
                && !warmup_anchors.contains(a)
                && neighbours(*a, &reserved).len() == EDGES_PER_POI - 1
        })
        .collect();
    let anchors: Vec<u32> = warmup_anchors
        .iter()
        .copied()
        .chain(spread(&mut rng, &eligible, n_timed))
        .collect();

    let mut warmup_rng = Rng::new(WARMUP_SEED);
    let mut recent: Vec<(u32, u32)> = Vec::new(); // (new poi, anchor)
    let mut retired = Vec::new();
    let mut cycles = Vec::with_capacity(n_cycles);
    for (c, &anchor) in anchors.iter().enumerate() {
        let rng = if c < WARMUP_CYCLES {
            &mut warmup_rng
        } else {
            &mut rng
        };
        let new_poi = (n0 + c) as u32;
        let at = locations[anchor as usize];
        let poi = ds.graph.poi(PoiId(anchor));
        let offset = |rng: &mut Rng| (rng.unit() - 0.5) * 1e-3; // ≤ ~55 m
        let add = Mutation::AddPoi {
            location: Location::new(at.lon + offset(rng), at.lat + offset(rng)),
            category: poi.category.0,
            attrs: ds.attrs.row(anchor as usize).to_vec(),
        };
        let mut muts = vec![add];
        let wired = std::iter::once(anchor).chain(neighbours(anchor, &reserved));
        for (i, dst) in wired.enumerate() {
            let relation = rng.below(relations.len()) as u8;
            let (src, dst) = if i % 2 == 0 {
                (new_poi, dst)
            } else {
                (dst, new_poi)
            };
            muts.push(Mutation::AddEdge { src, dst, relation });
        }
        let mut just_retired = None;
        if c % RETIRE_EVERY == RETIRE_EVERY - 1 {
            let poi = to_retire[retired.len()];
            retired.push(poi);
            muts.push(Mutation::RetirePoi { poi });
            just_retired = Some(poi);
        }
        let mut writes: Vec<Request> = muts
            .into_iter()
            .map(|m| Request {
                line: mutation_line(&m),
                step: Step::Mutate(m),
            })
            .collect();
        writes.push(Request {
            step: Step::Flush,
            line: format!("{{\"op\": \"ingest_flush\", \"city\": \"{CITY}\"}}"),
        });

        recent.push((new_poi, anchor));
        if recent.len() > RECENT {
            recent.remove(0);
        }
        let read = |op: Read, verify_poi: Option<u32>| Request {
            line: op.line(Some(CITY), relations),
            step: Step::Read { op, verify_poi },
        };
        let verify = Read::TopK {
            src: anchor,
            radius_km: VERIFY_RADIUS_KM,
            k: 1000,
            relation: rng.below(relations.len()),
            exact: true,
        };
        let mut reads = vec![read(verify, Some(new_poi))];
        // After a retirement, an exact `top_k` from its nearest live
        // neighbour over a radius that covers it: the check that no
        // `top_k` lists a retired POI then has a read that would.
        let watcher = just_retired.and_then(|poi| {
            grid.within_radius(poi as usize, VERIFY_RADIUS_KM)
                .into_iter()
                .map(|(j, _)| j as u32)
                .find(|j| !reserved.contains(j))
        });
        if let Some(src) = watcher {
            let watch = Read::TopK {
                src,
                radius_km: 2.0 * VERIFY_RADIUS_KM,
                k: 1000,
                relation: rng.below(relations.len()),
                exact: true,
            };
            reads.push(read(watch, None));
        }
        // Pairs around recent onboardings: the newcomer and its anchor's
        // neighbourhood.
        let near = |rng: &mut Rng, recent: &[(u32, u32)]| -> (u32, u32) {
            let (p, a) = recent[rng.below(recent.len())];
            let nb = grid.within_radius(a as usize, READ_RADIUS_KM);
            let q = if nb.is_empty() || rng.unit() < 0.25 {
                a
            } else {
                nb[rng.below(nb.len())].0 as u32
            };
            if rng.unit() < 0.5 {
                (p, q)
            } else {
                (q, p)
            }
        };
        while reads.len() < READS_PER_CYCLE {
            let u = rng.unit();
            let op = if u < SCORE_SHARE {
                let (a, b) = near(rng, &recent);
                Read::Score(a, b)
            } else if u < SCORE_SHARE + BATCH_SHARE {
                Read::Batch((0..16).map(|_| near(rng, &recent)).collect())
            } else {
                Read::TopK {
                    src: recent[rng.below(recent.len())].0,
                    radius_km: [READ_RADIUS_KM, BEAM_RADIUS_KM][rng.below(2)],
                    k: 10,
                    relation: rng.below(relations.len()),
                    exact: false,
                }
            };
            reads.push(read(op, None));
        }
        cycles.push(Cycle {
            writes,
            reads,
            new_poi,
            anchor,
        });
    }
    let timed = cycles.split_off(WARMUP_CYCLES);
    Plan {
        n0,
        warmup: cycles,
        timed,
        retired,
    }
}

/// A replicated ingest tenant over the checkpoint, opened as the
/// repository's failover primary opens it. `wal` and `snapshots` must be
/// fresh directories.
fn pipeline(
    ckpt: &Path,
    wal: &Path,
    snapshots: &Path,
    recorder: Recorder,
) -> (ServeCtx, Arc<CityIngest>) {
    let ckpt = load_checkpoint(ckpt).expect("fixture checkpoint loads");
    let store = EmbeddingStore::from_checkpoint(&ckpt).expect("store builds");
    let engine = Arc::new(ServeEngine::new(store, &EngineOpts::default(), recorder));
    let slot = EngineSlot::new(Arc::clone(&engine));
    let ingest = CityIngest::open_replicated(
        Some(ckpt),
        wal,
        snapshots,
        Arc::new(RealIo),
        Arc::clone(&slot),
        EngineOpts::default(),
        IngestOpts::default(),
    )
    .expect("ingest pipeline opens");
    let ctx = ServeCtx::multi(vec![TenantSpec::new(CITY, engine)
        .with_slot(slot)
        .with_ingest(Arc::clone(&ingest) as Arc<dyn IngestBackend>)]);
    (ctx, ingest)
}

/// The ingest tenant plus a bound server: the set-up an onboarding
/// primary pays before its first request.
fn bring_up(ckpt: &Path, wal: &Path, snapshots: &Path, recorder: Recorder) -> Primary {
    let (ctx, ingest) = pipeline(ckpt, wal, snapshots, recorder);
    let server = TcpServer::bind("127.0.0.1:0", ctx).expect("server binds");
    Primary { server, ingest }
}

pub struct Primary {
    server: TcpServer,
    ingest: Arc<CityIngest>,
}

impl Primary {
    fn serve(self) -> (Serving, Arc<CityIngest>) {
        (Serving::start(self.server), self.ingest)
    }
}

/// Checks one response against what the plan expects of it, given the
/// POIs retired so far. Returns a reason when it is wrong.
fn check(req: &Request, resp: &str, n_pois: usize, retired: &HashSet<u32>) -> Result<(), String> {
    if !resp.starts_with("{\"ok\": true") {
        return Err(format!("{} -> {resp}", req.line));
    }
    match &req.step {
        Step::Mutate(Mutation::AddPoi { .. }) => {
            let want = format!("\"poi\": {}", n_pois);
            if !resp.contains(&want) {
                return Err(format!("add_poi expected {want}: {resp}"));
            }
        }
        Step::Mutate(_) => {}
        Step::Flush => {
            let want = format!("\"staged\": 0, \"n_pois\": {}", n_pois);
            if !resp.contains(&want) {
                return Err(format!("flush expected {want}: {resp}"));
            }
        }
        Step::Read { op, verify_poi } => {
            if let Read::TopK { .. } = op {
                let listed = listed_pois(resp);
                if let Some(p) = listed.iter().find(|p| retired.contains(p)) {
                    return Err(format!("retired POI {p} served: {}", req.line));
                }
                if let Some(p) = verify_poi {
                    if !listed.contains(p) {
                        return Err(format!("onboarded POI {p} missing: {}", req.line));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Span request id of the `j`-th request (writes, then reads) of timed
/// cycle `i`.
fn req_id(i: usize, j: usize) -> u64 {
    (i * 1000 + j) as u64
}

/// Per-cycle timings of a TCP pass.
pub struct TcpPass {
    /// `add_poi` sent to `ingest_flush` acknowledged, per timed cycle (ms).
    pub visible_ms: Vec<f64>,
    /// Wall time of each read (µs), timed cycles only.
    pub read_us: Vec<f64>,
    pub metered: common::Metered,
    pub failed_cycles: usize,
}

/// Drives every cycle over one connection, the untimed warm-up first;
/// counts a cycle failed when any of its responses is wrong.
pub fn tcp_pass(
    addr: std::net::SocketAddr,
    plan: &Plan,
    out: &mut Outcome,
    mut trace: Option<&mut Trace>,
) -> TcpPass {
    let mut client = LineClient::connect(addr).expect("client connects");
    let mut retired = HashSet::new();
    let mut n_pois = plan.n0;
    let mut run_cycle = |c: &Cycle,
                         client: &mut LineClient,
                         out: &mut Outcome,
                         read_us: &mut Vec<f64>,
                         mut trace: Option<(&mut Trace, u64)>|
     -> (f64, bool) {
        let mut ok = true;
        let t = Instant::now();
        for (j, req) in c.writes.iter().enumerate() {
            let t_req = Instant::now();
            let resp = client.call(&req.line).expect("write response");
            if let Some((trace, id)) = trace.as_mut() {
                trace.record("tcp", *id + j as u64, None, t_req, Instant::now(), 0);
            }
            if let Step::Mutate(Mutation::RetirePoi { poi }) = &req.step {
                retired.insert(*poi);
            }
            if let Err(e) = check(req, resp, n_pois, &retired) {
                out.error(e);
                ok = false;
            }
            if let Step::Mutate(Mutation::AddPoi { .. }) = req.step {
                n_pois += 1;
            }
        }
        let visible_ms = t.elapsed().as_secs_f64() * 1e3;
        for (j, req) in c.reads.iter().enumerate() {
            let t = Instant::now();
            let resp = client.call(&req.line).expect("read response");
            let end = Instant::now();
            read_us.push((end - t).as_secs_f64() * 1e6);
            if let Some((trace, id)) = trace.as_mut() {
                trace.record("tcp", *id + (c.writes.len() + j) as u64, None, t, end, 0);
            }
            if let Err(e) = check(req, resp, n_pois, &retired) {
                out.error(e);
                ok = false;
            }
        }
        (visible_ms, ok)
    };
    let mut visible_ms = Vec::with_capacity(plan.timed.len());
    let mut read_us = Vec::with_capacity(plan.timed.len() * READS_PER_CYCLE);
    for (i, c) in plan.warmup.iter().enumerate() {
        if !run_cycle(c, &mut client, out, &mut read_us, None).1 {
            out.fail(format!("warm-up cycle {i} had a wrong response"));
        }
    }
    read_us.clear();
    let mut failed_cycles = 0;
    let meter = Meter::start();
    for (i, c) in plan.timed.iter().enumerate() {
        let traced = trace.as_deref_mut().map(|t| (t, req_id(i, 0)));
        let (ms, ok) = run_cycle(c, &mut client, out, &mut read_us, traced);
        visible_ms.push(ms);
        failed_cycles += usize::from(!ok);
    }
    let metered = meter.finish(true);
    TcpPass {
        visible_ms,
        read_us,
        metered,
        failed_cycles,
    }
}

/// Compares the pipeline's final status with the plan.
fn check_status(ingest: &CityIngest, plan: &Plan, out: &mut Outcome) {
    let status = ingest.status();
    let onboarded = plan.warmup.len() + plan.timed.len();
    if status.staged != 0
        || status.applied != plan.mutations() as u64
        || status.n_pois != plan.n0 + onboarded
    {
        out.fail(format!(
            "final ingest_status staged {} applied {} n_pois {}, expected 0, {}, {}",
            status.staged,
            status.applied,
            status.n_pois,
            plan.mutations(),
            plan.n0 + onboarded
        ));
    }
}

pub struct Prepared {
    pub plan: Plan,
    pub ckpt: PathBuf,
    pub dir: PathBuf,
}

pub fn prepare(args: &Args) -> Prepared {
    let dir = common::work_dir("onboard");
    let ds = fixture::city();
    let ckpt = dir.join("city.ckpt");
    fixture::write_checkpoint(&ds, &ckpt);
    let plan = plan(args.seed, &ds, timed_cycles(args.seconds));
    Prepared { plan, ckpt, dir }
}

/// WAL and snapshot directories for one pipeline under the work directory
/// (`tag` is unique per pipeline of a run, so they start empty).
fn fresh_dirs(dir: &Path, tag: &str) -> (PathBuf, PathBuf) {
    (
        dir.join(format!("{tag}.wal")),
        dir.join(format!("{tag}.snap")),
    )
}

pub fn run(args: &Args, out: &mut Outcome) {
    let p = prepare(args);
    let mut rep = 0;
    let mut bring_up_fresh = || {
        rep += 1;
        let (wal, snap) = fresh_dirs(&p.dir, &format!("rep{rep}"));
        bring_up(&p.ckpt, &wal, &snap, Recorder::disabled())
    };
    let mut setup = Vec::new();
    let primary = common::timed_setup(crate::SETUP_REPS_EACH_SIDE, &mut setup, &mut bring_up_fresh);
    let (serving, ingest) = primary.serve();
    let pass = tcp_pass(serving.addr, &p.plan, out, None);
    serving.stop();
    check_status(&ingest, &p.plan, out);
    drop(ingest);
    // Peak memory of the set-up and the served work, before the set-up
    // repetitions that follow it.
    let rss_mb = procfs::vm_hwm_mb();
    drop(common::timed_setup(
        crate::SETUP_REPS_EACH_SIDE,
        &mut setup,
        &mut bring_up_fresh,
    ));
    out.attempted = p.plan.timed.len() as u64;
    out.failed += pass.failed_cycles as u64;

    let lat = stats::Latency::of(&pass.visible_ms);
    let cycles = pass.visible_ms.len().max(1) as f64;
    out.metric("setup_s", stats::median(&setup));
    out.metric("rss_mb", rss_mb);
    out.metric("p50_ms", lat.p50);
    out.metric(
        "cpu_ms_per_op",
        pass.metered.program_cpu.as_secs_f64() * 1e3 / cycles,
    );
    let read = stats::Latency::of(&pass.read_us);
    out.note("setup", common::describe_setup(&setup));
    out.note(
        "cycles",
        format!(
            "{} timed after {} warm-up",
            p.plan.timed.len(),
            p.plan.warmup.len()
        ),
    );
    out.note("p99_ms", format!("{:.4}", lat.p99));
    out.note(
        "p99_samples",
        format!("{} of {} beyond", lat.beyond_p99, lat.n),
    );
    out.note(
        "cycles_per_s",
        format!("{:.2}", cycles / pass.metered.wall.as_secs_f64()),
    );
    out.note(
        "read_us",
        format!(
            "p50 {:.1}, mean {:.1}, p99 {:.1}",
            read.p50,
            stats::mean(&pass.read_us),
            read.p99
        ),
    );
    out.note("timed_phase", pass.metered.describe());
    out.note("retired", p.plan.retired.len());
    common::remove_work_dir(&p.dir);
}

/// Exact per-flush counts of one in-process pass.
#[derive(Debug, Default, PartialEq)]
struct FlushCounts {
    targets: Vec<u64>,
    support: Vec<u64>,
    snapshots: u64,
    segments_pruned: u64,
    pool_runs: u64,
}

fn last(rec: &Recorder, key: &str) -> f64 {
    rec.scalar_summary(key).map_or(0.0, |s| s.last)
}

/// Reads the ingest recorder after a flush into `counts`; returns its
/// apply time (ms).
fn note_flush(rec: &Recorder, counts: &mut FlushCounts) -> f64 {
    counts
        .targets
        .push(last(rec, "ingest/apply_targets") as u64);
    counts
        .support
        .push(last(rec, "ingest/apply_support") as u64);
    last(rec, "ingest/apply_ms")
}

fn finish_counts(rec: &Recorder, counts: &mut FlushCounts, pool0: &pool::PoolStats) {
    counts.snapshots = rec.counter(Counter::IngestSnapshots);
    counts.segments_pruned = rec.counter(Counter::WalSegmentsPruned);
    counts.pool_runs = pool::stats().parallel_runs_since(pool0);
}

/// Pass 2: every request through `handle_request_gated`, no TCP, each a
/// `proto` span with its allocations counted. Returns the flush counts
/// and the allocations inside the spans.
fn proto_pass(p: &Prepared, tag: &str, trace: &mut Trace) -> (FlushCounts, u64) {
    let (wal, snap) = fresh_dirs(&p.dir, tag);
    let recorder = Recorder::enabled("perfbench-onboard");
    let (ctx, _ingest) = pipeline(&p.ckpt, &wal, &snap, recorder.clone());
    for c in &p.plan.warmup {
        for req in c.writes.iter().chain(&c.reads) {
            drop(handle_request_gated(&ctx, &req.line, None));
        }
    }
    let mut counts = FlushCounts::default();
    let pool0 = pool::stats();
    let allocs0 = alloc::total();
    for (i, c) in p.plan.timed.iter().enumerate() {
        for (j, req) in c.writes.iter().chain(&c.reads).enumerate() {
            let handled = trace.time_counted("proto", req_id(i, j), None, || {
                handle_request_gated(&ctx, &req.line, None)
            });
            drop(handled);
            if req.step == Step::Flush {
                note_flush(&recorder, &mut counts);
            }
        }
    }
    let allocs = alloc::total() - allocs0;
    finish_counts(&recorder, &mut counts, &pool0);
    (counts, allocs)
}

/// Engine metric a read's `direct` span counts towards: the op, and for
/// `top_k` the regime its mode and ANN counters show (`None` if neither).
fn read_kind(op: &Read, mode: Option<&str>, moved: [u64; 5]) -> Option<&'static str> {
    match (op, mode) {
        (Read::Score(..), _) => Some("engine.score_us"),
        (Read::Batch(_), _) => Some("engine.batch_us"),
        (_, Some(mode)) => match served_regime(mode, moved)? {
            "exact" => Some("engine.topk_exact_us"),
            "scan" => Some("engine.topk_scan_us"),
            _ => Some("engine.topk_beam_us"),
        },
        _ => None,
    }
}

/// Pass 3: one layer lower — `CityIngest::stage` and `flush` for writes,
/// the engine's calls for reads — each a `direct` span.
struct DirectPass {
    counts: FlushCounts,
    flush_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    frontier: Vec<f64>,
    stage_us: Vec<f64>,
    read_kinds: Vec<(Option<&'static str>, f64)>,
    serve: [u64; 5],
    /// Allocations inside the pass's spans.
    allocs: u64,
    ann_topk: usize,
    reseals: u64,
    delta_rows: usize,
    snapshot_mb: f64,
}

/// Duration (µs) of the span just recorded.
fn last_us(trace: &Trace) -> f64 {
    trace.spans().last().map_or(0.0, |s| s.us())
}

fn direct_pass(p: &Prepared, tag: &str, trace: &mut Trace) -> DirectPass {
    let (wal, snap) = fresh_dirs(&p.dir, tag);
    let recorder = Recorder::enabled("perfbench-onboard");
    let (_ctx, ingest) = pipeline(&p.ckpt, &wal, &snap, recorder.clone());
    let run = |c: &Cycle| {
        for req in c.writes.iter().chain(&c.reads) {
            match &req.step {
                Step::Mutate(m) => drop(ingest.stage(m.clone())),
                Step::Flush => drop(ingest.flush()),
                Step::Read { op, .. } => drop(op.call(&ingest.slot().get())),
            }
        }
    };
    p.plan.warmup.iter().for_each(run);
    let serve0 = serve_counters(&recorder);
    let pool0 = pool::stats();
    let mut d = DirectPass {
        counts: FlushCounts::default(),
        flush_ms: Vec::new(),
        apply_ms: Vec::new(),
        frontier: Vec::new(),
        stage_us: Vec::new(),
        read_kinds: Vec::new(),
        serve: [0; 5],
        allocs: 0,
        ann_topk: 0,
        reseals: 0,
        delta_rows: 0,
        snapshot_mb: 0.0,
    };
    let mut n_pois = p.plan.n0 + p.plan.warmup.len();
    let allocs0 = alloc::total();
    for (i, c) in p.plan.timed.iter().enumerate() {
        for (j, req) in c.writes.iter().chain(&c.reads).enumerate() {
            let id = req_id(i, j);
            match &req.step {
                Step::Mutate(m) => {
                    let m = m.clone();
                    let staged = trace.time_counted("direct", id, None, || ingest.stage(m));
                    staged.expect("stage accepts the planned mutation");
                    d.stage_us.push(last_us(trace));
                }
                Step::Flush => {
                    n_pois += 1;
                    trace.time_counted("direct", id, None, || ingest.flush());
                    d.flush_ms.push(last_us(trace) / 1e3);
                    let apply = note_flush(&recorder, &mut d.counts);
                    d.apply_ms.push(apply);
                    d.frontier
                        .push(*d.counts.targets.last().unwrap() as f64 / n_pois as f64);
                }
                Step::Read { op, .. } => {
                    let engine = ingest.slot().get();
                    let c0 = serve_counters(&recorder);
                    let served = trace.time_counted("direct", id, None, || op.call(&engine));
                    let moved = serve_counters_since(&recorder, c0);
                    d.ann_topk += usize::from(served.mode() == Some("ann"));
                    let kind = read_kind(op, served.mode(), moved);
                    d.read_kinds.push((kind, last_us(trace)));
                }
            }
        }
    }
    d.allocs = alloc::total() - allocs0;
    finish_counts(&recorder, &mut d.counts, &pool0);
    d.serve = serve_counters_since(&recorder, serve0);
    d.reseals = recorder
        .scalar_summary("ingest/reseals")
        .map_or(0, |s| s.count);
    d.delta_rows = ingest.status().delta_rows;
    d.snapshot_mb = std::fs::read_dir(&snap)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0) as f64
        / (1024.0 * 1024.0);
    d
}

/// Pass 4: `MutationWal::append` (fsync included) on a scratch WAL fed
/// the timed cycles' mutation records, each a `wal` span. Returns the
/// log's bytes per record.
fn wal_pass(p: &Prepared, trace: &mut Trace) -> f64 {
    let dir = p.dir.join("scratch.wal");
    let mut wal = MutationWal::open(Arc::new(RealIo), &dir).expect("scratch WAL opens");
    let mut n = 0u64;
    for (i, c) in p.plan.timed.iter().enumerate() {
        for (j, req) in c.writes.iter().enumerate() {
            if let Step::Mutate(m) = &req.step {
                trace.time("wal", req_id(i, j), None, || wal.append(m).expect("append"));
                n += 1;
            }
        }
    }
    wal.bytes() as f64 / n.max(1) as f64
}

/// Traced run. The cycles are replayed once per layer boundary, each pass
/// on a fresh pipeline: TCP untraced (the overhead baseline), TCP,
/// `handle_request_gated`, then `CityIngest::stage`/`flush` and the
/// engine's read calls (the last two passes twice each, to check their
/// exact counts repeat); a scratch WAL times appends alone.
pub fn run_traced(args: &Args, out: &mut Outcome) {
    let p = prepare(args);
    common::store_layers(&p.ckpt, out);
    let (wal, snap) = fresh_dirs(&p.dir, "untraced");
    let (serving, ingest) = bring_up(&p.ckpt, &wal, &snap, Recorder::disabled()).serve();
    let untraced = tcp_pass(serving.addr, &p.plan, out, None);
    serving.stop();
    check_status(&ingest, &p.plan, out);
    drop(ingest);

    let mut trace = Trace::new();
    let (wal, snap) = fresh_dirs(&p.dir, "traced");
    let primary = bring_up(&p.ckpt, &wal, &snap, Recorder::enabled("perfbench-onboard"));
    let (serving, ingest) = primary.serve();
    let pool0 = pool::stats();
    let traced = tcp_pass(serving.addr, &p.plan, out, Some(&mut trace));
    let pool1 = pool::stats();
    serving.stop();
    check_status(&ingest, &p.plan, out);
    drop(ingest);
    out.attempted = p.plan.timed.len() as u64;
    out.failed += (untraced.failed_cycles + traced.failed_cycles) as u64;

    // The in-process passes run twice, the second into a throwaway trace,
    // so every exact count below is taken twice.
    let (proto_counts, proto_allocs) = proto_pass(&p, "proto", &mut trace);
    let proto_again = proto_pass(&p, "proto-again", &mut Trace::new());
    let d = direct_pass(&p, "direct", &mut trace);
    let d_again = direct_pass(&p, "direct-again", &mut Trace::new());
    let wal_bytes = wal_pass(&p, &mut trace);

    let cycles = p.plan.timed.len().max(1) as f64;
    let tcp = per_req_us(trace.named("tcp"));
    let proto = per_req_us(trace.named("proto"));
    let direct = per_req_us(trace.named("direct"));
    out.metric("server.self_us", stats::median(&self_us(&tcp, &proto)));
    out.metric("proto.self_us", stats::median(&self_us(&proto, &direct)));
    out.metric(
        "proto.allocs_per_req",
        (proto_allocs - d.allocs) as f64 / proto.len().max(1) as f64,
    );
    for metric in [
        "engine.score_us",
        "engine.batch_us",
        "engine.topk_exact_us",
        "engine.topk_scan_us",
        "engine.topk_beam_us",
    ] {
        let v: Vec<f64> = d
            .read_kinds
            .iter()
            .filter(|k| k.0 == Some(metric))
            .map(|k| k.1)
            .collect();
        out.metric(metric, if v.is_empty() { 0.0 } else { stats::median(&v) });
    }
    let [hits, misses, visited, _, rescored] = d.serve;
    out.metric(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let ann = d.ann_topk.max(1) as f64;
    out.metric("ann.visited_per_topk", visited as f64 / ann);
    out.metric("ann.rescored_per_topk", rescored as f64 / ann);
    out.metric(
        "ann.kept_ratio",
        (10 * d.ann_topk) as f64 / rescored.max(1) as f64,
    );
    out.metric("ann.delta_rows", d.delta_rows as f64);
    out.metric(
        "pool.parallel_runs_per_op",
        proto_counts.pool_runs as f64 / cycles,
    );
    // A share of time, not an exact count: taken from the traced TCP pass.
    out.metric(
        "pool.worker_share",
        pool1.worker_share_since(&pool0).unwrap_or(0.0),
    );
    let append_us = stats::median(&trace.us_of("wal"));
    out.metric("wal.append_us", append_us);
    out.metric("wal.bytes_per_mutation", wal_bytes);
    out.metric("wal.segments_pruned", d.counts.segments_pruned as f64);
    out.metric(
        "ingest.stage_self_us",
        stats::median(&d.stage_us) - append_us,
    );
    out.metric("ingest.apply_ms", stats::median(&d.apply_ms));
    let as_f64 = |v: &[u64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    out.metric(
        "ingest.targets_per_flush",
        stats::median(&as_f64(&d.counts.targets)),
    );
    out.metric(
        "ingest.support_per_flush",
        stats::median(&as_f64(&d.counts.support)),
    );
    out.metric("ingest.frontier_share", stats::median(&d.frontier));
    out.metric("ingest.reseals", d.reseals as f64);
    let snapshot: Vec<f64> = d
        .flush_ms
        .iter()
        .zip(&d.apply_ms)
        .map(|(f, a)| f - a)
        .collect();
    out.metric("ingest.snapshot_ms", stats::median(&snapshot));
    out.metric("ingest.snapshot_mb", d.snapshot_mb);
    let reads: Vec<f64> = p
        .plan
        .timed
        .iter()
        .enumerate()
        .flat_map(|(i, c)| {
            (c.writes.len()..c.writes.len() + c.reads.len()).map(move |j| req_id(i, j))
        })
        .filter_map(|id| proto.get(&id).copied())
        .collect();
    out.metric("onboard.read_us", stats::median(&reads));
    let base_p50 = stats::median(&untraced.visible_ms);
    let traced_p50 = stats::median(&traced.visible_ms);
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced_p50 - base_p50) / base_p50,
    );

    let mut differ = Vec::new();
    if (&proto_counts, proto_allocs) != (&proto_again.0, proto_again.1) {
        differ.push(format!(
            "protocol pass {proto_counts:?} allocs {proto_allocs} vs {:?} allocs {}",
            proto_again.0, proto_again.1
        ));
    }
    if (&d.counts, d.allocs, d.serve) != (&d_again.counts, d_again.allocs, d_again.serve) {
        differ.push(format!(
            "ingest pass {:?} allocs {} counters {:?} vs {:?} allocs {} counters {:?}",
            d.counts, d.allocs, d.serve, d_again.counts, d_again.allocs, d_again.serve
        ));
    }
    // The same mutations apply the same way through either layer.
    if proto_counts != d.counts {
        differ.push(format!(
            "protocol pass {proto_counts:?} vs ingest pass {:?}",
            d.counts
        ));
    }
    let unclassified = d.read_kinds.iter().filter(|k| k.0.is_none()).count();
    if unclassified > 0 {
        out.note(
            "regimes",
            format!("FLAG, {unclassified} top_k answers had no regime's shape"),
        );
    }
    common::note_repeat(out, &differ);
    out.note(
        "visible_p50_ms",
        format!("untraced {base_p50:.3}, traced {traced_p50:.3}"),
    );
    common::write_trace(out, &trace, "onboard", args.seed);
    common::remove_work_dir(&p.dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sequence_is_identical_for_a_seed() {
        let ds = fixture::city();
        let a = plan(5, &ds, 20);
        let b = plan(5, &ds, 20);
        assert_eq!(a.warmup, b.warmup);
        assert_eq!(a.timed, b.timed);
        assert_eq!(a.retired, b.retired);
        assert_ne!(a.timed, plan(6, &ds, 20).timed);
    }

    #[test]
    fn warm_up_is_the_same_for_every_seed() {
        let ds = fixture::city();
        let (a, b) = (plan(5, &ds, 20), plan(6, &ds, 20));
        assert_eq!(a.warmup, b.warmup);
        assert_eq!(a.warmup.len(), WARMUP_CYCLES);
    }

    /// Timed onboardings land in every tenth of the frontier ranks, the
    /// largest included.
    #[test]
    fn anchors_cover_every_frontier_rank() {
        let ds = fixture::city();
        let locations: Vec<Location> = (0..ds.graph.num_pois())
            .map(|i| ds.graph.poi(PoiId(i as u32)).location)
            .collect();
        let grid = GridIndex::build(&locations, PrimConfig::quick().spatial_radius_km.max(0.1));
        let sizes = frontier_sizes(&ds, &grid);
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let p = plan(5, &ds, 140);
        let mut tenths = [0usize; 10];
        for c in &p.timed {
            let rank = sorted.partition_point(|&f| f < sizes[c.anchor as usize]);
            tenths[(rank * 10 / sorted.len()).min(9)] += 1;
        }
        assert!(tenths.iter().all(|&n| n > 0), "{tenths:?}");
    }

    #[test]
    fn no_mutation_touches_a_retired_poi() {
        let ds = fixture::city();
        let p = plan(5, &ds, 40);
        assert_eq!(p.retired.len(), (WARMUP_CYCLES + 40) / RETIRE_EVERY);
        let retired: HashSet<u32> = p.retired.iter().copied().collect();
        for c in p.cycles() {
            for r in &c.writes {
                if let Step::Mutate(Mutation::AddEdge { src, dst, .. }) = r.step {
                    assert!(!retired.contains(&src) && !retired.contains(&dst));
                }
            }
        }
    }
}
