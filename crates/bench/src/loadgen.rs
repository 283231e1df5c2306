//! Open-loop load generation against a live serve TCP front end.
//!
//! Closed-loop clients (request, wait, request) can never observe latency
//! collapse: when the server slows down, the clients slow down with it and
//! the offered rate politely sags. An *open-loop* generator schedules
//! arrivals from a Poisson process fixed in advance — requests fire at
//! their scheduled instants whether or not earlier ones completed — and
//! measures each response's latency from its **scheduled arrival**, so
//! server backlog shows up as tail latency instead of disappearing into
//! client back-off (the coordinated-omission trap).
//!
//! The generator drives hundreds-to-thousands of connections from one
//! thread with the same nonblocking poller the server uses
//! ([`prim_serve::Poller`]): per-connection write queues, newline framing,
//! FIFO matching of responses to in-flight requests (the JSONL protocol
//! answers in order per connection). Traffic is a weighted mix of `score`,
//! `batch`, `top_k`, `health` and `reload`, optionally spread across named
//! tenant cities discovered from the server's own aggregate `health`
//! response.

use crate::percentile;
use prim_obs::json::{self, Value};
use prim_serve::{Event, Interest, Poller};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One serveable tenant, as discovered from the server's `health` op.
#[derive(Clone, Debug)]
pub struct CityInfo {
    /// Tenant name to route on; `None` on a single-tenant server (requests
    /// omit the `city` field entirely).
    pub name: Option<String>,
    /// POI id space for generating valid `src`/`dst`.
    pub n_pois: u32,
    /// Checkpoint path for `reload` traffic; `None` disables reloads.
    pub ckpt: Option<String>,
}

/// Asks a running server what it serves: tenant names, POI counts and
/// checkpoint paths from `health`, relation names from one probe `score`.
pub fn discover(addr: SocketAddr) -> std::io::Result<(Vec<CityInfo>, Vec<String>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let ask = |stream: &mut TcpStream, req: &str| -> std::io::Result<Value> {
        stream.write_all(req.as_bytes())?;
        stream.write_all(b"\n")?;
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            let n = stream.read(&mut byte)?;
            if n == 0 || byte[0] == b'\n' {
                break;
            }
            line.push(byte[0]);
        }
        let text = String::from_utf8_lossy(&line).to_string();
        json::parse(&text).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e}: {text}"))
        })
    };

    let health = ask(&mut stream, r#"{"op": "health"}"#)?;
    let mut cities = Vec::new();
    if let Some(Value::Arr(tenants)) = health.get("tenants") {
        for t in tenants {
            let name = t.get("city").and_then(|c| c.as_str()).map(String::from);
            let n_pois = t.get("n_pois").and_then(|n| n.as_f64()).unwrap_or(0.0) as u32;
            let ckpt = t
                .get("ckpt")
                .and_then(|c| c.as_str())
                .filter(|s| !s.is_empty())
                .map(String::from);
            cities.push(CityInfo { name, n_pois, ckpt });
        }
    } else {
        let n_pois = health.get("n_pois").and_then(|n| n.as_f64()).unwrap_or(0.0) as u32;
        cities.push(CityInfo {
            name: None,
            n_pois,
            ckpt: None,
        });
    }
    if cities.is_empty() || cities.iter().any(|c| c.n_pois == 0) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unusable health response: {health:?}"),
        ));
    }

    // One probe score reveals the relation names for `top_k` traffic.
    let city_field = cities[0]
        .name
        .as_ref()
        .map(|n| format!(", \"city\": {}", json::str(n)))
        .unwrap_or_default();
    let probe = ask(
        &mut stream,
        &format!("{{\"op\": \"score\", \"src\": 0, \"dst\": 0{city_field}}}"),
    )?;
    let mut relations = Vec::new();
    let scores = probe.get("result").and_then(|r| r.get("scores"));
    if let Some(Value::Arr(scores)) = scores {
        for s in scores {
            if let Some(r) = s.get("relation").and_then(|r| r.as_str()) {
                if r != "phi" {
                    relations.push(r.to_string());
                }
            }
        }
    }
    Ok((cities, relations))
}

/// What to run: where, how many connections, how hard, for how long.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    pub addr: SocketAddr,
    /// Concurrent connections arrivals are spread across.
    pub conns: usize,
    /// Aggregate offered arrival rate (Poisson), requests per second.
    pub rate_hz: f64,
    /// How long arrivals are generated for (the run then drains).
    pub duration: Duration,
    /// How long to wait for stragglers after the last arrival.
    pub drain: Duration,
    /// Tenants to spread traffic over (from [`discover`] or hand-built).
    pub cities: Vec<CityInfo>,
    /// Relation names for `top_k` requests (empty disables `top_k`).
    pub relations: Vec<String>,
    /// RNG seed: same seed, same schedule.
    pub seed: u64,
}

/// What happened: open-loop latency and outcome accounting.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The offered (scheduled) rate, req/s.
    pub offered_rps: f64,
    /// Completed-ok rate over the arrival window, req/s.
    pub achieved_rps: f64,
    /// Requests scheduled and sent.
    pub sent: u64,
    /// Responses with `"ok": true`.
    pub ok: u64,
    /// Structured sheds: `overloaded` or `deadline_exceeded`.
    pub shed: u64,
    /// Any other failure: unexpected error codes, transport errors, and
    /// requests stranded on connections the server closed.
    pub errors: u64,
    /// In-flight requests still unanswered when the drain window closed.
    pub unanswered: u64,
    /// Latency percentiles over ok responses, measured from each
    /// request's *scheduled* arrival (milliseconds).
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
}

impl Report {
    /// Sheds as a fraction of everything the server answered or dropped.
    pub fn shed_rate(&self) -> f64 {
        let denom = (self.ok + self.shed + self.errors + self.unanswered) as f64;
        if denom == 0.0 {
            0.0
        } else {
            (self.shed + self.unanswered) as f64 / denom
        }
    }

    /// One JSON object per load point, for `BENCH_loadtest.json` sections.
    pub fn to_json(&self, conns: usize) -> String {
        json::obj(&[
            ("conns", json::int(conns as u64)),
            ("offered_rps", json::num(self.offered_rps)),
            ("achieved_rps", json::num(self.achieved_rps)),
            ("sent", json::int(self.sent)),
            ("ok", json::int(self.ok)),
            ("shed", json::int(self.shed)),
            ("errors", json::int(self.errors)),
            ("unanswered", json::int(self.unanswered)),
            ("shed_rate", json::num(self.shed_rate())),
            ("p50_ms", json::num(self.p50_ms)),
            ("p95_ms", json::num(self.p95_ms)),
            ("p99_ms", json::num(self.p99_ms)),
            ("max_ms", json::num(self.max_ms)),
        ])
    }
}

/// Traffic mix weights (summing to 1): the serve paper workload is
/// read-heavy point scoring with occasional batches, spatial queries,
/// health probes and rare hot reloads.
const W_SCORE: f64 = 0.68;
const W_BATCH: f64 = 0.14;
const W_TOPK: f64 = 0.08;
const W_HEALTH: f64 = 0.09;
// reload takes the remainder (~1%) when a checkpoint path is known.

fn gen_request(rng: &mut StdRng, spec: &LoadSpec) -> String {
    let city = &spec.cities[rng.gen_range(0..spec.cities.len())];
    let route = city
        .name
        .as_ref()
        .map(|n| format!(", \"city\": {}", json::str(n)))
        .unwrap_or_default();
    let n = city.n_pois.max(1);
    let mut pick = rng.gen::<f64>();
    if pick < W_SCORE {
        let src = rng.gen_range(0..n);
        let dst = rng.gen_range(0..n);
        return format!("{{\"op\": \"score\", \"src\": {src}, \"dst\": {dst}{route}}}");
    }
    pick -= W_SCORE;
    if pick < W_BATCH {
        let pairs: Vec<String> = (0..4)
            .map(|_| format!("[{}, {}]", rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        return format!(
            "{{\"op\": \"batch\", \"pairs\": [{}]{route}}}",
            pairs.join(", ")
        );
    }
    pick -= W_BATCH;
    if pick < W_TOPK && !spec.relations.is_empty() {
        let src = rng.gen_range(0..n);
        let rel = &spec.relations[rng.gen_range(0..spec.relations.len())];
        return format!(
            "{{\"op\": \"top_k\", \"src\": {src}, \"k\": 5, \"relation\": {}, \
             \"radius_km\": 1.0{route}}}",
            json::str(rel)
        );
    }
    pick -= W_TOPK;
    if pick >= W_HEALTH {
        if let Some(ckpt) = &city.ckpt {
            return format!(
                "{{\"op\": \"reload\", \"path\": {}{route}}}",
                json::str(ckpt)
            );
        }
    }
    format!("{{\"op\": \"health\"{route}}}")
}

struct ClientConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Scheduled arrival instants of requests awaiting their response, in
    /// send order (the protocol answers FIFO per connection).
    inflight: VecDeque<Instant>,
    dead: bool,
}

impl ClientConn {
    fn flush(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos >= 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        true
    }
}

/// Classifies one response line.
enum Outcome {
    Ok,
    Shed,
    Error,
}

fn classify(line: &str) -> Outcome {
    match json::parse(line) {
        Ok(v) => {
            if v.get("ok") == Some(&Value::Bool(true)) {
                Outcome::Ok
            } else {
                match v.get("code").and_then(|c| c.as_str()) {
                    Some("overloaded") | Some("deadline_exceeded") => Outcome::Shed,
                    _ => Outcome::Error,
                }
            }
        }
        Err(_) => Outcome::Error,
    }
}

/// Runs one open-loop load point and reports what came back.
pub fn run(spec: &LoadSpec) -> std::io::Result<Report> {
    assert!(spec.conns > 0 && spec.rate_hz > 0.0 && !spec.cities.is_empty());
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Pre-draw the whole Poisson schedule: exponential inter-arrival gaps
    // at the aggregate rate, each arrival assigned a connection and a
    // request body up front so the send loop does no generation work.
    let horizon = spec.duration.as_secs_f64();
    let mut at = 0.0f64;
    let mut schedule: Vec<(f64, usize, String)> = Vec::new();
    loop {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        at += -u.ln() / spec.rate_hz;
        if at >= horizon {
            break;
        }
        let conn = rng.gen_range(0..spec.conns);
        schedule.push((at, conn, gen_request(&mut rng, spec)));
    }

    // Connect the fleet (blocking connects on loopback are cheap), then
    // switch every socket nonblocking and register it for readiness.
    let poller = Poller::new()?;
    let mut conns = Vec::with_capacity(spec.conns);
    for i in 0..spec.conns {
        let stream = TcpStream::connect(spec.addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        poller.register(stream.as_raw_fd(), i as u64, Interest::READ)?;
        conns.push(ClientConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: VecDeque::new(),
            dead: false,
        });
    }

    let mut report = Report {
        offered_rps: spec.rate_hz,
        ..Report::default()
    };
    let mut latencies: Vec<f64> = Vec::with_capacity(schedule.len());
    let mut events: Vec<Event> = Vec::new();
    let start = Instant::now();
    let mut next = 0usize;
    let hard_stop = spec.duration + spec.drain;

    loop {
        let now = start.elapsed();
        // Fire everything whose scheduled instant has passed.
        while next < schedule.len() && schedule[next].0 <= now.as_secs_f64() {
            let (off, ci, ref req) = schedule[next];
            next += 1;
            let conn = &mut conns[ci];
            if conn.dead {
                report.errors += 1;
                continue;
            }
            conn.wbuf.extend_from_slice(req.as_bytes());
            conn.wbuf.push(b'\n');
            conn.inflight
                .push_back(start + Duration::from_secs_f64(off));
            report.sent += 1;
            if !conn.flush() {
                conn.dead = true;
                let _ = poller.deregister(conn.stream.as_raw_fd());
                report.errors += conn.inflight.len() as u64;
                conn.inflight.clear();
            }
        }

        let inflight_total: usize = conns.iter().map(|c| c.inflight.len()).sum();
        if next >= schedule.len() && inflight_total == 0 {
            break;
        }
        if now >= hard_stop {
            report.unanswered = inflight_total as u64;
            break;
        }

        let _ = poller.wait(&mut events, Some(Duration::from_millis(1)));
        let done = Instant::now();
        for ev in &events {
            let ci = ev.token as usize;
            if ci >= conns.len() || conns[ci].dead {
                continue;
            }
            let conn = &mut conns[ci];
            if (ev.writable || !conn.wbuf.is_empty()) && !conn.flush() {
                conn.dead = true;
                let _ = poller.deregister(conn.stream.as_raw_fd());
                report.errors += conn.inflight.len() as u64;
                conn.inflight.clear();
                continue;
            }
            if !ev.readable && !ev.hangup {
                continue;
            }
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.dead = true;
                        let _ = poller.deregister(conn.stream.as_raw_fd());
                        report.errors += conn.inflight.len() as u64;
                        conn.inflight.clear();
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                        while let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') {
                            let line = String::from_utf8_lossy(&conn.rbuf[..pos]).to_string();
                            conn.rbuf.drain(..=pos);
                            let Some(sched) = conn.inflight.pop_front() else {
                                report.errors += 1; // response with no request
                                continue;
                            };
                            match classify(&line) {
                                Outcome::Ok => {
                                    report.ok += 1;
                                    latencies.push(done.duration_since(sched).as_secs_f64() * 1e3);
                                }
                                Outcome::Shed => report.shed += 1,
                                Outcome::Error => report.errors += 1,
                            }
                        }
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        let _ = poller.deregister(conn.stream.as_raw_fd());
                        report.errors += conn.inflight.len() as u64;
                        conn.inflight.clear();
                        break;
                    }
                }
            }
        }
    }

    latencies.sort_by(|a, b| a.total_cmp(b));
    report.achieved_rps = report.ok as f64 / horizon;
    report.p50_ms = percentile(&latencies, 0.50);
    report.p95_ms = percentile(&latencies, 0.95);
    report.p99_ms = percentile(&latencies, 0.99);
    report.max_ms = latencies.last().copied().unwrap_or(0.0);
    Ok(report)
}
