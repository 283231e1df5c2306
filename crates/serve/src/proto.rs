//! JSON-lines request/response protocol.
//!
//! One request per line, one response per line, both JSON objects built on
//! the `prim-obs` JSON writer/parser (no serde in the workspace). Requests
//! carry an `"op"` discriminator and, on a multi-tenant server, a `"city"`
//! naming the engine to route to:
//!
//! ```text
//! {"op": "score", "src": 12, "dst": 40}
//! {"op": "score", "city": "beijing", "src": 12, "dst": 40}
//! {"op": "batch", "pairs": [[12, 40], [7, 9]]}
//! {"op": "top_k", "src": 12, "radius_km": 1.5, "k": 5, "relation": "competitive"}
//! {"op": "health"}
//! {"op": "reload", "city": "beijing", "path": "/ckpts/new.prim"}
//! {"op": "shutdown"}
//! ```
//!
//! Responses always carry `"ok"`; failures add a machine-readable `"code"`
//! (`bad_request`, `unknown_op`, `unknown_tenant`, `overloaded`,
//! `deadline_exceeded`, `reload_failed`) next to the human-readable
//! `"error"` and never tear the connection down. Score vectors render
//! relation-by-name so clients need no id mapping.
//!
//! ## Tenancy
//!
//! A [`ServeCtx`] hosts one or more named [`Tenant`]s, each a complete
//! serving stack: its own [`EngineSlot`] (so hot `reload` stays per-city
//! and atomic), score cache, optional ingest backend and `prim-obs`
//! recorder. Requests carrying `"city"` route to that tenant; a name this
//! process does not host earns a structured `unknown_tenant` error. On a
//! single-tenant context a request without `"city"` behaves exactly as the
//! pre-tenancy protocol did — byte-for-byte, including `health` — and
//! responses echo `"city"` only when the request named one. A
//! multi-tenant `health` without `"city"` aggregates every tenant.
//!
//! ## Resilience semantics
//!
//! [`ServeLimits`] switches on the protective behaviours (all off by
//! default, so existing callers see no change):
//!
//! * **Admission control** — `queue_capacity` bounds concurrently admitted
//!   requests; excess load is shed *immediately* with `overloaded` rather
//!   than queued into a latency collapse. The event-loop front end holds
//!   each request's permit until its response bytes reach the socket, so
//!   slow readers saturate the gate instead of ballooning memory.
//! * **Deadlines** — `deadline` gives each request a time budget from the
//!   moment its line is read. Expired budgets return `deadline_exceeded`
//!   instead of hanging.
//! * **Degradation** — when a `top_k` request's remaining budget drops
//!   under `degrade_margin`, the engine skips the scoring pass and answers
//!   from the spatial grid alone, flagged `"degraded": true` — a cheap,
//!   still-useful answer beats a deadline miss.
//! * **Line bounds** — `max_line_bytes` caps a single request line; an
//!   oversized line earns a `bad_request` and the connection resyncs at
//!   the next newline instead of buffering without bound.
//!
//! `health` answers without consuming an admission slot (a saturated
//! server must still report that it is alive), and `reload` atomically
//! swaps a freshly loaded checkpoint into that tenant's [`EngineSlot`]
//! without failing any in-flight request.

use crate::ckpt::load_checkpoint;
use crate::engine::{EngineOpts, EngineSlot, PairScores, ServeEngine};
use crate::store::EmbeddingStore;
use prim_obs::json::{self, Value};
use prim_obs::Counter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Overload/latency guard-rails for one serving context. The default is
/// fully permissive — no deadlines, no admission bound, no timeouts —
/// matching the pre-resilience behaviour exactly.
#[derive(Clone, Debug, Default)]
pub struct ServeLimits {
    /// Per-request time budget, measured from the moment the request line
    /// arrives. `None` disables deadline handling.
    pub deadline: Option<Duration>,
    /// `top_k` degrades to a grid-only answer when the remaining budget
    /// drops below this. Zero never degrades.
    pub degrade_margin: Duration,
    /// How long a TCP connection may stall mid-line before it is closed
    /// (slow-loris protection).
    pub read_timeout: Option<Duration>,
    /// How long a connection with queued response bytes may refuse to
    /// accept writes before it is closed (slow-reader protection).
    pub write_timeout: Option<Duration>,
    /// Maximum concurrently admitted requests before shedding with
    /// `overloaded`. Zero means unbounded.
    pub queue_capacity: usize,
    /// Maximum bytes in one request line before it is rejected with
    /// `bad_request` and the stream resyncs at the next newline. Zero
    /// means unlimited.
    pub max_line_bytes: usize,
}

/// Counting admission gate: at most `capacity` requests in flight, excess
/// shed immediately. Capacity zero admits everything.
pub struct AdmissionGate {
    capacity: usize,
    inflight: AtomicUsize,
}

/// An admission slot; releases on drop. It holds the gate by `Arc`, so
/// a front end can keep it alive until the response bytes actually reach
/// the socket.
pub struct GatePermit(Option<Arc<AdmissionGate>>);

impl Drop for GatePermit {
    fn drop(&mut self) {
        if let Some(gate) = self.0.take() {
            gate.inflight.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

impl AdmissionGate {
    fn new(capacity: usize) -> Self {
        AdmissionGate {
            capacity,
            inflight: AtomicUsize::new(0),
        }
    }

    /// CAS-increments the in-flight count unless the gate is full.
    fn try_inc(&self) -> bool {
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.capacity {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Tries to take a slot; `None` means the server is saturated and this
    /// request must be shed. The permit can outlive the call frame (held
    /// until the response is flushed).
    pub fn admit_owned(self: &Arc<Self>) -> Option<GatePermit> {
        if self.capacity == 0 {
            return Some(GatePermit(None));
        }
        if self.try_inc() {
            Some(GatePermit(Some(Arc::clone(self))))
        } else {
            None
        }
    }

    /// Requests currently holding a slot.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }
}

/// A tenant's streaming-mutation backend (implemented by `prim-ingest`'s
/// city pipeline; the trait lives here so `prim-serve` carries no
/// dependency on the ingest crate). Ops the backend [`accepts`] are
/// dispatched to [`handle`] after routing and admission, before the
/// `unknown_op` fallback — so ingest ops ride the existing protocol,
/// limits and tenancy for free.
///
/// [`accepts`]: IngestBackend::accepts
/// [`handle`]: IngestBackend::handle
pub trait IngestBackend: Send + Sync {
    /// Whether this backend handles `op`.
    fn accepts(&self, op: &str) -> bool;
    /// Handles an accepted op against the parsed request object. `Ok`
    /// yields extra response fields (appended after `ok`/`op`/`city`);
    /// `Err` yields a `(code, message)` structured error. Must never
    /// panic on client input.
    fn handle(&self, op: &str, v: &Value) -> Result<Vec<(&'static str, String)>, (String, String)>;
}

/// One named city engine inside a serving process: hot-reloadable slot,
/// optional ingest backend, and the checkpoint path `reload` last applied
/// (engines carry their own score cache and recorder).
pub struct Tenant {
    name: String,
    slot: Arc<EngineSlot>,
    ingest: Option<Arc<dyn IngestBackend>>,
    ckpt_path: Mutex<Option<String>>,
}

impl Tenant {
    fn new(
        name: impl Into<String>,
        slot: Arc<EngineSlot>,
        ingest: Option<Arc<dyn IngestBackend>>,
        ckpt_path: Option<String>,
    ) -> Self {
        Tenant {
            name: name.into(),
            slot,
            ingest,
            ckpt_path: Mutex::new(ckpt_path),
        }
    }

    /// The city name requests route on.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This tenant's hot-reload slot.
    pub fn slot(&self) -> Arc<EngineSlot> {
        Arc::clone(&self.slot)
    }

    /// This tenant's current engine.
    pub fn engine(&self) -> Arc<ServeEngine> {
        self.slot.get()
    }

    /// This tenant's streaming-mutation backend, if it hosts one.
    pub fn ingest(&self) -> Option<&Arc<dyn IngestBackend>> {
        self.ingest.as_ref()
    }

    /// The checkpoint path most recently loaded for this tenant (at
    /// construction or by `reload`).
    pub fn ckpt_path(&self) -> Option<String> {
        self.ckpt_path.lock().unwrap().clone()
    }
}

/// Construction spec for one tenant of a multi-city [`ServeCtx`].
pub struct TenantSpec {
    /// City name requests route on (must be unique per context).
    pub city: String,
    /// The engine serving this city.
    pub engine: Arc<ServeEngine>,
    /// Optional pre-existing hot-reload slot to serve from. Pass this
    /// when another component (an ingest pipeline) publishes engines into
    /// a slot it already owns — the tenant must resolve through *that*
    /// slot, not a private one. When set, `engine` is ignored (the slot is
    /// authoritative).
    pub slot: Option<Arc<EngineSlot>>,
    /// Optional streaming-mutation backend handling this city's ingest
    /// ops (`add_poi` / `add_edge` / `retire_poi` / …).
    pub ingest: Option<Arc<dyn IngestBackend>>,
    /// Checkpoint path the engine was loaded from (reported by the
    /// aggregate `health` op).
    pub ckpt_path: Option<String>,
}

impl TenantSpec {
    /// A tenant serving `engine` from a private slot.
    pub fn new(city: impl Into<String>, engine: Arc<ServeEngine>) -> Self {
        TenantSpec {
            city: city.into(),
            engine,
            slot: None,
            ingest: None,
            ckpt_path: None,
        }
    }

    /// Serves this tenant from an existing [`EngineSlot`] (shared with
    /// whatever publishes into it) instead of a private one.
    pub fn with_slot(mut self, slot: Arc<EngineSlot>) -> Self {
        self.slot = Some(slot);
        self
    }

    /// Records the checkpoint path this tenant was loaded from.
    pub fn with_ckpt_path(mut self, path: impl Into<String>) -> Self {
        self.ckpt_path = Some(path.into());
        self
    }

    /// Attaches a streaming-mutation backend; its ops join this tenant's
    /// protocol dispatch. The backend must publish through the same
    /// [`EngineSlot`] this tenant resolves (share it at construction).
    pub fn with_ingest(mut self, ingest: Arc<dyn IngestBackend>) -> Self {
        self.ingest = Some(ingest);
        self
    }
}

/// The default single-tenant name ([`ServeCtx::direct`]).
pub const DEFAULT_TENANT: &str = "default";

/// Shared serving context handed to every connection: the named tenants
/// (each a hot-reloadable engine slot), the resilience limits and the
/// admission gate.
#[derive(Clone)]
pub struct ServeCtx {
    tenants: Arc<Vec<Tenant>>,
    /// Deadline/admission/timeout knobs (default: all off).
    pub limits: ServeLimits,
    gate: Arc<AdmissionGate>,
    /// Engine options used when `reload` builds a replacement engine.
    pub engine_opts: EngineOpts,
}

impl ServeCtx {
    /// One-tenant context scoring directly against the engine.
    pub fn direct(engine: Arc<ServeEngine>) -> Self {
        Self::multi(vec![TenantSpec::new(DEFAULT_TENANT, engine)])
    }

    /// Multi-city context: one process hosts every named engine, requests
    /// route on their `"city"` field. Panics on an empty spec list or a
    /// duplicate city name (a routing table that cannot be built is a
    /// construction bug, not client input).
    pub fn multi(specs: Vec<TenantSpec>) -> Self {
        assert!(
            !specs.is_empty(),
            "ServeCtx::multi needs at least one tenant"
        );
        let mut tenants = Vec::with_capacity(specs.len());
        for spec in specs {
            assert!(
                !tenants.iter().any(|t: &Tenant| t.name == spec.city),
                "duplicate tenant {:?}",
                spec.city
            );
            let slot = spec.slot.unwrap_or_else(|| EngineSlot::new(spec.engine));
            tenants.push(Tenant::new(spec.city, slot, spec.ingest, spec.ckpt_path));
        }
        ServeCtx {
            tenants: Arc::new(tenants),
            limits: ServeLimits::default(),
            gate: Arc::new(AdmissionGate::new(0)),
            engine_opts: EngineOpts::default(),
        }
    }

    /// Installs resilience limits (rebuilding the admission gate to the
    /// new capacity).
    pub fn with_limits(mut self, limits: ServeLimits) -> Self {
        self.gate = Arc::new(AdmissionGate::new(limits.queue_capacity));
        self.limits = limits;
        self
    }

    /// Engine options for reload-built engines.
    pub fn with_engine_opts(mut self, opts: EngineOpts) -> Self {
        self.engine_opts = opts;
        self
    }

    /// The default tenant's current engine (resolved through its
    /// hot-reload slot).
    pub fn engine(&self) -> Arc<ServeEngine> {
        self.tenants[0].slot.get()
    }

    /// The default tenant's hot-reload slot.
    pub fn slot(&self) -> Arc<EngineSlot> {
        self.tenants[0].slot()
    }

    /// Every tenant this context hosts, in construction order (the first
    /// is the default tenant).
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Looks a tenant up by city name.
    pub fn tenant_named(&self, city: &str) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.name == city)
    }

    /// The admission gate (exposed for tests and health reporting).
    pub fn gate(&self) -> &Arc<AdmissionGate> {
        &self.gate
    }
}

/// Outcome of handling one request line.
pub struct Handled {
    /// The response line (no trailing newline).
    pub response: String,
    /// True when the request asked the server to stop.
    pub shutdown: bool,
}

/// [`Handled`] plus the admission permit the request holds. The event
/// loop keeps the permit alive until the response bytes reach the socket,
/// so a slow reader's queued responses keep occupying gate slots and new
/// load sheds instead of buffering without bound.
pub struct GatedHandled {
    pub handled: Handled,
    /// `Some` only for ops that passed the admission gate (`health`,
    /// `shutdown`, parse failures and shed responses carry none).
    pub permit: Option<GatePermit>,
}

impl GatedHandled {
    pub(crate) fn ungated(handled: Handled) -> Self {
        GatedHandled {
            handled,
            permit: None,
        }
    }
}

fn err_code(code: &str, msg: impl std::fmt::Display) -> Handled {
    Handled {
        response: json::obj(&[
            ("ok", "false".to_string()),
            ("code", json::str(code)),
            ("error", json::str(&msg.to_string())),
        ]),
        shutdown: false,
    }
}

fn err(msg: impl std::fmt::Display) -> Handled {
    err_code("bad_request", msg)
}

/// The structured error for a request line that exceeded
/// `max_line_bytes`; shared by every front end so the bytes agree.
pub fn oversized_line_error(len: usize, max: usize) -> Handled {
    err(format!(
        "request line of {len} bytes exceeds max_line_bytes {max}"
    ))
}

fn need_u32(v: &Value, key: &str, limit: usize) -> Result<u32, String> {
    let raw = v
        .get(key)
        .and_then(|x| x.as_f64())
        .ok_or_else(|| format!("missing numeric field {key:?}"))?;
    if raw.fract() != 0.0 || raw < 0.0 || raw >= limit as f64 {
        return Err(format!("{key} = {raw} out of range (0..{limit})"));
    }
    Ok(raw as u32)
}

fn pair_scores_json(engine: &ServeEngine, s: &PairScores) -> String {
    let store = engine.store();
    let scores: Vec<String> = s
        .scores()
        .iter()
        .enumerate()
        .map(|(r, &v)| {
            json::obj(&[
                ("relation", json::str(store.relation_name(r))),
                ("score", json::num(v as f64)),
            ])
        })
        .collect();
    json::obj(&[
        ("src", json::int(s.src as u64)),
        ("dst", json::int(s.dst as u64)),
        ("bin", json::int(s.bin as u64)),
        ("best", json::str(store.relation_name(s.best))),
        ("best_score", json::num(s.best_score as f64)),
        ("cached", s.cached.to_string()),
        ("scores", json::arr(&scores)),
    ])
}

/// True once `deadline` has passed.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|t| Instant::now() >= t)
}

/// Builds an ok-response object, echoing `"city"` right after `"op"` iff
/// the request routed by name — cityless requests keep the exact
/// pre-tenancy bytes.
fn ok_obj(op: &str, city: Option<&str>, rest: &[(&str, String)]) -> String {
    let mut fields: Vec<(&str, String)> = Vec::with_capacity(rest.len() + 3);
    fields.push(("ok", "true".to_string()));
    fields.push(("op", json::str(op)));
    if let Some(c) = city {
        fields.push(("city", json::str(c)));
    }
    fields.extend(rest.iter().map(|(k, v)| (*k, v.clone())));
    json::obj(&fields)
}

/// Handles one raw request line with no deadline (in-process callers:
/// tests, benches and replication links).
pub fn handle_line(ctx: &ServeCtx, line: &str) -> Handled {
    handle_request(ctx, line, None)
}

/// Handles one raw request line, returning the response line and whether
/// the line asked for shutdown. `deadline`, when set, is this request's
/// absolute time budget (the server stamps it when the line arrives).
/// Never panics on client input.
pub fn handle_request(ctx: &ServeCtx, line: &str, deadline: Option<Instant>) -> Handled {
    handle_request_gated(ctx, line, deadline).handled
}

/// [`handle_request`] for readiness-driven front ends: admitted requests
/// return their [`GatePermit`] so the caller can hold it until the
/// response is flushed. Dropping the permit immediately reproduces
/// [`handle_request`] exactly.
pub fn handle_request_gated(ctx: &ServeCtx, line: &str, deadline: Option<Instant>) -> GatedHandled {
    let v = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return GatedHandled::ungated(err(format!("bad JSON: {e}"))),
    };
    let op = match v.get("op").and_then(|o| o.as_str()) {
        Some(op) => op.to_string(),
        None => return GatedHandled::ungated(err("missing \"op\" field")),
    };

    // Tenant routing: an explicit "city" must name a hosted tenant; a
    // cityless request on a single-tenant context routes to it (the
    // pre-tenancy protocol, byte-for-byte).
    let city = match v.get("city") {
        Some(Value::Str(s)) => Some(s.as_str()),
        Some(_) => return GatedHandled::ungated(err("\"city\" must be a string")),
        None => None,
    };

    if op == "shutdown" {
        return GatedHandled::ungated(Handled {
            response: json::obj(&[("ok", "true".to_string()), ("op", json::str("shutdown"))]),
            shutdown: true,
        });
    }

    let tenant = match city {
        Some(name) => match ctx.tenant_named(name) {
            Some(t) => t,
            None => {
                ctx.engine().recorder().add(Counter::ServeUnknownTenant, 1);
                return GatedHandled::ungated(err_code(
                    "unknown_tenant",
                    format!("unknown city {name:?}"),
                ));
            }
        },
        None if ctx.tenants.len() == 1 => &ctx.tenants[0],
        None => {
            // `health` without a city on a multi-tenant server aggregates
            // every tenant — a liveness probe should not need routing.
            if op == "health" {
                return GatedHandled::ungated(aggregate_health(ctx));
            }
            ctx.engine().recorder().add(Counter::ServeUnknownTenant, 1);
            return GatedHandled::ungated(err_code(
                "unknown_tenant",
                "multi-tenant server: request must name a \"city\"",
            ));
        }
    };
    let engine = tenant.slot.get();

    // `health` bypasses the admission gate: a saturated server must still
    // answer liveness probes.
    if op == "health" {
        let store = engine.store();
        return GatedHandled::ungated(Handled {
            response: ok_obj(
                "health",
                city,
                &[
                    ("status", json::str("ok")),
                    ("n_pois", json::int(store.n_pois() as u64)),
                    ("n_relations", json::int(store.n_relations() as u64)),
                    ("dim", json::int(store.dim() as u64)),
                    ("reloads", json::int(tenant.slot.reloads())),
                    ("inflight", json::int(ctx.gate.inflight() as u64)),
                ],
            ),
            shutdown: false,
        });
    }

    let Some(permit) = ctx.gate.admit_owned() else {
        engine.recorder().add(Counter::ServeOverloads, 1);
        return GatedHandled::ungated(err_code("overloaded", "admission queue full, request shed"));
    };

    let handled = handle_admitted(ctx, tenant, &engine, &v, &op, city, deadline);
    GatedHandled {
        handled,
        permit: Some(permit),
    }
}

fn aggregate_health(ctx: &ServeCtx) -> Handled {
    let rows: Vec<String> = ctx
        .tenants
        .iter()
        .map(|t| {
            let store_engine = t.slot.get();
            let store = store_engine.store();
            json::obj(&[
                ("city", json::str(&t.name)),
                ("n_pois", json::int(store.n_pois() as u64)),
                ("n_relations", json::int(store.n_relations() as u64)),
                ("dim", json::int(store.dim() as u64)),
                ("reloads", json::int(t.slot.reloads())),
                ("ckpt", json::str(&t.ckpt_path().unwrap_or_default())),
            ])
        })
        .collect();
    Handled {
        response: json::obj(&[
            ("ok", "true".to_string()),
            ("op", json::str("health")),
            ("status", json::str("ok")),
            ("tenants", json::arr(&rows)),
            ("inflight", json::int(ctx.gate.inflight() as u64)),
        ]),
        shutdown: false,
    }
}

/// The post-admission op dispatch; `city` is echoed in ok responses iff
/// the request routed by name.
fn handle_admitted(
    ctx: &ServeCtx,
    tenant: &Tenant,
    engine: &Arc<ServeEngine>,
    v: &Value,
    op: &str,
    city: Option<&str>,
    deadline: Option<Instant>,
) -> Handled {
    let store = engine.store();
    match op {
        "score" => {
            let (src, dst) = match (
                need_u32(v, "src", store.n_pois()),
                need_u32(v, "dst", store.n_pois()),
            ) {
                (Ok(s), Ok(d)) => (s, d),
                (Err(e), _) | (_, Err(e)) => return err(e),
            };
            if expired(deadline) {
                engine.recorder().add(Counter::ServeDeadlines, 1);
                return err_code(
                    "deadline_exceeded",
                    "request deadline passed before scoring",
                );
            }
            let scored = engine.score(src, dst);
            Handled {
                response: ok_obj(
                    "score",
                    city,
                    &[("result", pair_scores_json(engine, &scored))],
                ),
                shutdown: false,
            }
        }
        "batch" => {
            let Some(raw_pairs) = v.get("pairs").and_then(|p| p.as_arr()) else {
                return err("missing \"pairs\" array");
            };
            let mut pairs = Vec::with_capacity(raw_pairs.len());
            for (i, p) in raw_pairs.iter().enumerate() {
                let Some(xy) = p.as_arr() else {
                    return err(format!("pairs[{i}] is not a two-element array"));
                };
                if xy.len() != 2 {
                    return err(format!("pairs[{i}] has {} elements, need 2", xy.len()));
                }
                let parse_end = |slot: usize| -> Result<u32, String> {
                    let raw = xy[slot]
                        .as_f64()
                        .ok_or_else(|| format!("pairs[{i}][{slot}] is not a number"))?;
                    if raw.fract() != 0.0 || raw < 0.0 || raw >= store.n_pois() as f64 {
                        return Err(format!("pairs[{i}][{slot}] = {raw} out of range"));
                    }
                    Ok(raw as u32)
                };
                match (parse_end(0), parse_end(1)) {
                    (Ok(a), Ok(b)) => pairs.push((a, b)),
                    (Err(e), _) | (_, Err(e)) => return err(e),
                }
            }
            if expired(deadline) {
                engine.recorder().add(Counter::ServeDeadlines, 1);
                return err_code(
                    "deadline_exceeded",
                    "request deadline passed before scoring",
                );
            }
            let scored = engine.batch(&pairs);
            let results: Vec<String> = scored.iter().map(|s| pair_scores_json(engine, s)).collect();
            Handled {
                response: ok_obj("batch", city, &[("results", json::arr(&results))]),
                shutdown: false,
            }
        }
        "top_k" => {
            let src = match need_u32(v, "src", store.n_pois()) {
                Ok(s) => s,
                Err(e) => return err(e),
            };
            let radius_km = match v.get("radius_km").and_then(|x| x.as_f64()) {
                Some(r) if r > 0.0 && r.is_finite() => r,
                _ => return err("missing or non-positive \"radius_km\""),
            };
            let k = match v.get("k").and_then(|x| x.as_f64()) {
                Some(k) if k.fract() == 0.0 && k >= 0.0 => k as usize,
                _ => return err("missing or non-integer \"k\""),
            };
            let relation = match v.get("relation").and_then(|x| x.as_str()) {
                Some(name) => match store.relation_index(name) {
                    Some(r) => r,
                    None => return err(format!("unknown relation {name:?}")),
                },
                None => return err("missing \"relation\" name"),
            };
            if expired(deadline) {
                engine.recorder().add(Counter::ServeDeadlines, 1);
                return err_code(
                    "deadline_exceeded",
                    "request deadline passed before scoring",
                );
            }
            // Degrade: when the remaining budget no longer covers the
            // scoring pass, answer nearest-by-distance from the grid
            // index alone. degrade_margin == 0 never triggers this.
            let degrade = deadline.is_some_and(|t| {
                t.saturating_duration_since(Instant::now()) < ctx.limits.degrade_margin
            });
            if degrade {
                engine.recorder().add(Counter::ServeDegraded, 1);
                let nearest = engine.top_k_nearest(src, radius_km, k);
                let results: Vec<String> = nearest
                    .iter()
                    .map(|&(poi, d)| {
                        json::obj(&[
                            ("poi", json::int(poi as u64)),
                            ("distance_km", json::num(d)),
                        ])
                    })
                    .collect();
                return Handled {
                    response: ok_obj(
                        "top_k",
                        city,
                        &[
                            ("degraded", "true".to_string()),
                            ("src", json::int(src as u64)),
                            ("relation", json::str(store.relation_name(relation))),
                            ("results", json::arr(&results)),
                        ],
                    ),
                    shutdown: false,
                };
            }
            // Optional "exact" flag: true pins the brute-force parity
            // oracle; absent/false lets the ANN dispatch decide.
            let exact = match v.get("exact") {
                Some(json::Value::Bool(b)) => *b,
                Some(_) => return err("\"exact\" must be a boolean"),
                None => false,
            };
            let (neighbors, mode) = engine.top_k_related_mode(src, radius_km, k, relation, exact);
            let results: Vec<String> = neighbors
                .iter()
                .map(|n| {
                    json::obj(&[
                        ("poi", json::int(n.poi as u64)),
                        ("distance_km", json::num(n.distance_km)),
                        ("score", json::num(n.score as f64)),
                        ("is_best", n.is_best.to_string()),
                    ])
                })
                .collect();
            Handled {
                response: ok_obj(
                    "top_k",
                    city,
                    &[
                        ("degraded", "false".to_string()),
                        ("mode", json::str(mode)),
                        ("src", json::int(src as u64)),
                        ("relation", json::str(store.relation_name(relation))),
                        ("results", json::arr(&results)),
                    ],
                ),
                shutdown: false,
            }
        }
        "reload" => {
            let Some(path) = v.get("path").and_then(|p| p.as_str()) else {
                return err("missing \"path\" string");
            };
            let ckpt = match load_checkpoint(path) {
                Ok(c) => c,
                Err(e) => return err_code("reload_failed", format!("loading {path}: {e}")),
            };
            // from_checkpoint builds (or adopts) the ANN index *inside*
            // the store before the engine exists, so the slot swap below
            // publishes store and index as one unit — there is no window
            // where a new store serves with a stale index.
            let new_store = match EmbeddingStore::from_checkpoint(&ckpt) {
                Ok(s) => s,
                Err(e) => return err_code("reload_failed", format!("rebuilding {path}: {e}")),
            };
            let new_engine = Arc::new(ServeEngine::new(
                new_store,
                &ctx.engine_opts,
                engine.recorder().clone(),
            ));
            let n_pois = new_engine.store().n_pois() as u64;
            tenant.slot.swap(new_engine);
            *tenant.ckpt_path.lock().unwrap() = Some(path.to_string());
            engine.recorder().add(Counter::ServeReloads, 1);
            Handled {
                response: ok_obj(
                    "reload",
                    city,
                    &[
                        ("run", json::str(&ckpt.run)),
                        ("n_pois", json::int(n_pois)),
                        ("reloads", json::int(tenant.slot.reloads())),
                    ],
                ),
                shutdown: false,
            }
        }
        other => {
            if let Some(ingest) = &tenant.ingest {
                if ingest.accepts(other) {
                    if expired(deadline) {
                        engine.recorder().add(Counter::ServeDeadlines, 1);
                        return err_code(
                            "deadline_exceeded",
                            "request deadline passed before ingest",
                        );
                    }
                    return match ingest.handle(other, v) {
                        Ok(fields) => Handled {
                            response: ok_obj(other, city, &fields),
                            shutdown: false,
                        },
                        Err((code, msg)) => err_code(&code, msg),
                    };
                }
            }
            err_code("unknown_op", format!("unknown op {other:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_responses_are_json_with_ok_false_and_code() {
        // handle_line's error paths must not require a live engine, so
        // exercise the pure-parse failures through the JSON layer alone.
        let bad = err("nope");
        let v = json::parse(&bad.response).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(v.get("code").and_then(|c| c.as_str()), Some("bad_request"));
        assert_eq!(v.get("error").and_then(|e| e.as_str()), Some("nope"));
        assert!(!bad.shutdown);

        let shed = err_code("overloaded", "full");
        let v = json::parse(&shed.response).unwrap();
        assert_eq!(v.get("code").and_then(|c| c.as_str()), Some("overloaded"));
    }

    #[test]
    fn admission_gate_caps_and_releases() {
        let gate = Arc::new(AdmissionGate::new(2));
        let a = gate.admit_owned().expect("slot 1");
        let _b = gate.admit_owned().expect("slot 2");
        assert!(gate.admit_owned().is_none(), "third admit must shed");
        assert_eq!(gate.inflight(), 2);
        drop(a);
        assert!(gate.admit_owned().is_some(), "released slot is reusable");
    }

    #[test]
    fn unbounded_gate_always_admits() {
        let gate = Arc::new(AdmissionGate::new(0));
        let permits: Vec<_> = (0..64).map(|_| gate.admit_owned().unwrap()).collect();
        assert_eq!(gate.inflight(), 0, "capacity 0 does not count");
        drop(permits);
    }

    #[test]
    fn owned_permits_release_wherever_they_drop() {
        // A front end may drop a permit on another thread (or long after
        // the handler returned): the slot still returns to the gate.
        let gate = Arc::new(AdmissionGate::new(1));
        let permit = gate.admit_owned().expect("slot 1");
        assert!(gate.admit_owned().is_none(), "second admit must shed");
        std::thread::spawn(move || drop(permit)).join().unwrap();
        assert_eq!(gate.inflight(), 0, "permit releases on drop");
        assert!(gate.admit_owned().is_some());
    }

    #[test]
    fn oversized_line_error_is_bad_request() {
        let h = oversized_line_error(4096, 1024);
        let v = json::parse(&h.response).unwrap();
        assert_eq!(v.get("code").and_then(|c| c.as_str()), Some("bad_request"));
        assert!(v
            .get("error")
            .and_then(|e| e.as_str())
            .unwrap()
            .contains("max_line_bytes"));
    }
}
