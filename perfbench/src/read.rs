//! The read ops both served workloads send: their protocol lines, and the
//! engine call each one maps to for the traced passes below the protocol.

use prim_obs::{json, Counter, Recorder};
use prim_serve::{Neighbor, PairScores, ServeEngine};

/// Share of `score` among the read ops both served workloads send, and
/// of `batch`; `top_k` takes the rest. They are the weights of these ops
/// in the repository's load generator (`crates/bench/src/loadgen.rs`:
/// 0.68, 0.14 and 0.08), scaled to sum to one without its health probes
/// and reloads, which run no engine code.
pub const SCORE_SHARE: f64 = 0.68 / 0.90;
pub const BATCH_SHARE: f64 = 0.14 / 0.90;

/// Engine counters the traced serve passes read, in this order.
const SERVE_COUNTERS: [Counter; 5] = [
    Counter::ServeCacheHits,
    Counter::ServeCacheMisses,
    Counter::AnnNodesVisited,
    Counter::AnnCandidates,
    Counter::AnnRescored,
];

/// The [`SERVE_COUNTERS`] now.
pub fn serve_counters(rec: &Recorder) -> [u64; 5] {
    SERVE_COUNTERS.map(|c| rec.counter(c))
}

/// The [`SERVE_COUNTERS`] since `earlier`.
pub fn serve_counters_since(rec: &Recorder, earlier: [u64; 5]) -> [u64; 5] {
    let now = serve_counters(rec);
    std::array::from_fn(|i| now[i] - earlier[i])
}

#[derive(Clone, Debug, PartialEq)]
pub enum Read {
    Score(u32, u32),
    Batch(Vec<(u32, u32)>),
    TopK {
        src: u32,
        radius_km: f64,
        k: usize,
        relation: usize,
        exact: bool,
    },
}

impl Read {
    /// The protocol line; `city` routes it on a multi-tenant server.
    pub fn line(&self, city: Option<&str>, relations: &[String]) -> String {
        let city = city.map_or(String::new(), |c| format!(", \"city\": {}", json::str(c)));
        match self {
            Read::Score(a, b) => format!("{{\"op\": \"score\"{city}, \"src\": {a}, \"dst\": {b}}}"),
            Read::Batch(pairs) => {
                let p: Vec<String> = pairs.iter().map(|(a, b)| format!("[{a}, {b}]")).collect();
                format!("{{\"op\": \"batch\"{city}, \"pairs\": [{}]}}", p.join(", "))
            }
            Read::TopK {
                src,
                radius_km,
                k,
                relation,
                exact,
            } => {
                let exact = if *exact { ", \"exact\": true" } else { "" };
                format!(
                    "{{\"op\": \"top_k\"{city}, \"src\": {src}, \"radius_km\": {radius_km}, \
                     \"k\": {k}, \"relation\": {}{exact}}}",
                    json::str(&relations[*relation])
                )
            }
        }
    }

    /// The engine call the protocol layer makes for this op.
    pub fn call(&self, engine: &ServeEngine) -> Served {
        match self {
            Read::Score(a, b) => Served::One(engine.score(*a, *b)),
            Read::Batch(pairs) => Served::Many(engine.batch(pairs)),
            Read::TopK {
                src,
                radius_km,
                k,
                relation,
                exact,
            } => {
                let (neighbors, mode) =
                    engine.top_k_related_mode(*src, *radius_km, *k, *relation, *exact);
                Served::TopK {
                    _neighbors: neighbors,
                    mode,
                }
            }
        }
    }
}

/// The `top_k` regime that served an answer, from its `mode` and the
/// [`SERVE_COUNTERS`] it moved: exact mode visits no ANN node, the
/// quantized scan visits exactly its candidates, and the HNSW beam visits
/// graph nodes, most of them not kept. `None` when the answer has none of
/// these shapes.
pub fn served_regime(mode: &str, moved: [u64; 5]) -> Option<&'static str> {
    let (visited, candidates) = (moved[2], moved[3]);
    match mode {
        "exact" if visited == 0 => Some("exact"),
        "ann" if visited > 0 && visited == candidates => Some("scan"),
        "ann" if visited > 0 => Some("beam"),
        _ => None,
    }
}

/// POI ids in a `top_k` response's results, in response order.
pub fn listed_pois(resp: &str) -> Vec<u32> {
    let v = json::parse(resp).unwrap_or(json::Value::Null);
    v.get("results")
        .and_then(|r| r.as_arr())
        .map(|items| {
            items
                .iter()
                .filter_map(|it| it.get("poi")?.as_f64())
                .map(|p| p as u32)
                .collect()
        })
        .unwrap_or_default()
}

/// What an engine call returned, held whole so that a traced span neither
/// allocates nor frees anything of the benchmark's own.
pub enum Served {
    One(PairScores),
    Many(Vec<PairScores>),
    TopK {
        _neighbors: Vec<Neighbor>,
        mode: &'static str,
    },
}

impl Served {
    /// Pairs the engine scored through the kernel: its cache misses.
    pub fn misses(&self) -> Vec<(u32, u32)> {
        let scored = |s: &PairScores| (!s.cached).then_some((s.src, s.dst));
        match self {
            Served::One(s) => scored(s).into_iter().collect(),
            Served::Many(v) => v.iter().filter_map(scored).collect(),
            Served::TopK { .. } => Vec::new(),
        }
    }

    /// The `top_k` mode served (`"exact"` or `"ann"`).
    pub fn mode(&self) -> Option<&'static str> {
        match self {
            Served::TopK { mode, .. } => Some(mode),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_regime_from_mode_and_counters() {
        // [hits, misses, visited, candidates, rescored]
        assert_eq!(served_regime("exact", [0, 0, 0, 0, 0]), Some("exact"));
        assert_eq!(served_regime("ann", [0, 0, 812, 812, 40]), Some("scan"));
        assert_eq!(served_regime("ann", [0, 0, 330, 64, 64]), Some("beam"));
        assert_eq!(served_regime("exact", [0, 0, 5, 5, 0]), None);
        assert_eq!(served_regime("ann", [0, 0, 0, 0, 0]), None);
    }
}
