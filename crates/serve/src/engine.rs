//! The serving query engine: batched bitwise-faithful scoring, spatial
//! top-k and an LRU score cache.
//!
//! ## Bitwise contract
//!
//! Every score this engine produces has the same bit pattern as
//! [`prim_core::PrimModel::score_pair_eager`] on the same embeddings. The
//! batched kernel keeps the eager path's f32 operation order per score —
//! the projection coefficients accumulate `k`-ascending from 0.0 and the
//! final reduction multiplies `(ps · hr) · pd` left to right — while
//! restructuring *around* each score for speed: the projections `ps`/`pd`
//! are hoisted out of the per-relation loop (eager recomputes them for
//! every relation). On x86_64 each full block of four pairs goes through
//! an SSE kernel, one pair per lane, whose relation reduction runs four
//! relations per pass over `k`. Every other pair — the last `n % 4` of a
//! chunk, and every pair on other targets — takes the per-pair path,
//! which runs two relations per pass over hoisted relation rows. None of
//! that changes any individual f32 chain — each score is still one
//! `k`-ascending serial accumulation — so results are identical across
//! batch sizes, cache states, thread counts and the two paths.

use crate::cache::{pack_key, ScoreCache};
use crate::store::EmbeddingStore;
use prim_graph::PoiId;
use prim_obs::{Counter, Phase, Recorder};
use prim_tensor::kernel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Pairs per block of the SSE kernel: one pair per f32 lane, so each `k`
/// step loads four pairs' components at once. The block's relation
/// reduction also takes this many relations per pass over `k`, which
/// keeps four independent vector chains in flight to hide the add latency
/// that serialises the eager path.
#[cfg(target_arch = "x86_64")]
const PAIR_BLOCK: usize = 4;

/// Relations per pass over `k` on the per-pair path: two independent
/// accumulator chains over hoisted relation rows.
const REL_BLOCK: usize = 2;

/// Sentinel for [`EngineOpts::cache_capacity`]: size the score cache
/// proportionally to the store (`8 × n_pois`, clamped to
/// `[4096, 262144]`) instead of a fixed entry count. A fixed 1024-entry
/// cache collapsed to a 10% hit rate on 10k-POI key pools; proportional
/// sizing keeps the hit rate flat as stores grow.
pub const CACHE_AUTO: usize = usize::MAX;

/// ANN dispatch knobs for [`ServeEngine::top_k_related_mode`]. The engine
/// picks one of three regimes per query from the grid's cell-population
/// estimate: tiny candidate sets go straight to the exact path (the scan
/// setup would cost more than it saves), mid-size sets take a quantized
/// SIMD scan over the in-radius candidates, and broad-radius queries walk
/// the HNSW beam. Every regime rescores its survivors through the exact
/// f32 kernel, so returned scores are always bitwise-exact.
#[derive(Clone, Copy, Debug)]
pub struct AnnOpts {
    /// Cell-population estimate at or below which the exact path wins
    /// outright and the ANN layer steps aside.
    pub min_exact: usize,
    /// Cell-population estimate above which the quantized scan *may*
    /// yield to the HNSW beam (the scan is O(candidates); the beam is
    /// ~O(ef·m·log n) regardless of how many POIs the radius covers). The
    /// beam additionally requires the radius to cover ≥ ¼ of the store —
    /// an unfiltered walk under a low-selectivity keep-filter starves its
    /// result set, so low-selectivity queries stay on the scan no matter
    /// how many candidates the radius holds.
    pub beam_cutoff: usize,
    /// Serve-time beam width / rescore-set size; 0 inherits the index's
    /// construction-time `ef_search`. Raised to `k × oversample` when a
    /// query asks for more.
    pub ef_search: usize,
    /// Minimum rescore-set size as a multiple of `k`.
    pub oversample: usize,
    /// Beam similarity-evaluation budget as a multiple of the effective
    /// `ef` (hard cap on work when the radius filter rejects almost
    /// everything).
    pub budget_mult: usize,
}

impl Default for AnnOpts {
    fn default() -> Self {
        AnnOpts {
            min_exact: 64,
            beam_cutoff: 4096,
            ef_search: 0,
            oversample: 4,
            budget_mult: 8,
        }
    }
}

/// Tuning knobs for [`ServeEngine`].
#[derive(Clone, Debug)]
pub struct EngineOpts {
    /// Score-vector cache capacity (entries); 0 disables caching,
    /// [`CACHE_AUTO`] (the default) sizes it to the store.
    pub cache_capacity: usize,
    /// ANN dispatch configuration for approximate top-k.
    pub ann: AnnOpts,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            cache_capacity: CACHE_AUTO,
            ann: AnnOpts::default(),
        }
    }
}

/// Resolves [`CACHE_AUTO`] against a store size.
fn resolve_cache_capacity(requested: usize, n_pois: usize) -> usize {
    if requested == CACHE_AUTO {
        (n_pois * 8).clamp(4096, 1 << 18)
    } else {
        requested
    }
}

/// Scores for one POI pair across the full relation set `R ∪ {φ}`.
///
/// The score vector is a view into shared storage: results of one
/// [`ServeEngine::batch`] call share a single allocation, and cache hits
/// share the cached vector. A `PairScores` therefore keeps its source
/// batch's score block alive until dropped — fine for the serve loop,
/// which serialises and drops results immediately.
#[derive(Clone, Debug)]
pub struct PairScores {
    /// Source POI id.
    pub src: u32,
    /// Destination POI id.
    pub dst: u32,
    /// Distance bin the pair fell into.
    pub bin: usize,
    all: Arc<[f32]>,
    offset: usize,
    n_rel: usize,
    /// Arg-max relation index.
    pub best: usize,
    /// Score of the arg-max relation.
    pub best_score: f32,
    /// Whether the vector came from the cache.
    pub cached: bool,
}

impl PairScores {
    /// One score per relation, φ last (`scores().len() == n_relations + 1`).
    pub fn scores(&self) -> &[f32] {
        &self.all[self.offset..self.offset + self.n_rel]
    }

    fn new(
        src: u32,
        dst: u32,
        bin: usize,
        all: Arc<[f32]>,
        offset: usize,
        n_rel: usize,
        cached: bool,
    ) -> Self {
        // Strict > keeps the first maximum, matching predict_pairs.
        let mut best = 0usize;
        let mut best_score = f32::NEG_INFINITY;
        for (r, &s) in all[offset..offset + n_rel].iter().enumerate() {
            if s > best_score {
                best_score = s;
                best = r;
            }
        }
        PairScores {
            src,
            dst,
            bin,
            all,
            offset,
            n_rel,
            best,
            best_score,
            cached,
        }
    }
}

/// One result of a spatial top-k query.
#[derive(Clone, Debug)]
pub struct Neighbor {
    /// Candidate POI id.
    pub poi: u32,
    /// Distance from the query POI in km.
    pub distance_km: f64,
    /// Score under the requested relation.
    pub score: f32,
    /// Whether the relation scored here is also the pair's arg-max.
    pub is_best: bool,
}

/// Online inference engine over a frozen [`EmbeddingStore`].
pub struct ServeEngine {
    store: EmbeddingStore,
    cache: ScoreCache,
    cache_capacity: usize,
    ann_opts: AnnOpts,
    recorder: Recorder,
}

impl ServeEngine {
    /// Builds an engine. POI/bin counts must fit the packed cache key
    /// (24/8 bits); real city graphs are far below both limits.
    pub fn new(store: EmbeddingStore, opts: &EngineOpts, recorder: Recorder) -> Self {
        assert!(store.n_pois() < (1 << 24), "cache key packs 24-bit POI ids");
        assert!(store.bins.len() < (1 << 8), "cache key packs 8-bit bins");
        let cache_capacity = resolve_cache_capacity(opts.cache_capacity, store.n_pois());
        ServeEngine {
            store,
            cache: ScoreCache::new(cache_capacity),
            cache_capacity,
            ann_opts: opts.ann,
            recorder,
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &EmbeddingStore {
        &self.store
    }

    /// The resolved score-cache capacity ([`CACHE_AUTO`] already applied).
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// The engine's telemetry recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Scores one pair across all relations, consulting the cache first.
    pub fn score(&self, src: u32, dst: u32) -> PairScores {
        let _serve = self.recorder.phase(Phase::Serve);
        self.recorder.add(Counter::ServeRequests, 1);
        self.recorder.add(Counter::ServePairs, 1);
        self.score_uncounted(src, dst)
    }

    /// Scores a batch of pairs in one kernel invocation. Cached pairs are
    /// answered from the cache; the rest go through the batched kernel
    /// together. Results come back in input order.
    pub fn batch(&self, pairs: &[(u32, u32)]) -> Vec<PairScores> {
        let _serve = self.recorder.phase(Phase::Serve);
        self.recorder.add(Counter::ServeRequests, 1);
        self.recorder.add(Counter::ServePairs, pairs.len() as u64);
        self.recorder.add(Counter::ServeBatches, 1);

        // Cache disabled: straight through the kernel, no per-pair probes
        // or allocations — the whole batch shares one score block.
        if !self.cache.is_enabled() {
            self.recorder
                .add(Counter::ServeCacheMisses, pairs.len() as u64);
            return self.batch_uncounted(pairs);
        }

        let bins: Vec<usize> = pairs
            .iter()
            .map(|&(a, b)| self.store.pair_bin(PoiId(a), PoiId(b)))
            .collect();

        // Cache pass: collect the misses, remember where each came from.
        let mut out: Vec<Option<PairScores>> = Vec::with_capacity(pairs.len());
        let mut miss_idx: Vec<usize> = Vec::new();
        for (i, (&(a, b), &bin)) in pairs.iter().zip(&bins).enumerate() {
            match self.cache.get(pack_key(a, b, bin)) {
                Some(v) => {
                    let n_rel = v.len();
                    out.push(Some(PairScores::new(a, b, bin, v, 0, n_rel, true)));
                }
                None => {
                    miss_idx.push(i);
                    out.push(None);
                }
            }
        }
        let hits = (pairs.len() - miss_idx.len()) as u64;
        self.recorder.add(Counter::ServeCacheHits, hits);
        self.recorder
            .add(Counter::ServeCacheMisses, miss_idx.len() as u64);

        if !miss_idx.is_empty() {
            let miss_pairs: Vec<(u32, u32)> = miss_idx.iter().map(|&i| pairs[i]).collect();
            let miss_bins: Vec<usize> = miss_idx.iter().map(|&i| bins[i]).collect();
            let flat = score_pairs_all(&self.store, &miss_pairs, &miss_bins);
            let n_rel = self.store.phi() + 1;
            for (j, &i) in miss_idx.iter().enumerate() {
                // One allocation per miss, shared between the cache entry
                // and the returned result.
                let scores: Arc<[f32]> = flat[j * n_rel..(j + 1) * n_rel].into();
                let (a, b) = pairs[i];
                self.cache
                    .insert(pack_key(a, b, bins[i]), Arc::clone(&scores));
                out[i] = Some(PairScores::new(a, b, bins[i], scores, 0, n_rel, false));
            }
        }
        out.into_iter()
            .map(|o| o.expect("every slot filled"))
            .collect()
    }

    /// Scores the pairs of `src` against every POI within `radius_km`,
    /// returning the `k` highest-scoring under `relation`. Candidates come
    /// from the grid index (deterministic `(distance, index)` order);
    /// ranking ties break on candidate index, so the result is fully
    /// deterministic.
    pub fn top_k_related(
        &self,
        src: u32,
        radius_km: f64,
        k: usize,
        relation: usize,
    ) -> Vec<Neighbor> {
        let _serve = self.recorder.phase(Phase::Serve);
        self.recorder.add(Counter::ServeRequests, 1);
        assert!(relation <= self.store.phi(), "relation out of range");
        let candidates = self.store.within_radius(PoiId(src), radius_km);
        if candidates.is_empty() || k == 0 {
            return Vec::new();
        }
        self.recorder
            .add(Counter::ServePairs, candidates.len() as u64);
        self.recorder.add(Counter::ServeBatches, 1);

        let pairs: Vec<(u32, u32)> = candidates.iter().map(|&(j, _)| (src, j as u32)).collect();
        let scored = self.batch_uncounted(&pairs);
        let mut ranked: Vec<Neighbor> = scored
            .iter()
            .zip(&candidates)
            .map(|(s, &(j, d))| Neighbor {
                poi: j as u32,
                distance_km: d,
                score: s.scores()[relation],
                is_best: s.best == relation,
            })
            .collect();
        ranked.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.poi.cmp(&b.poi)));
        ranked.truncate(k);
        ranked
    }

    /// [`Self::top_k_related`] with a mode switch: `exact` (or a store
    /// built without an index) forces the brute-force path; otherwise the
    /// ANN dispatch decides. Returns the ranked neighbors plus the mode
    /// actually served (`"exact"` / `"ann"`), which the protocol layer
    /// reports per response.
    pub fn top_k_related_mode(
        &self,
        src: u32,
        radius_km: f64,
        k: usize,
        relation: usize,
        exact: bool,
    ) -> (Vec<Neighbor>, &'static str) {
        if exact || self.store.ann.is_none() {
            return (self.top_k_related(src, radius_km, k, relation), "exact");
        }
        self.top_k_related_ann(src, radius_km, k, relation)
    }

    /// ANN-accelerated top-k: candidates = ANN ∩ spatial radius, exact
    /// rescoring of the survivors (DESIGN.md §11).
    ///
    /// Three regimes, chosen from the grid's O(cells) population estimate:
    ///
    /// 1. **exact** — at or below `min_exact` candidates the setup cost of
    ///    anything approximate exceeds the full scan it replaces.
    /// 2. **quantized scan** — enumerate the in-radius candidates
    ///    (unsorted), score each with one int8 SIMD dot against the
    ///    relation-linearised query, keep the `ef` best.
    /// 3. **HNSW beam** — above `beam_cutoff` *and* with the radius
    ///    covering most of the store, the candidate set is too big to
    ///    touch and the keep-filter passes often enough to converge; walk
    ///    the graph under the quantized similarity with the radius as the
    ///    keep-filter and a hard visit budget.
    ///
    /// Regimes 2 and 3 re-score their kept set through the exact f32
    /// kernel, so every score (and therefore every tie-break) in the
    /// response is bitwise identical to the exact path's — approximation
    /// can only cost recall, never score fidelity.
    fn top_k_related_ann(
        &self,
        src: u32,
        radius_km: f64,
        k: usize,
        relation: usize,
    ) -> (Vec<Neighbor>, &'static str) {
        assert!(relation <= self.store.phi(), "relation out of range");
        let opts = &self.ann_opts;
        let est = self
            .store
            .grid
            .count_in_cells_around(src as usize, radius_km);
        if est <= opts.min_exact || k == 0 {
            return (self.top_k_related(src, radius_km, k, relation), "exact");
        }
        let index = self.store.ann.as_ref().expect("checked by caller");
        let _serve = self.recorder.phase(Phase::Serve);
        self.recorder.add(Counter::ServeRequests, 1);

        let base_ef = if opts.ef_search == 0 {
            index.graph.params.ef_search
        } else {
            opts.ef_search
        };
        let ef = base_ef.max(k.saturating_mul(opts.oversample)).max(1);
        let (queries, n_query_rows) = self.ann_query_rows(src, relation);
        let d = self.store.dim();
        // Query-row selection bins the *grid's* projected distance — the
        // value the radius filter already computed — rather than re-running
        // the per-pair equirectangular projection `pair_bin` does. The two
        // can disagree right at a bin edge, which only moves that
        // candidate's approximate ranking row; the exact rescore below
        // always uses `pair_bin`'s bin, bitwise like the exact path.
        let query_row = |dist: f64| -> &[f32] {
            let row = if n_query_rows == 1 {
                0
            } else {
                self.store.bins.bin(dist)
            };
            &queries[row * d..(row + 1) * d]
        };

        // The beam walks the similarity graph *unfiltered* and only keeps
        // in-radius results, so it pays for every visit whether or not the
        // radius accepts it. With embeddings uncorrelated with geography
        // that only converges when the radius already covers a large share
        // of the store — below ~25% selectivity the walk's kept set
        // starves and recall collapses, so those queries stay on the
        // quantized scan (linear in candidates, but with a ~20× cheaper
        // constant than the exact kernel).
        let beam_viable = est > opts.beam_cutoff && est.saturating_mul(4) >= self.store.n_pois();

        // (quantized score, id), ordered (score desc, id asc) — the same
        // shape as the final ranking so quantization ties stay
        // deterministic too.
        let kept: Vec<(f32, u32)> = if !beam_viable {
            // Quantized scan over the exact candidate set.
            let candidates = self
                .store
                .grid
                .within_radius_unsorted(src as usize, radius_km);
            self.recorder
                .add(Counter::AnnNodesVisited, candidates.len() as u64);
            self.recorder
                .add(Counter::AnnCandidates, candidates.len() as u64);
            self.recorder.add(
                Counter::AnnRadiusPruned,
                est.saturating_sub(candidates.len() + 1) as u64,
            );
            let mut scored: Vec<(f32, u32)> = candidates
                .into_iter()
                .map(|(j, dist)| (index.quant.dot(j, query_row(dist)), j as u32))
                .collect();
            // Keep the top `ef` under the (score desc, id asc) total order.
            // A partition suffices — the order is total, so the kept *set*
            // is unique, and the exact rescore re-ranks it anyway.
            if scored.len() > ef {
                scored
                    .select_nth_unstable_by(ef - 1, |a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                scored.truncate(ef);
            }
            scored
        } else {
            // Broad radius: HNSW beam with the radius as the keep-filter.
            let budget = ef.saturating_mul(opts.budget_mult);
            let (mut kept, stats) = index.graph.hnsw.search(
                |id| {
                    let dist = self.store.grid.distance_km(src as usize, id as usize);
                    index.quant.dot(id as usize, query_row(dist))
                },
                |id| {
                    id != src && self.store.grid.distance_km(src as usize, id as usize) < radius_km
                },
                ef,
                budget,
            );
            self.recorder.add(Counter::AnnNodesVisited, stats.visited);
            self.recorder.add(Counter::AnnRadiusPruned, stats.pruned);
            // Delta segment: POIs onboarded since the HNSW graph was
            // sealed (rows `index.len()..n_pois`) are not in the graph, so
            // the beam can never surface them. They are scanned linearly
            // under the same radius filter and quantized similarity, then
            // merged into the beam's kept set before the exact rescore.
            // The ingest pipeline re-seals the graph once this segment
            // grows past a fixed share of the sealed size, so the scan
            // stays O(recent onboards). Retired POIs sit at NaN in the
            // grid, which fails `< radius_km` and drops them here too.
            let delta = index.len() as u32..self.store.n_pois() as u32;
            let delta_len = delta.len() as u64;
            self.recorder.add(Counter::AnnNodesVisited, delta_len);
            for id in delta {
                if id == src {
                    continue;
                }
                let dist = self.store.grid.distance_km(src as usize, id as usize);
                if dist < radius_km {
                    kept.push((index.quant.dot(id as usize, query_row(dist)), id));
                }
            }
            if delta_len > 0 {
                kept.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                kept.truncate(ef);
            }
            self.recorder
                .add(Counter::AnnCandidates, kept.len() as u64 + stats.pruned);
            kept
        };
        if kept.is_empty() {
            return (Vec::new(), "ann");
        }

        // Exact rescore: bitwise the same scores the exact path computes,
        // so ranking and tie-breaking agree wherever the sets overlap.
        self.recorder.add(Counter::AnnRescored, kept.len() as u64);
        self.recorder.add(Counter::ServePairs, kept.len() as u64);
        self.recorder.add(Counter::ServeBatches, 1);
        let pairs: Vec<(u32, u32)> = kept.iter().map(|&(_, id)| (src, id)).collect();
        let scored = self.batch_uncounted(&pairs);
        let mut ranked: Vec<Neighbor> = scored
            .iter()
            .zip(&kept)
            .map(|(s, &(_, id))| Neighbor {
                poi: id,
                distance_km: self.store.grid.distance_km(src as usize, id as usize),
                score: s.scores()[relation],
                is_best: s.best == relation,
            })
            .collect();
        ranked.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.poi.cmp(&b.poi)));
        ranked.truncate(k);
        (ranked, "ann")
    }

    /// The per-bin query vectors the quantized kernels score candidates
    /// against. For a fixed source POI, relation and distance bin, the
    /// exact score is *linear* in the candidate embedding:
    /// `score = u_b · h_dst` with
    /// `u_b = a − (a·w_b)·w_b`, `a = (h_src − (h_src·w_b)·w_b) ⊙ h_rel`
    /// (and simply `u = h_src ⊙ h_rel` without distance scoring). One
    /// quantized dot per candidate therefore approximates the exact score
    /// itself — not a proxy metric — which is what makes recall@k high at
    /// int8 precision. Returns `(rows, n_rows)` with `rows` holding
    /// `n_rows × dim` f32s (one row per bin, or a single row when
    /// distance scoring is off).
    fn ann_query_rows(&self, src: u32, relation: usize) -> (Vec<f32>, usize) {
        let d = self.store.dim();
        let hs = self.store.pois.row(src as usize);
        let hr = self.store.relations.row(relation);
        if !self.store.use_distance_scoring {
            let u: Vec<f32> = hs.iter().zip(hr).map(|(&a, &b)| a * b).collect();
            return (u, 1);
        }
        let n_bins = self.store.bins.len();
        let mut out = vec![0.0f32; n_bins * d];
        for b in 0..n_bins {
            let w = self.store.bin_normals.row(b);
            let ds: f32 = hs.iter().zip(w).map(|(&x, &y)| x * y).sum();
            let row = &mut out[b * d..(b + 1) * d];
            for k in 0..d {
                row[k] = (hs[k] - ds * w[k]) * hr[k];
            }
            let aw: f32 = row.iter().zip(w).map(|(&x, &y)| x * y).sum();
            for k in 0..d {
                row[k] -= aw * w[k];
            }
        }
        (out, n_bins)
    }

    /// [`Self::score`] without the request/pair counters (shared by paths
    /// that already counted their work).
    fn score_uncounted(&self, src: u32, dst: u32) -> PairScores {
        let bin = self.store.pair_bin(PoiId(src), PoiId(dst));
        let key = pack_key(src, dst, bin);
        if let Some(v) = self.cache.get(key) {
            self.recorder.add(Counter::ServeCacheHits, 1);
            let n_rel = v.len();
            return PairScores::new(src, dst, bin, v, 0, n_rel, true);
        }
        self.recorder.add(Counter::ServeCacheMisses, 1);
        let n_rel = self.store.phi() + 1;
        let scores: Arc<[f32]> = score_pairs_all(&self.store, &[(src, dst)], &[bin]).into();
        self.cache.insert(key, Arc::clone(&scores));
        PairScores::new(src, dst, bin, scores, 0, n_rel, false)
    }

    /// Degraded `top_k`: the `k` nearest POIs within `radius_km` straight
    /// from the grid index, no scoring at all. This is the fallback the
    /// protocol layer switches to when a request's deadline no longer
    /// leaves room for the batched scoring pass — spatial candidates are
    /// O(grid cells) while scoring is O(candidates × relations × dim).
    pub fn top_k_nearest(&self, src: u32, radius_km: f64, k: usize) -> Vec<(u32, f64)> {
        let _serve = self.recorder.phase(Phase::Serve);
        self.recorder.add(Counter::ServeRequests, 1);
        let mut candidates = self.store.within_radius(PoiId(src), radius_km);
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        candidates.truncate(k);
        candidates.into_iter().map(|(j, d)| (j as u32, d)).collect()
    }

    /// [`Self::batch`] without request counters or cache traffic: the
    /// whole of a cache-off `batch`, and the top-k paths' scoring pass,
    /// which count their own pairs. Radius scans rarely repeat a specific
    /// pair, so probing or populating the point cache would mostly churn
    /// it.
    fn batch_uncounted(&self, pairs: &[(u32, u32)]) -> Vec<PairScores> {
        let bins: Vec<usize> = pairs
            .iter()
            .map(|&(a, b)| self.store.pair_bin(PoiId(a), PoiId(b)))
            .collect();
        let all: Arc<[f32]> = score_pairs_all(&self.store, pairs, &bins).into();
        let n_rel = self.store.phi() + 1;
        pairs
            .iter()
            .zip(&bins)
            .enumerate()
            .map(|(i, (&(a, b), &bin))| {
                PairScores::new(a, b, bin, Arc::clone(&all), i * n_rel, n_rel, false)
            })
            .collect()
    }
}

/// Scores every `(src, dst)` pair against every relation in `R ∪ {φ}`,
/// returning an `n_pairs × (n_relations + 1)` row-major table. Each
/// individual score is bitwise [`prim_core::PrimModel::score_pair_eager`];
/// see the module docs for why the restructuring preserves that.
pub fn score_pairs_all(store: &EmbeddingStore, pairs: &[(u32, u32)], bins: &[usize]) -> Vec<f32> {
    assert_eq!(pairs.len(), bins.len());
    let d = store.dim();
    let n_rel = store.phi() + 1;
    let mut out = vec![0.0f32; pairs.len() * n_rel];
    if pairs.is_empty() {
        return out;
    }
    // Rows are pairs: chunks split between pairs only, so chunking cannot
    // change any per-score arithmetic.
    let per_pair = n_rel * d.max(1) * 3;
    let grain = (kernel::PAR_ELEM_CUTOFF / per_pair.max(1)).max(1);
    kernel::par_row_chunks(&mut out, n_rel, grain, |row0, chunk| {
        let n = chunk.len() / n_rel;
        let mut scratch = Scratch::new(d);
        let mut i = 0usize;
        #[cfg(target_arch = "x86_64")]
        while i + PAIR_BLOCK <= n {
            let p = [
                pairs[row0 + i],
                pairs[row0 + i + 1],
                pairs[row0 + i + 2],
                pairs[row0 + i + 3],
            ];
            let b = [
                bins[row0 + i],
                bins[row0 + i + 1],
                bins[row0 + i + 2],
                bins[row0 + i + 3],
            ];
            let outs = &mut chunk[i * n_rel..(i + PAIR_BLOCK) * n_rel];
            // SAFETY: SSE is part of the x86_64 baseline, and `scratch`
            // was built for this store's dim just above.
            unsafe { score_four_sse(store, p, b, outs, &mut scratch) };
            i += PAIR_BLOCK;
        }
        // Every other pair: the per-pair path, bitwise equal to a lane of
        // the block.
        while i < n {
            let p = pairs[row0 + i];
            score_one(
                store,
                p,
                bins[row0 + i],
                &mut chunk[i * n_rel..(i + 1) * n_rel],
                &mut scratch,
            );
            i += 1;
        }
    });
    out
}

/// Reusable per-chunk projection buffers: one contiguous `ps`/`pd` pair
/// for the per-pair path, plus pair-interleaved ("transposed", `[4k + j]`
/// layout) buffers for the SSE block kernel.
struct Scratch {
    ps: Vec<f32>,
    pd: Vec<f32>,
    #[cfg(target_arch = "x86_64")]
    simd: SimdBufs,
}

#[cfg(target_arch = "x86_64")]
struct SimdBufs {
    hst: Vec<f32>,
    hdt: Vec<f32>,
    wt: Vec<f32>,
    pst: Vec<f32>,
    pdt: Vec<f32>,
}

impl Scratch {
    fn new(d: usize) -> Self {
        Scratch {
            ps: vec![0.0; d],
            pd: vec![0.0; d],
            #[cfg(target_arch = "x86_64")]
            simd: SimdBufs {
                hst: vec![0.0; PAIR_BLOCK * d],
                hdt: vec![0.0; PAIR_BLOCK * d],
                wt: vec![0.0; PAIR_BLOCK * d],
                pst: vec![0.0; PAIR_BLOCK * d],
                pdt: vec![0.0; PAIR_BLOCK * d],
            },
        }
    }
}

/// Eager-faithful coefficient reduction: `Σ_k a[k]·w[k]` accumulated
/// `k`-ascending from 0.0, exactly `iter().zip(w).map(..).sum()`.
#[inline]
fn coeff(a: &[f32], w: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(w) {
        acc += x * y;
    }
    acc
}

/// Fills `ps[k] = hs[k] − ds·w[k]` (the projected embedding). Identical
/// per-element arithmetic to the eager loop body.
#[inline]
fn project(ps: &mut [f32], h: &[f32], dcoef: f32, w: &[f32]) {
    let d = ps.len();
    let (h, w) = (&h[..d], &w[..d]);
    for k in 0..d {
        ps[k] = h[k] - dcoef * w[k];
    }
}

/// Scores one (projected or raw) pair against all relations, two
/// relations per pass over hoisted relation rows. Each relation's
/// accumulator runs `k`-ascending from 0.0 with `(ps[k] · hr[k]) · pd[k]`
/// terms — the eager loop's exact chain (with `ps = hs`, `pd = hd` this
/// is also the eager no-projection branch).
#[inline]
fn reduce_relations(store: &EmbeddingStore, ps: &[f32], pd: &[f32], out: &mut [f32]) {
    let d = ps.len();
    let pd = &pd[..d];
    let n_rel = out.len();
    let mut r0 = 0usize;
    while r0 + REL_BLOCK <= n_rel {
        let h0 = &store.relations.row(r0)[..d];
        let h1 = &store.relations.row(r0 + 1)[..d];
        let (mut a0, mut a1) = (0.0f32, 0.0f32);
        for k in 0..d {
            let (p, q) = (ps[k], pd[k]);
            a0 += p * h0[k] * q;
            a1 += p * h1[k] * q;
        }
        out[r0] = a0;
        out[r0 + 1] = a1;
        r0 += REL_BLOCK;
    }
    if r0 < n_rel {
        let h0 = &store.relations.row(r0)[..d];
        let mut a0 = 0.0f32;
        for k in 0..d {
            a0 += ps[k] * h0[k] * pd[k];
        }
        out[r0] = a0;
    }
}

/// The per-pair path: projects one pair onto its bin's hyperplane (when
/// distance scoring is on) and scores it against all relations.
fn score_one(
    store: &EmbeddingStore,
    (src, dst): (u32, u32),
    bin: usize,
    out: &mut [f32],
    scratch: &mut Scratch,
) {
    let hs = store.pois.row(src as usize);
    let hd = store.pois.row(dst as usize);
    if store.use_distance_scoring {
        let w = store.bin_normals.row(bin);
        let ds = coeff(hs, w);
        let dd = coeff(hd, w);
        project(&mut scratch.ps, hs, ds, w);
        project(&mut scratch.pd, hd, dd, w);
        reduce_relations(store, &scratch.ps, &scratch.pd, out);
    } else {
        reduce_relations(store, hs, hd, out);
    }
}

/// The SSE block kernel: four pairs, one lane per pair. Every vector op
/// is lane-wise IEEE single arithmetic, and each lane performs the same
/// `k`-ascending serial chain as [`score_one`] — only *across* lanes does
/// anything run in parallel — so every score is still bitwise
/// [`prim_core::PrimModel::score_pair_eager`]. Rust never contracts
/// explicit mul/add intrinsics into FMA, so the chains stay exact.
///
/// Embedding rows are transposed into pair-interleaved buffers
/// (`buf[4k + j]` = pair `j`, component `k`) so each `k` step is one
/// contiguous 4-lane load. A `d % 4` tail is handled in scalar, continuing
/// each lane's chain in the same order.
///
/// # Safety
///
/// The CPU must support SSE, and `scratch` must come from
/// `Scratch::new(store.dim())`: the vector loads and stores reach its
/// buffers and the embedding rows through raw pointers, up to `4 × dim`
/// and `dim` floats.
#[cfg(target_arch = "x86_64")]
unsafe fn score_four_sse(
    store: &EmbeddingStore,
    pairs: [(u32, u32); PAIR_BLOCK],
    bins: [usize; PAIR_BLOCK],
    outs: &mut [f32],
    scratch: &mut Scratch,
) {
    use std::arch::x86_64::*;
    let d = store.dim();
    let d4 = d & !3;
    let hs: [&[f32]; PAIR_BLOCK] = std::array::from_fn(|j| store.pois.row(pairs[j].0 as usize));
    let hd: [&[f32]; PAIR_BLOCK] = std::array::from_fn(|j| store.pois.row(pairs[j].1 as usize));
    let bufs = &mut scratch.simd;

    if store.use_distance_scoring {
        let w: [&[f32]; PAIR_BLOCK] = std::array::from_fn(|j| store.bin_normals.row(bins[j]));
        transpose4(hs, &mut bufs.hst, d4);
        transpose4(hd, &mut bufs.hdt, d4);
        transpose4(w, &mut bufs.wt, d4);

        // Coefficients: lane j accumulates `Σ_k h[j][k]·w[j][k]`
        // k-ascending — the exact `coeff` chain — then the scalar tail
        // continues each lane's sum.
        let hst = bufs.hst.as_ptr();
        let hdt = bufs.hdt.as_ptr();
        let wt = bufs.wt.as_ptr();
        let mut dsv = _mm_setzero_ps();
        let mut ddv = _mm_setzero_ps();
        for k in 0..d4 {
            let wv = _mm_loadu_ps(wt.add(4 * k));
            dsv = _mm_add_ps(dsv, _mm_mul_ps(_mm_loadu_ps(hst.add(4 * k)), wv));
            ddv = _mm_add_ps(ddv, _mm_mul_ps(_mm_loadu_ps(hdt.add(4 * k)), wv));
        }
        let mut ds = [0.0f32; PAIR_BLOCK];
        let mut dd = [0.0f32; PAIR_BLOCK];
        _mm_storeu_ps(ds.as_mut_ptr(), dsv);
        _mm_storeu_ps(dd.as_mut_ptr(), ddv);
        for j in 0..PAIR_BLOCK {
            for k in d4..d {
                ds[j] += hs[j][k] * w[j][k];
                dd[j] += hd[j][k] * w[j][k];
            }
        }

        // Projection: `ps[k] = hs[k] − ds·w[k]`, straight into the
        // interleaved layout (vector head + scalar tail).
        let dsvv = _mm_loadu_ps(ds.as_ptr());
        let ddvv = _mm_loadu_ps(dd.as_ptr());
        let pst = bufs.pst.as_mut_ptr();
        let pdt = bufs.pdt.as_mut_ptr();
        for k in 0..d4 {
            let wv = _mm_loadu_ps(wt.add(4 * k));
            let hsv = _mm_loadu_ps(hst.add(4 * k));
            let hdv = _mm_loadu_ps(hdt.add(4 * k));
            _mm_storeu_ps(pst.add(4 * k), _mm_sub_ps(hsv, _mm_mul_ps(dsvv, wv)));
            _mm_storeu_ps(pdt.add(4 * k), _mm_sub_ps(hdv, _mm_mul_ps(ddvv, wv)));
        }
        for j in 0..PAIR_BLOCK {
            for k in d4..d {
                bufs.pst[4 * k + j] = hs[j][k] - ds[j] * w[j][k];
                bufs.pdt[4 * k + j] = hd[j][k] - dd[j] * w[j][k];
            }
        }
    } else {
        // Raw branch: ps = hs, pd = hd.
        transpose4(hs, &mut bufs.pst, d4);
        transpose4(hd, &mut bufs.pdt, d4);
        for j in 0..PAIR_BLOCK {
            for k in d4..d {
                bufs.pst[4 * k + j] = hs[j][k];
                bufs.pdt[4 * k + j] = hd[j][k];
            }
        }
    }
    reduce_relations4_sse(store, &bufs.pst, &bufs.pdt, d, outs);
}

/// Transposes four `d4`-prefix rows into the pair-interleaved layout
/// (`out[4k + j] = rows[j][k]`) with 4×4 SSE block transposes.
#[cfg(target_arch = "x86_64")]
unsafe fn transpose4(rows: [&[f32]; PAIR_BLOCK], out: &mut [f32], d4: usize) {
    use std::arch::x86_64::*;
    let o = out.as_mut_ptr();
    for k0 in (0..d4).step_by(4) {
        let mut r0 = _mm_loadu_ps(rows[0].as_ptr().add(k0));
        let mut r1 = _mm_loadu_ps(rows[1].as_ptr().add(k0));
        let mut r2 = _mm_loadu_ps(rows[2].as_ptr().add(k0));
        let mut r3 = _mm_loadu_ps(rows[3].as_ptr().add(k0));
        _MM_TRANSPOSE4_PS(&mut r0, &mut r1, &mut r2, &mut r3);
        _mm_storeu_ps(o.add(4 * k0), r0);
        _mm_storeu_ps(o.add(4 * k0 + 4), r1);
        _mm_storeu_ps(o.add(4 * k0 + 8), r2);
        _mm_storeu_ps(o.add(4 * k0 + 12), r3);
    }
}

/// Vector relation reduction over pair-interleaved `ps`/`pd`: for each
/// relation, lane j runs the `k`-ascending `acc += (ps·hr)·pd` chain.
/// Relations share one pass over `k` so their chains overlap in flight.
#[cfg(target_arch = "x86_64")]
unsafe fn reduce_relations4_sse(
    store: &EmbeddingStore,
    pst: &[f32],
    pdt: &[f32],
    d: usize,
    outs: &mut [f32],
) {
    use std::arch::x86_64::*;
    let d4 = d & !3;
    let n_rel = outs.len() / PAIR_BLOCK;
    let psp = pst.as_ptr();
    let pdp = pdt.as_ptr();
    let mut r0 = 0usize;
    while r0 < n_rel {
        let rn = (n_rel - r0).min(PAIR_BLOCK);
        let rows: [&[f32]; PAIR_BLOCK] =
            std::array::from_fn(|t| store.relations.row(r0 + t.min(rn - 1)));
        let mut acc = [_mm_setzero_ps(); PAIR_BLOCK];
        // `k` also strides the raw `psp`/`pdp` pointers, so a range loop
        // is the honest shape here.
        #[allow(clippy::needless_range_loop)]
        for k in 0..d4 {
            let psv = _mm_loadu_ps(psp.add(4 * k));
            let pdv = _mm_loadu_ps(pdp.add(4 * k));
            for (t, a) in acc[..rn].iter_mut().enumerate() {
                let hv = _mm_set1_ps(rows[t][k]);
                *a = _mm_add_ps(*a, _mm_mul_ps(_mm_mul_ps(psv, hv), pdv));
            }
        }
        for (t, a) in acc[..rn].iter().enumerate() {
            let mut lanes = [0.0f32; PAIR_BLOCK];
            _mm_storeu_ps(lanes.as_mut_ptr(), *a);
            for k in d4..d {
                let hrk = rows[t][k];
                for (j, lane) in lanes.iter_mut().enumerate() {
                    *lane += pst[4 * k + j] * hrk * pdt[4 * k + j];
                }
            }
            for (j, &lane) in lanes.iter().enumerate() {
                outs[j * n_rel + r0 + t] = lane;
            }
        }
        r0 += rn;
    }
}

// ---------------------------------------------------------------------------
// Hot reload
// ---------------------------------------------------------------------------

/// An atomically swappable engine reference — the hot-reload seam.
///
/// Every request path resolves its engine through a slot: [`EngineSlot::get`]
/// clones the current `Arc` under a read lock (a few nanoseconds, never
/// blocked by queries), and [`EngineSlot::swap`] installs a freshly loaded
/// checkpoint's engine under the write lock. Requests already holding the
/// old `Arc` finish against the old tables — nothing in flight is ever
/// invalidated, which is what makes reload zero-failure.
pub struct EngineSlot {
    current: RwLock<Arc<ServeEngine>>,
    reloads: AtomicU64,
}

impl EngineSlot {
    /// Wraps an engine in a slot.
    pub fn new(engine: Arc<ServeEngine>) -> Arc<Self> {
        Arc::new(EngineSlot {
            current: RwLock::new(engine),
            reloads: AtomicU64::new(0),
        })
    }

    /// The current engine (cheap: read lock + `Arc` clone).
    pub fn get(&self) -> Arc<ServeEngine> {
        Arc::clone(&self.current.read().unwrap())
    }

    /// Installs a new engine, returning the previous one. In-flight
    /// requests keep scoring against the engine they already resolved.
    pub fn swap(&self, engine: Arc<ServeEngine>) -> Arc<ServeEngine> {
        let mut cur = self.current.write().unwrap();
        self.reloads.fetch_add(1, Ordering::SeqCst);
        std::mem::replace(&mut *cur, engine)
    }

    /// Number of swaps performed (surfaced by the `health` op).
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::SeqCst)
    }
}
