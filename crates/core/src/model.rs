//! The PRIM model (paper Section 4).
//!
//! Components, mapped to the paper:
//!
//! * **WRGNN** (§4.2, Eq. 1–5): two-level aggregation with a
//!   relation-specific operator `γ(h_j, h_r) = h_j ⊙ h_r`, per-layer
//!   relation updates `h_r ← W_r h_r`, and multi-head *spatial-aware
//!   attention* whose logits see both endpoint representations and a
//!   projected distance feature. We add a self-transform term per layer
//!   (standard GNN practice, cf. R-GCN's `W₀h_i`) so POIs with no training
//!   relationships retain their feature information — essential for the
//!   paper's inductive setting.
//! * **Taxonomy integration** (§4.3): category representation `q_p` is the
//!   sum of taxonomy-node embeddings along the leaf's root path, concatenated
//!   onto the POI representation at every layer (`h* = [h ‖ q]`).
//! * **Spatial context extractor** (§4.4, Eq. 6–9): scaled-dot self-attention
//!   of each POI over its spatial neighbours with logits multiplied by the
//!   RBF kernel, fused by addition (Eq. 10).
//! * **Distance-specific scoring** (§4.5, Eq. 11–12): hyperplane projection
//!   per distance bin followed by DistMult scoring; the non-relation type φ
//!   owns an extra relation embedding row and competes in the argmax.

use crate::config::{GammaOp, PrimConfig, TaxonomyMode};
use crate::inputs::ModelInputs;
use prim_graph::PoiId;
use prim_nn::{init, Binding, ParamId, ParamStore};
use prim_tensor::kernel;
use prim_tensor::{pool, segment, stable_sigmoid};
use prim_tensor::{Graph, Matrix, SegmentPlan, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One attention head of a WRGNN layer.
struct Head {
    /// `W_a`: projects `h*` for attention features.
    w_att: ParamId,
    /// `W_d`: projects the raw distance features.
    w_dist: ParamId,
    /// Per-relation attention vectors `a_r` (rows = relations).
    att_table: ParamId,
    /// Message transform `W` of Eq. 5 for this head.
    w_msg: ParamId,
}

/// Parameters of one WRGNN layer.
struct Layer {
    heads: Vec<Head>,
    /// Self-transform retaining the POI's own features.
    w_self: ParamId,
    /// Relation representation update `W_r` (Eq. 2).
    w_rel: ParamId,
}

/// The trainable PRIM model.
pub struct PrimModel {
    cfg: PrimConfig,
    pub(crate) store: ParamStore,
    /// Input feature projection.
    w_in: ParamId,
    /// Free per-POI embeddings, added to the projected attributes. They
    /// carry transductive structure (e.g. brand circles) that attribute
    /// features cannot express; for unseen POIs they stay at their small
    /// random initialisation and the feature pathway carries the load.
    node_emb: ParamId,
    /// Taxonomy node (or independent category) embedding table.
    cat_table: ParamId,
    /// Relation embeddings, `n_relations + 1` rows — the last row is φ.
    rel_emb: ParamId,
    layers: Vec<Layer>,
    /// Final projection of relation representations into scoring space.
    w_rel_score: ParamId,
    /// Spatial extractor projections (queries, keys, values).
    w_q: ParamId,
    w_k: ParamId,
    w_v: ParamId,
    /// Distance-bin hyperplane normals (`w_b` of Eq. 11).
    w_bins: ParamId,
    n_relations: usize,
}

/// Forward-pass outputs still attached to the tape.
pub struct ForwardOutput {
    /// Final fused POI representations (`n_pois × dim`).
    pub h_final: Var,
    /// Relation representations in scoring space (`(R+1) × dim`).
    pub rel_score: Var,
}

/// One scoring batch of `(src, rel, dst, bin)` triples with labels, as
/// shared gather plans — built once, reusable across epochs (training
/// resamples triples each epoch, but the bench and any fixed-batch caller
/// amortise the plans) and cloned into the tape as `Arc`s with no per-epoch
/// index copies.
pub struct TripleBatch {
    src: Arc<SegmentPlan>,
    rel: Arc<SegmentPlan>,
    dst: Arc<SegmentPlan>,
    bins: Arc<SegmentPlan>,
    /// Binary labels, shared with the tape's BCE node.
    pub targets: Arc<[f32]>,
}

impl TripleBatch {
    /// Builds the gather plans for one batch of triples.
    pub fn new(
        model: &PrimModel,
        inputs: &ModelInputs,
        src: &[usize],
        rel: &[usize],
        dst: &[usize],
        bins: &[usize],
        labels: &[f32],
    ) -> Self {
        assert!(src.len() == rel.len() && src.len() == dst.len() && src.len() == bins.len());
        assert_eq!(src.len(), labels.len());
        TripleBatch {
            src: Arc::new(SegmentPlan::new(src.to_vec(), inputs.n_pois)),
            rel: Arc::new(SegmentPlan::new(rel.to_vec(), model.n_relations + 1)),
            dst: Arc::new(SegmentPlan::new(dst.to_vec(), inputs.n_pois)),
            bins: Arc::new(SegmentPlan::new(bins.to_vec(), model.cfg.bins.len())),
            targets: Arc::from(labels),
        }
    }

    /// Number of triples in the batch.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True if the batch holds no triples.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

/// Detached embeddings for fast inference.
pub struct EmbeddingTable {
    /// Final POI representations.
    pub pois: Matrix,
    /// Relation scoring representations (φ last).
    pub relations: Matrix,
    /// Normalised distance-bin hyperplane normals.
    pub bin_normals: Matrix,
}

impl PrimModel {
    /// Relation id used for the non-relation type φ.
    pub fn phi(&self) -> usize {
        self.n_relations
    }

    /// The model configuration.
    pub fn config(&self) -> &PrimConfig {
        &self.cfg
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Read access to the parameter store (diagnostics, telemetry).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable access to the parameter store (tests, manual surgery).
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Creates a model for datasets with the given dimensions.
    pub fn new(cfg: PrimConfig, inputs: &ModelInputs) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let dim = cfg.dim;
        let cat = cfg.cat_dim;
        let star = dim + cat;
        let r_all = inputs.n_relations + 1;
        let head_dim = cfg.head_dim();
        let att_in = 2 * head_dim + cfg.dist_feat_dim;

        let w_in = store.add(
            "w_in",
            init::xavier_uniform(&mut rng, inputs.attr_dim(), dim),
        );
        let node_emb =
            store.add_no_decay("node_emb", init::embedding(&mut rng, inputs.n_pois, dim));
        let cat_rows = match cfg.taxonomy {
            TaxonomyMode::PathSum => inputs.n_taxonomy_nodes,
            TaxonomyMode::Independent => inputs.n_categories,
        };
        let cat_table = store.add_no_decay("cat_table", init::embedding(&mut rng, cat_rows, cat));
        let rel_emb = store.add_no_decay("rel_emb", init::embedding(&mut rng, r_all, star));

        let mut layers = Vec::with_capacity(cfg.n_layers);
        for l in 0..cfg.n_layers {
            let mut heads = Vec::with_capacity(cfg.n_heads);
            for k in 0..cfg.n_heads {
                heads.push(Head {
                    w_att: store.add(
                        format!("l{l}.h{k}.w_att"),
                        init::xavier_uniform(&mut rng, star, head_dim),
                    ),
                    w_dist: store.add(
                        format!("l{l}.h{k}.w_dist"),
                        init::xavier_uniform(&mut rng, 2, cfg.dist_feat_dim),
                    ),
                    att_table: store.add(
                        format!("l{l}.h{k}.att"),
                        init::embedding(&mut rng, inputs.n_relations, att_in),
                    ),
                    w_msg: store.add(
                        format!("l{l}.h{k}.w_msg"),
                        init::xavier_uniform(&mut rng, star, head_dim),
                    ),
                });
            }
            layers.push(Layer {
                heads,
                w_self: store.add(
                    format!("l{l}.w_self"),
                    init::xavier_uniform(&mut rng, star, dim),
                ),
                w_rel: store.add(
                    format!("l{l}.w_rel"),
                    init::xavier_uniform(&mut rng, star, star),
                ),
            });
        }

        let w_rel_score = store.add("w_rel_score", init::xavier_uniform(&mut rng, star, dim));
        let w_q = store.add("w_q", init::xavier_uniform(&mut rng, dim, dim));
        let w_k = store.add("w_k", init::xavier_uniform(&mut rng, dim, dim));
        let w_v = store.add("w_v", init::xavier_uniform(&mut rng, dim, dim));
        let w_bins = store.add_no_decay("w_bins", init::embedding(&mut rng, cfg.bins.len(), dim));

        PrimModel {
            cfg,
            store,
            w_in,
            node_emb,
            cat_table,
            rel_emb,
            layers,
            w_rel_score,
            w_q,
            w_k,
            w_v,
            w_bins,
            n_relations: inputs.n_relations,
        }
    }

    /// Category representations `q_p` for all POIs.
    fn category_reps(&self, g: &mut Graph, bind: &Binding, inputs: &ModelInputs) -> Var {
        let table = bind.var(self.cat_table);
        match self.cfg.taxonomy {
            TaxonomyMode::PathSum => {
                let gathered = g.gather_rows_planned(table, &inputs.plans.cat_path_gather);
                g.segment_sum_planned(gathered, &inputs.plans.cat_path_segment)
            }
            TaxonomyMode::Independent => g.gather_rows_planned(table, &inputs.plans.leaf_gather),
        }
    }

    /// Runs the full forward pass on a fresh tape.
    ///
    /// The pass is cut into scopes — each layer, its message block and the
    /// γ messages inside it, each attention head and its logits, the
    /// spatial-context block — whose ends free the edge-sized
    /// intermediates on an inference tape ([`PrimModel::embed`]) and do
    /// nothing on a training tape.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, inputs: &ModelInputs) -> ForwardOutput {
        let adj = &inputs.adjacency;
        let plans = &inputs.plans;

        let q = self.category_reps(g, bind, inputs);
        let attrs = g.constant_ref(&inputs.attrs);
        let proj = g.matmul(attrs, bind.var(self.w_in));
        let mut h = if self.cfg.use_node_embeddings {
            // Subset inputs cover a slice of the city: gather that slice's
            // rows out of the global per-POI table (a row copy, so each
            // local row is bit-identical to the full pass's row).
            let node = match &inputs.node_rows {
                Some(rows) => g.gather_rows_planned(bind.var(self.node_emb), rows),
                None => bind.var(self.node_emb),
            };
            g.add(proj, node)
        } else {
            proj
        };
        let mut hr = bind.var(self.rel_emb);

        let dist_feats = g.constant_ref(&inputs.edge_dist_feats);
        let has_edges = adj.num_directed_edges() > 0;

        let head_dim = self.cfg.head_dim();
        let dist_dim = self.cfg.dist_feat_dim;
        for layer in &self.layers {
            let layer_scope = g.scope("layer");
            let h_star = g.concat_cols(&[h, q]);
            let mut head_outs = Vec::with_capacity(layer.heads.len());
            if has_edges {
                // Relation-specific messages γ(h*_j, h_r) (Eq. 1) do not
                // depend on the head, so compute them once per layer.
                let message = g.scope("message");
                let gamma = g.scope("gamma");
                let h_src = g.gather_rows_planned(h_star, &plans.edge_src);
                let hr_edge = g.gather_rows_planned(hr, &plans.edge_rel_all);
                let msg = match self.cfg.gamma {
                    GammaOp::Multiply => g.mul(h_src, hr_edge),
                    GammaOp::Subtract => g.sub(h_src, hr_edge),
                    GammaOp::CircularCorrelation => g.rows_circ_corr(h_src, hr_edge),
                };
                g.end_scope(gamma, &[msg]);

                // Batch the per-head projections into single wide matmuls
                // (columns of a product are independent, so each head's slice
                // is identical to its standalone matmul), then gather edge
                // rows once for all heads.
                let w_att_all: Vec<Var> = layer.heads.iter().map(|hd| bind.var(hd.w_att)).collect();
                let w_dist_all: Vec<Var> =
                    layer.heads.iter().map(|hd| bind.var(hd.w_dist)).collect();
                let w_msg_all: Vec<Var> = layer.heads.iter().map(|hd| bind.var(hd.w_msg)).collect();
                let w_att_cat = g.concat_cols(&w_att_all);
                let w_dist_cat = g.concat_cols(&w_dist_all);
                let w_msg_cat = g.concat_cols(&w_msg_all);
                let ha_all = g.matmul(h_star, w_att_cat);
                let dproj_all = g.matmul(dist_feats, w_dist_cat);
                let msg_p_all = g.matmul(msg, w_msg_cat);
                g.end_scope(message, &[ha_all, dproj_all, msg_p_all]);
                let ha_dst_all = g.gather_rows_planned(ha_all, &plans.edge_dst);
                let ha_src_all = g.gather_rows_planned(ha_all, &plans.edge_src);

                for (k, head) in layer.heads.iter().enumerate() {
                    let head_scope = g.scope("head");
                    // Spatial-aware attention (Eq. 3-4).
                    let logit_scope = g.scope("head logits");
                    let ha_dst = g.slice_cols(ha_dst_all, k * head_dim, head_dim);
                    let ha_src = g.slice_cols(ha_src_all, k * head_dim, head_dim);
                    let dproj = g.slice_cols(dproj_all, k * dist_dim, dist_dim);
                    let feats = g.concat_cols(&[ha_dst, ha_src, dproj]);
                    let a_edge = g.gather_rows_planned(bind.var(head.att_table), &plans.edge_rel);
                    let raw = g.rows_dot(feats, a_edge);
                    g.end_scope(logit_scope, &[raw]);
                    let logits = g.leaky_relu(raw, 0.2);
                    let alpha = g.segment_softmax_planned(logits, &plans.intra);

                    let msg_p = g.slice_cols(msg_p_all, k * head_dim, head_dim);
                    let weighted = g.scale_rows(msg_p, alpha);
                    // Intra-relation aggregation …
                    let seg_agg = g.segment_sum_planned(weighted, &plans.intra);
                    // … then inter-relation aggregation into each POI.
                    let node_agg = g.segment_sum_planned(seg_agg, &plans.seg_dst);
                    g.end_scope(head_scope, &[node_agg]);
                    head_outs.push(node_agg);
                }
            }
            let self_term = g.matmul(h_star, bind.var(layer.w_self));
            let combined = if head_outs.is_empty() {
                self_term
            } else {
                let heads = g.concat_cols(&head_outs);
                g.add(heads, self_term)
            };
            h = g.elu(combined);
            hr = g.matmul(hr, bind.var(layer.w_rel));
            g.end_scope(layer_scope, &[h, hr]);
        }

        // Self-attentive spatial context (Eq. 6-10).
        if self.cfg.use_spatial_context && !inputs.spatial.is_empty() {
            let spatial = g.scope("spatial context");
            // One fused projection for queries/keys/values instead of three
            // passes over `h`; each slice equals its standalone matmul.
            let dim = self.cfg.dim;
            let w_qkv =
                g.concat_cols(&[bind.var(self.w_q), bind.var(self.w_k), bind.var(self.w_v)]);
            let qkv = g.matmul(h, w_qkv);
            let qm = g.slice_cols(qkv, 0, dim);
            let km = g.slice_cols(qkv, dim, dim);
            let vm = g.slice_cols(qkv, 2 * dim, dim);
            let q_dst = g.gather_rows_planned(qm, &plans.sp_dst);
            let k_src = g.gather_rows_planned(km, &plans.sp_src);
            let dots = g.rows_dot(q_dst, k_src);
            let scaled = g.scale(dots, 1.0 / (self.cfg.dim as f32).sqrt());
            let rbf = g.constant_ref(&inputs.spatial_rbf);
            let weighted_logits = g.mul(scaled, rbf);
            let beta = g.segment_softmax_planned(weighted_logits, &plans.sp_seg);
            let v_src = g.gather_rows_planned(vm, &plans.sp_src);
            let ctx_edges = g.scale_rows(v_src, beta);
            let ctx_seg = g.segment_sum_planned(ctx_edges, &plans.sp_seg);
            let ctx = g.segment_sum_planned(ctx_seg, &plans.sp_seg_dst);
            h = g.add(h, ctx);
            g.end_scope(spatial, &[h]);
        } else if self.cfg.use_spatial_context {
            if let Some(zero_ctx) = &inputs.spatial_forced_zero {
                // Subset with no spatial edges while the full graph has
                // some: the full pass adds an exact-zero context row to
                // every POI outside the spatial segments, so mirror the op
                // to keep the bit pattern identical.
                let ctx = g.constant_ref(zero_ctx);
                h = g.add(h, ctx);
            }
        }

        let rel_score = g.matmul(hr, bind.var(self.w_rel_score));
        ForwardOutput {
            h_final: h,
            rel_score,
        }
    }

    /// Scores a batch of triples on the tape (Eq. 11-12), returning `n×1`
    /// logits. All gathers use the [`TripleBatch`]'s shared plans, so a
    /// call makes no per-call index copies.
    pub fn score_triples_batch(
        &self,
        g: &mut Graph,
        bind: &Binding,
        fwd: &ForwardOutput,
        batch: &TripleBatch,
    ) -> Var {
        let mut h_src = g.gather_rows_planned(fwd.h_final, &batch.src);
        let mut h_dst = g.gather_rows_planned(fwd.h_final, &batch.dst);
        if self.cfg.use_distance_scoring {
            let wn = g.normalize_rows(bind.var(self.w_bins));
            let w_e = g.gather_rows_planned(wn, &batch.bins);
            let d_src = g.rows_dot(h_src, w_e);
            let proj_src = g.scale_rows(w_e, d_src);
            h_src = g.sub(h_src, proj_src);
            let d_dst = g.rows_dot(h_dst, w_e);
            let proj_dst = g.scale_rows(w_e, d_dst);
            h_dst = g.sub(h_dst, proj_dst);
        }
        let hr = g.gather_rows_planned(fwd.rel_score, &batch.rel);
        let lhs = g.mul(h_src, hr);
        g.rows_dot(lhs, h_dst)
    }

    /// Batch-parallel scoring + BCE: the per-triple subgraph of
    /// [`PrimModel::score_triples_batch`] (Eq. 11-12) differentiated by hand
    /// across worker-pool shards instead of built on the tape.
    ///
    /// The encoder forward stays on the tape; this routine reads `h_final`,
    /// `rel_score` and the normalised bin normals, computes per-triple logits
    /// and their gradients in fixed-size shards (each shard owns a disjoint
    /// row range of the output buffers, so writes never race), then reduces
    /// the per-triple rows into per-parameter-node seeds with the batch's
    /// [`SegmentPlan`]s in a fixed order: src rows, then dst rows, then
    /// relation rows, then bin rows. Shard boundaries depend only on the
    /// batch size — never the thread count — so the result is bitwise
    /// identical for any pool size. Feed the returned seeds to
    /// [`Graph::backward_seeded`] to continue the reverse pass through the
    /// encoder.
    ///
    /// Returns the mean BCE loss and the gradient seeds
    /// `(h_final, rel_score[, wn])`.
    pub fn scored_loss_parallel(
        &self,
        g: &mut Graph,
        bind: &Binding,
        fwd: &ForwardOutput,
        batch: &TripleBatch,
    ) -> (f32, Vec<(Var, Matrix)>) {
        /// Triples per parallel job; a shape-only constant (determinism).
        const SHARD: usize = 2048;
        let n = batch.len();
        assert!(n > 0, "scored_loss_parallel: empty batch");
        let use_dist = self.cfg.use_distance_scoring;
        let wn_var = if use_dist {
            Some(g.normalize_rows(bind.var(self.w_bins)))
        } else {
            None
        };
        let (n_pois, d) = g.shape(fwd.h_final);
        let rel_shape = g.shape(fwd.rel_score);

        // Per-triple gradient rows; row `t` is written by exactly one shard.
        let mut d_src_rows = g.scratch_uninit(n, d);
        let mut d_dst_rows = g.scratch_uninit(n, d);
        let mut d_rel_rows = g.scratch_uninit(n, d);
        let mut d_wn_rows = if use_dist {
            Some(g.scratch_uninit(n, d))
        } else {
            None
        };

        let n_shards = n.div_ceil(SHARD);
        let mut shard_loss = vec![0.0f64; n_shards];
        {
            let h = g.value(fwd.h_final).data();
            let rel = g.value(fwd.rel_score).data();
            let wn = wn_var.map(|v| g.value(v).data());
            let src_of = batch.src.segment_of_row();
            let rel_of = batch.rel.segment_of_row();
            let dst_of = batch.dst.segment_of_row();
            let bins_of = batch.bins.segment_of_row();
            let targets = &batch.targets[..];
            let p_src = pool::SendPtr::new(d_src_rows.data_mut().as_mut_ptr());
            let p_dst = pool::SendPtr::new(d_dst_rows.data_mut().as_mut_ptr());
            let p_rel = pool::SendPtr::new(d_rel_rows.data_mut().as_mut_ptr());
            let p_wn = d_wn_rows
                .as_mut()
                .map(|m| pool::SendPtr::new(m.data_mut().as_mut_ptr()));
            let p_loss = pool::SendPtr::new(shard_loss.as_mut_ptr());
            let inv_n = 1.0 / n as f32;
            pool::run(n_shards, |shard| {
                let t0 = shard * SHARD;
                let t1 = n.min(t0 + SHARD);
                let mut partial = 0.0f64;
                pool::with_scratch(|scratch| {
                    let mut ps = scratch.take(d);
                    let mut pd = scratch.take(d);
                    let mut dps = scratch.take(d);
                    let mut dpd = scratch.take(d);
                    for t in t0..t1 {
                        let hs = &h[src_of[t] * d..src_of[t] * d + d];
                        let hd = &h[dst_of[t] * d..dst_of[t] * d + d];
                        let hr = &rel[rel_of[t] * d..rel_of[t] * d + d];
                        let w = wn.map(|wn| &wn[bins_of[t] * d..bins_of[t] * d + d]);
                        // Forward: hyperplane projection (Eq. 11) …
                        let (mut a_s, mut a_d) = (0.0f32, 0.0f32);
                        if let Some(w) = w {
                            for k in 0..d {
                                a_s += hs[k] * w[k];
                                a_d += hd[k] * w[k];
                            }
                            for k in 0..d {
                                ps[k] = hs[k] - a_s * w[k];
                                pd[k] = hd[k] - a_d * w[k];
                            }
                        } else {
                            ps.copy_from_slice(hs);
                            pd.copy_from_slice(hd);
                        }
                        // … then the DistMult logit, in the tape's k-order
                        // (`mul` then `rows_dot`: `(ps·hr)·pd` per element).
                        let mut x = 0.0f32;
                        for k in 0..d {
                            x += ps[k] * hr[k] * pd[k];
                        }
                        let y = targets[t];
                        // max(x,0) - x*y + ln(1 + exp(-|x|)), as the tape's BCE.
                        partial += (x.max(0.0) - x * y + (-x.abs()).exp().ln_1p()) as f64;
                        let gl = (stable_sigmoid(x) - y) * inv_n;
                        // SAFETY (all raw writes below): row `t` of each
                        // buffer and slot `shard` of the loss partials belong
                        // to this shard alone, and `pool::run` joins every
                        // job before the enclosing borrows end.
                        let d_src =
                            unsafe { std::slice::from_raw_parts_mut(p_src.get().add(t * d), d) };
                        let d_dst =
                            unsafe { std::slice::from_raw_parts_mut(p_dst.get().add(t * d), d) };
                        let d_rel =
                            unsafe { std::slice::from_raw_parts_mut(p_rel.get().add(t * d), d) };
                        for k in 0..d {
                            dps[k] = gl * hr[k] * pd[k];
                            dpd[k] = gl * ps[k] * hr[k];
                            d_rel[k] = gl * ps[k] * pd[k];
                        }
                        if let (Some(w), Some(p_wn)) = (w, &p_wn) {
                            let d_wn =
                                unsafe { std::slice::from_raw_parts_mut(p_wn.get().add(t * d), d) };
                            // p = x - (x·w)w  ⇒  dx = dp - (dp·w)w and
                            // dw = -(x·w)dp - (dp·w)x, summed over both ends.
                            let (mut g_s, mut g_d) = (0.0f32, 0.0f32);
                            for k in 0..d {
                                g_s += dps[k] * w[k];
                                g_d += dpd[k] * w[k];
                            }
                            for k in 0..d {
                                d_src[k] = dps[k] - g_s * w[k];
                                d_dst[k] = dpd[k] - g_d * w[k];
                                d_wn[k] = -a_s * dps[k] - g_s * hs[k] - a_d * dpd[k] - g_d * hd[k];
                            }
                        } else {
                            d_src.copy_from_slice(&dps);
                            d_dst.copy_from_slice(&dpd);
                        }
                    }
                    scratch.put(ps);
                    scratch.put(pd);
                    scratch.put(dps);
                    scratch.put(dpd);
                });
                unsafe { *p_loss.get().add(shard) = partial };
            });
        }

        // Deterministic fixed-order accumulation into the gradient seeds:
        // src rows, then dst rows, into the shared `h_final` seed; relation
        // and bin rows into theirs. `segment_sum_into` adds segment rows in
        // ascending order regardless of thread count.
        let mut d_h = g.scratch_zeroed(n_pois, d);
        segment::segment_sum_into(&d_src_rows, &batch.src, &mut d_h);
        segment::segment_sum_into(&d_dst_rows, &batch.dst, &mut d_h);
        let mut d_rel = g.scratch_zeroed(rel_shape.0, rel_shape.1);
        segment::segment_sum_into(&d_rel_rows, &batch.rel, &mut d_rel);
        g.give_back(d_src_rows);
        g.give_back(d_dst_rows);
        g.give_back(d_rel_rows);
        let mut seeds = vec![(fwd.h_final, d_h), (fwd.rel_score, d_rel)];
        if let (Some(wv), Some(rows)) = (wn_var, d_wn_rows) {
            let (wr, wc) = g.shape(wv);
            let mut d_wn = g.scratch_zeroed(wr, wc);
            segment::segment_sum_into(&rows, &batch.bins, &mut d_wn);
            g.give_back(rows);
            seeds.push((wv, d_wn));
        }
        let loss = (shard_loss.iter().sum::<f64>() / n as f64) as f32;
        (loss, seeds)
    }

    /// Number of POIs the per-POI embedding table currently covers.
    pub fn n_poi_rows(&self) -> usize {
        self.store.value(self.node_emb).rows()
    }

    /// Grows the per-POI embedding table by `extra` zero rows for newly
    /// onboarded POIs. Zero rows are deterministic (replay-safe) and, like
    /// the paper's unseen POIs, leave the attribute/category pathway to
    /// carry a new POI's representation until the next retrain.
    pub fn extend_pois(&mut self, extra: usize) {
        self.store.extend_rows(self.node_emb, extra);
    }

    /// Runs a gradient-free forward pass and detaches all embeddings.
    ///
    /// The pass runs on an inference tape, so each scope of
    /// [`PrimModel::forward`] frees its intermediates when it ends; the
    /// result is bitwise equal to the same forward on a training tape.
    pub fn embed(&self, inputs: &ModelInputs) -> EmbeddingTable {
        let mut g = Graph::inference();
        let bind = self.store.bind(&mut g);
        let fwd = self.forward(&mut g, &bind, inputs);
        let bin_raw = self.store.value(self.w_bins);
        let mut bin_normals = bin_raw.clone();
        for r in 0..bin_normals.rows() {
            let norm = bin_normals.row_norm(r).max(1e-12);
            for x in bin_normals.row_mut(r) {
                *x /= norm;
            }
        }
        EmbeddingTable {
            pois: g.value(fwd.h_final).clone(),
            relations: g.value(fwd.rel_score).clone(),
            bin_normals,
        }
    }

    /// Eagerly scores one `(p_i, r, p_j)` triple from detached embeddings —
    /// the fast path whose latency Section 5.3 reports (1.57 ms with the
    /// hyperplane projection, 0.61 ms without, on the paper's hardware).
    pub fn score_pair_eager(
        &self,
        table: &EmbeddingTable,
        src: PoiId,
        rel: usize,
        dst: PoiId,
        bin: usize,
    ) -> f32 {
        let d = self.cfg.dim;
        let hs = table.pois.row(src.0 as usize);
        let hd = table.pois.row(dst.0 as usize);
        let hr = table.relations.row(rel);
        if self.cfg.use_distance_scoring {
            let w = table.bin_normals.row(bin);
            let ds: f32 = hs.iter().zip(w).map(|(&a, &b)| a * b).sum();
            let dd: f32 = hd.iter().zip(w).map(|(&a, &b)| a * b).sum();
            let mut total = 0.0f32;
            for k in 0..d {
                let ps = hs[k] - ds * w[k];
                let pd = hd[k] - dd * w[k];
                total += ps * hr[k] * pd;
            }
            total
        } else {
            let mut total = 0.0f32;
            for k in 0..d {
                total += hs[k] * hr[k] * hd[k];
            }
            total
        }
    }

    /// Predicts the best relation in `R* = R ∪ {φ}` for each pair.
    pub fn predict_pairs(
        &self,
        table: &EmbeddingTable,
        inputs: &ModelInputs,
        pairs: &[(PoiId, PoiId)],
    ) -> Vec<usize> {
        // Pairs are scored independently, so large batches fan out over
        // contiguous chunks; results are concatenated in input order.
        let per_pair = (self.n_relations + 1) * self.cfg.dim.max(1);
        let grain = (kernel::PAR_ELEM_CUTOFF / per_pair.max(1)).max(1);
        kernel::par_map_chunks(pairs, grain, |_, &(a, b)| {
            let bin = inputs.pair_bin(a, b, &self.cfg);
            let mut best = 0usize;
            let mut best_score = f32::NEG_INFINITY;
            for r in 0..=self.n_relations {
                let s = self.score_pair_eager(table, a, r, b, bin);
                if s > best_score {
                    best_score = s;
                    best = r;
                }
            }
            best
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prim_data::{Dataset, Scale};

    fn tiny() -> (Dataset, PrimConfig, ModelInputs) {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.1, 3);
        let cfg = PrimConfig {
            dim: 8,
            cat_dim: 4,
            n_layers: 2,
            n_heads: 2,
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
        (ds, cfg, inputs)
    }

    #[test]
    fn forward_shapes() {
        let (_, cfg, inputs) = tiny();
        let model = PrimModel::new(cfg.clone(), &inputs);
        let mut g = Graph::new();
        let bind = model.store.bind(&mut g);
        let fwd = model.forward(&mut g, &bind, &inputs);
        assert_eq!(g.shape(fwd.h_final), (inputs.n_pois, cfg.dim));
        assert_eq!(g.shape(fwd.rel_score), (inputs.n_relations + 1, cfg.dim));
        assert!(g.value(fwd.h_final).all_finite());
    }

    #[test]
    fn scoring_is_symmetric_in_pair_order() {
        // DistMult with a symmetric projection must satisfy s(i,r,j)=s(j,r,i).
        let (_, cfg, inputs) = tiny();
        let model = PrimModel::new(cfg, &inputs);
        let table = model.embed(&inputs);
        let a = PoiId(0);
        let b = PoiId(1);
        let bin = inputs.pair_bin(a, b, model.config());
        for r in 0..=model.phi() {
            let s1 = model.score_pair_eager(&table, a, r, b, bin);
            let s2 = model.score_pair_eager(&table, b, r, a, bin);
            assert!((s1 - s2).abs() < 1e-5, "asymmetric score {s1} vs {s2}");
        }
    }

    #[test]
    fn hyperplane_projection_changes_scores() {
        let (_, cfg, inputs) = tiny();
        let with = PrimModel::new(cfg.clone(), &inputs);
        let table = with.embed(&inputs);
        let a = PoiId(0);
        let b = PoiId(2);
        let s_bin0 = with.score_pair_eager(&table, a, 0, b, 0);
        let s_bin3 = with.score_pair_eager(&table, a, 0, b, 3);
        // Different bins project onto different hyperplanes → different scores.
        assert!((s_bin0 - s_bin3).abs() > 1e-7, "bins had no effect");
    }

    #[test]
    fn gradients_flow_to_all_parameter_groups() {
        let (_, cfg, inputs) = tiny();
        let mut model = PrimModel::new(cfg, &inputs);
        let mut g = Graph::new();
        let bind = model.store.bind(&mut g);
        let fwd = model.forward(&mut g, &bind, &inputs);
        let batch = TripleBatch::new(
            &model,
            &inputs,
            &[0, 1, 2],
            &[0, 1, model.phi()],
            &[3, 4, 5],
            &[0, 1, 2],
            &[1.0, 0.0, 1.0],
        );
        let logits = model.score_triples_batch(&mut g, &bind, &fwd, &batch);
        let loss = g.bce_with_logits_shared(logits, &batch.targets);
        let grads = g.backward(loss);
        model.store.accumulate(&bind, &grads);
        // Every major component must receive gradient.
        for id in [
            model.w_in,
            model.cat_table,
            model.rel_emb,
            model.w_rel_score,
            model.w_bins,
        ] {
            assert!(
                model.store.grad(id).max_abs() > 0.0,
                "no gradient reached {}",
                model.store.name(id)
            );
        }
        assert!(
            model.store.grad(model.w_q).max_abs() > 0.0,
            "spatial extractor unused"
        );
    }

    #[test]
    fn predict_returns_valid_relation_ids() {
        let (_, cfg, inputs) = tiny();
        let model = PrimModel::new(cfg, &inputs);
        let table = model.embed(&inputs);
        let pairs = vec![(PoiId(0), PoiId(1)), (PoiId(2), PoiId(3))];
        let preds = model.predict_pairs(&table, &inputs, &pairs);
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(|&p| p <= model.phi()));
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn embed_is_deterministic() {
        let (_, cfg, inputs) = tiny();
        let model = PrimModel::new(cfg, &inputs);
        let t1 = model.embed(&inputs);
        let t2 = model.embed(&inputs);
        assert_eq!(t1.pois.shape(), t2.pois.shape());
        assert_eq!(bits(&t1.pois), bits(&t2.pois));
        assert_eq!(bits(&t1.relations), bits(&t2.relations));
        assert_eq!(bits(&t1.bin_normals), bits(&t2.bin_normals));
    }

    /// `embed` (an inference tape whose scopes free intermediates) against
    /// the same forward on a training tape, bit for bit on both tables.
    fn assert_embed_matches_training_tape(model: &PrimModel, inputs: &ModelInputs, case: &str) {
        let table = model.embed(inputs);
        let mut g = Graph::new();
        let bind = model.store.bind(&mut g);
        let fwd = model.forward(&mut g, &bind, inputs);
        let (pois, relations) = (g.value(fwd.h_final), g.value(fwd.rel_score));
        assert_eq!(table.pois.shape(), pois.shape(), "{case}: POI table shape");
        assert_eq!(bits(&table.pois), bits(pois), "{case}: POI table");
        assert_eq!(
            table.relations.shape(),
            relations.shape(),
            "{case}: relation table shape"
        );
        assert_eq!(
            bits(&table.relations),
            bits(relations),
            "{case}: relation table"
        );
    }

    #[test]
    fn embed_matches_training_tape_forward_on_every_branch() {
        use crate::config::GammaOp;
        use prim_geo::{GridIndex, Location};
        let (ds, quick, inputs) = tiny();
        assert!(inputs.adjacency.num_directed_edges() > 0 && !inputs.spatial.is_empty());
        // Node embeddings on, so subset inputs gather their `node_rows`.
        let cfg = PrimConfig {
            use_node_embeddings: true,
            ..quick
        };
        let cases = [
            ("multiply, path sum", cfg.clone()),
            (
                "subtract",
                PrimConfig {
                    gamma: GammaOp::Subtract,
                    ..cfg.clone()
                },
            ),
            (
                "circular correlation",
                PrimConfig {
                    gamma: GammaOp::CircularCorrelation,
                    ..cfg.clone()
                },
            ),
            (
                "independent categories",
                PrimConfig {
                    taxonomy: TaxonomyMode::Independent,
                    ..cfg.clone()
                },
            ),
            (
                "no spatial context",
                PrimConfig {
                    use_spatial_context: false,
                    ..cfg.clone()
                },
            ),
            (
                "no node embeddings",
                PrimConfig {
                    use_node_embeddings: false,
                    ..cfg.clone()
                },
            ),
        ];
        for (case, c) in cases {
            assert_embed_matches_training_tape(&PrimModel::new(c, &inputs), &inputs, case);
        }

        let model = PrimModel::new(cfg.clone(), &inputs);
        let edgeless = ModelInputs::build(&ds.graph, &ds.taxonomy, &ds.attrs, &[], None, &cfg);
        assert_eq!(edgeless.adjacency.num_directed_edges(), 0);
        assert_embed_matches_training_tape(&model, &edgeless, "edgeless");

        let locations: Vec<Location> = ds.graph.pois().iter().map(|p| p.location).collect();
        let mut grid = GridIndex::build(&locations, cfg.spatial_radius_km.max(1e-6));
        let subset = |grid: &GridIndex, targets: &[u32]| {
            ModelInputs::build_subset(
                &ds.graph,
                &prim_graph::EdgeIncidence::build(&ds.graph),
                &ds.taxonomy,
                &ds.attrs,
                grid,
                targets,
                true,
                &cfg,
            )
            .inputs
        };
        let sub = subset(&grid, &[0, 2, 9]);
        assert!(sub.node_rows.is_some() && sub.spatial_forced_zero.is_none());
        assert_embed_matches_training_tape(&model, &sub, "subset");

        // A retired target has no spatial sources while the city has some,
        // so the subset adds the zero-context stand-in.
        grid.retire(4);
        let lone = subset(&grid, &[4]);
        assert!(lone.spatial_forced_zero.is_some());
        assert_embed_matches_training_tape(&model, &lone, "subset with forced-zero context");
    }

    #[test]
    fn gamma_operators_all_work_and_differ() {
        use crate::config::GammaOp;
        let (_, cfg, inputs) = tiny();
        let mut tables = Vec::new();
        for gamma in [
            GammaOp::Multiply,
            GammaOp::Subtract,
            GammaOp::CircularCorrelation,
        ] {
            let model = PrimModel::new(
                PrimConfig {
                    gamma,
                    ..cfg.clone()
                },
                &inputs,
            );
            let table = model.embed(&inputs);
            assert!(
                table.pois.all_finite(),
                "{gamma:?} produced non-finite output"
            );
            tables.push(table.pois);
        }
        assert_ne!(tables[0].row(0), tables[1].row(0));
        assert_ne!(tables[0].row(0), tables[2].row(0));
    }

    #[test]
    fn variants_shrink_parameter_count() {
        use crate::config::Variant;
        let (_, cfg, inputs) = tiny();
        let full = PrimModel::new(cfg.clone(), &inputs);
        let no_tax = PrimModel::new(cfg.clone().with_variant(Variant::from_name("-T")), &inputs);
        // Independent category table has fewer rows than the taxonomy table
        // (leaves only vs leaves + hypernyms + root).
        assert!(no_tax.num_parameters() < full.num_parameters());
    }

    /// A small mixed batch touching φ, several bins and repeated endpoints
    /// (so the seed reductions actually accumulate).
    fn parity_batch(model: &PrimModel, inputs: &ModelInputs) -> TripleBatch {
        let src = [0usize, 1, 2, 3, 0, 5, 1, 4];
        let rel = [0usize, 1, model.phi(), 0, 1, 0, model.phi(), 1];
        let dst = [3usize, 4, 5, 0, 2, 1, 4, 0];
        let bins = [0usize, 1, 2, 3, 0, 2, 1, 3];
        let labels = [1.0f32, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0];
        TripleBatch::new(model, inputs, &src, &rel, &dst, &bins, &labels)
    }

    #[test]
    fn parallel_scorer_matches_tape_gradients() {
        let (_, cfg, inputs) = tiny();
        // Two identically seeded models: one differentiates the scoring
        // subgraph on the tape, the other through the batch-parallel path.
        let mut tape = PrimModel::new(cfg.clone(), &inputs);
        let mut par = PrimModel::new(cfg, &inputs);
        let batch = parity_batch(&tape, &inputs);

        let mut g = Graph::new();
        let bind = tape.store.bind(&mut g);
        let fwd = tape.forward(&mut g, &bind, &inputs);
        let logits = tape.score_triples_batch(&mut g, &bind, &fwd, &batch);
        let loss = g.bce_with_logits_shared(logits, &batch.targets);
        let loss_tape = g.value(loss).scalar();
        let grads = g.backward(loss);
        tape.store.accumulate(&bind, &grads);

        let mut g2 = Graph::new();
        let bind2 = par.store.bind(&mut g2);
        let fwd2 = par.forward(&mut g2, &bind2, &inputs);
        let (loss_par, seeds) = par.scored_loss_parallel(&mut g2, &bind2, &fwd2, &batch);
        let grads2 = g2.backward_seeded(seeds);
        par.store.accumulate(&bind2, &grads2);

        assert!(
            (loss_tape - loss_par).abs() <= 1e-5 * loss_tape.abs().max(1.0),
            "loss mismatch: tape {loss_tape} vs parallel {loss_par}"
        );
        // Op-order rounding differs between the two paths, so the comparison
        // is approximate — but it covers every parameter group end to end.
        for ((n1, g1m), (n2, g2m)) in tape.store.iter_grads().zip(par.store.iter_grads()) {
            assert_eq!(n1, n2);
            for (a, b) in g1m.data().iter().zip(g2m.data()) {
                assert!(
                    (a - b).abs() <= 1e-5 + 1e-4 * a.abs().max(b.abs()),
                    "gradient mismatch in {n1}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn parallel_scorer_is_bitwise_deterministic_across_thread_counts() {
        let (_, cfg, inputs) = tiny();
        let run = |threads: usize| {
            kernel::set_threads(threads);
            let mut model = PrimModel::new(cfg.clone(), &inputs);
            // Big enough for several shards, so the pool genuinely fans out.
            let n = 6000;
            let (mut src, mut rel, mut dst, mut bins, mut labels) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for t in 0..n {
                src.push((t * 7 + 1) % inputs.n_pois);
                dst.push((t * 13 + 5) % inputs.n_pois);
                rel.push(t % (model.phi() + 1));
                bins.push(t % model.cfg.bins.len());
                labels.push(if t % 3 == 0 { 1.0 } else { 0.0 });
            }
            let batch = TripleBatch::new(&model, &inputs, &src, &rel, &dst, &bins, &labels);
            let mut g = Graph::new();
            let bind = model.store.bind(&mut g);
            let fwd = model.forward(&mut g, &bind, &inputs);
            let (loss, seeds) = model.scored_loss_parallel(&mut g, &bind, &fwd, &batch);
            let grads = g.backward_seeded(seeds);
            model.store.accumulate(&bind, &grads);
            let flat: Vec<f32> = model
                .store
                .iter_grads()
                .flat_map(|(_, m)| m.data().to_vec())
                .collect();
            kernel::set_threads(1);
            (loss, flat)
        };
        let (l1, g1) = run(1);
        let (l2, g2) = run(2);
        let (l8, g8) = run(8);
        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(l1.to_bits(), l8.to_bits());
        assert_eq!(g1, g2);
        assert_eq!(g1, g8);
    }
}
