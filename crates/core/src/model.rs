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
use prim_tensor::attention::{RelationalPlans, SpatialPlans};
use prim_tensor::kernel;
use prim_tensor::{pool, segment, stable_sigmoid};
use prim_tensor::{AttentionHead, Graph, Matrix, SegmentPlan, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Negative slope of the leaky ReLU on the attention logits (Eq. 3).
const ATTENTION_SLOPE: f32 = 0.2;

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

/// The sizes a PRIM model's parameter shapes take from its data, beside
/// the config: all [`PrimModel::restore`] needs in place of
/// [`ModelInputs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelDims {
    /// Number of POIs (rows of the per-POI embedding table).
    pub n_pois: usize,
    /// Number of relation types (excluding φ).
    pub n_relations: usize,
    /// Attribute feature width.
    pub attr_dim: usize,
    /// Number of taxonomy tree nodes.
    pub n_taxonomy_nodes: usize,
    /// Number of leaf categories.
    pub n_categories: usize,
}

impl ModelDims {
    /// The sizes of `inputs`.
    pub fn of(inputs: &ModelInputs) -> Self {
        ModelDims {
            n_pois: inputs.n_pois,
            n_relations: inputs.n_relations,
            attr_dim: inputs.attr_dim(),
            n_taxonomy_nodes: inputs.n_taxonomy_nodes,
            n_categories: inputs.n_categories,
        }
    }
}

/// How [`PrimModel::new`] draws a parameter's initial value.
#[derive(Clone, Copy)]
enum Init {
    /// [`init::xavier_uniform`].
    Xavier,
    /// [`init::embedding`].
    Embedding,
}

/// The store [`PrimModel::register`] fills, and where its values come from.
struct Registrar<F> {
    store: ParamStore,
    value: F,
}

impl<F: FnMut(&str, (usize, usize), Init) -> Matrix> Registrar<F> {
    fn add(
        &mut self,
        name: impl Into<String>,
        shape: (usize, usize),
        how: Init,
        decay: bool,
    ) -> ParamId {
        let name = name.into();
        let value = (self.value)(&name, shape, how);
        if decay {
            self.store.add(name, value)
        } else {
            self.store.add_no_decay(name, value)
        }
    }
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
        Self::from_vecs(
            model,
            inputs,
            src.to_vec(),
            rel.to_vec(),
            dst.to_vec(),
            bins.to_vec(),
            labels,
        )
    }

    /// [`TripleBatch::new`] over owned index arrays, which move into the
    /// plans without a copy. The four counting sorts run as pool jobs,
    /// the two POI-keyed ones first.
    pub fn from_vecs(
        model: &PrimModel,
        inputs: &ModelInputs,
        src: Vec<usize>,
        rel: Vec<usize>,
        dst: Vec<usize>,
        bins: Vec<usize>,
        labels: &[f32],
    ) -> Self {
        let n = labels.len();
        assert!(src.len() == n && rel.len() == n && dst.len() == n && bins.len() == n);
        let maps = [
            (src, inputs.n_pois),
            (dst, inputs.n_pois),
            (rel, model.n_relations + 1),
            (bins, model.cfg.bins.len()),
        ];
        let jobs = maps.map(|(map, segments)| Mutex::new((map, segments, None)));
        pool::run(jobs.len(), |i| {
            let mut job = jobs[i].lock().unwrap_or_else(|e| e.into_inner());
            let map = std::mem::take(&mut job.0);
            job.2 = Some(Arc::new(SegmentPlan::new(map, job.1)));
        });
        let [src, dst, rel, bins] = jobs.map(|job| {
            let (_, _, plan) = job.into_inner().unwrap_or_else(|e| e.into_inner());
            plan.expect("every plan job ran")
        });
        TripleBatch {
            src,
            rel,
            dst,
            bins,
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

    /// Creates a model for datasets with the given dimensions, every
    /// parameter drawn from the config seed's stream.
    pub fn new(cfg: PrimConfig, inputs: &ModelInputs) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        Self::register(
            cfg,
            &ModelDims::of(inputs),
            |_, (rows, cols), how| match how {
                Init::Xavier => init::xavier_uniform(&mut rng, rows, cols),
                Init::Embedding => init::embedding(&mut rng, rows, cols),
            },
        )
    }

    /// Restores a model from its parameters' `(name, value)` entries in
    /// registration order, as a checkpoint stores them, without
    /// [`ModelInputs`] and without a random draw. The entries must match
    /// the parameter list [`PrimModel::new`] registers for `cfg` and `dims`
    /// exactly; a mismatch is the error [`ParamStore::import_named`]
    /// reports. The model equals `new` followed by `import_named` of the
    /// same entries, bit for bit.
    ///
    /// # Panics
    /// As [`PrimModel::new`], when `cfg.n_heads` does not divide `cfg.dim`.
    pub fn restore(
        cfg: PrimConfig,
        dims: &ModelDims,
        entries: Vec<(String, Matrix)>,
    ) -> Result<Self, String> {
        // The parameter list alone: empty placeholder values, shapes kept.
        let mut list = Vec::new();
        Self::register(cfg.clone(), dims, |name, shape, _| {
            list.push((name.to_string(), shape));
            Matrix::zeros(0, 0)
        });
        ParamStore::check_named(list.iter().map(|(n, s)| (n.as_str(), *s)), &entries)?;
        let mut values = entries.into_iter().map(|(_, value)| value);
        Ok(Self::register(cfg, dims, |_, _, _| {
            values.next().expect("entries were counted")
        }))
    }

    /// Registers every parameter, in the order and with the names, shapes
    /// and decay flags that checkpoints store, taking each value from
    /// `value(name, shape, init)`: the one parameter list [`PrimModel::new`]
    /// and [`PrimModel::restore`] share.
    fn register(
        cfg: PrimConfig,
        dims: &ModelDims,
        value: impl FnMut(&str, (usize, usize), Init) -> Matrix,
    ) -> Self {
        let mut r = Registrar {
            store: ParamStore::new(),
            value,
        };
        let dim = cfg.dim;
        let cat = cfg.cat_dim;
        let star = dim + cat;
        let r_all = dims.n_relations + 1;
        let head_dim = cfg.head_dim();
        let att_in = 2 * head_dim + cfg.dist_feat_dim;

        let w_in = r.add("w_in", (dims.attr_dim, dim), Init::Xavier, true);
        let node_emb = r.add("node_emb", (dims.n_pois, dim), Init::Embedding, false);
        let cat_rows = match cfg.taxonomy {
            TaxonomyMode::PathSum => dims.n_taxonomy_nodes,
            TaxonomyMode::Independent => dims.n_categories,
        };
        let cat_table = r.add("cat_table", (cat_rows, cat), Init::Embedding, false);
        let rel_emb = r.add("rel_emb", (r_all, star), Init::Embedding, false);

        let mut layers = Vec::with_capacity(cfg.n_layers);
        for l in 0..cfg.n_layers {
            let mut heads = Vec::with_capacity(cfg.n_heads);
            for k in 0..cfg.n_heads {
                heads.push(Head {
                    w_att: r.add(
                        format!("l{l}.h{k}.w_att"),
                        (star, head_dim),
                        Init::Xavier,
                        true,
                    ),
                    w_dist: r.add(
                        format!("l{l}.h{k}.w_dist"),
                        (2, cfg.dist_feat_dim),
                        Init::Xavier,
                        true,
                    ),
                    att_table: r.add(
                        format!("l{l}.h{k}.att"),
                        (dims.n_relations, att_in),
                        Init::Embedding,
                        true,
                    ),
                    w_msg: r.add(
                        format!("l{l}.h{k}.w_msg"),
                        (star, head_dim),
                        Init::Xavier,
                        true,
                    ),
                });
            }
            layers.push(Layer {
                heads,
                w_self: r.add(format!("l{l}.w_self"), (star, dim), Init::Xavier, true),
                w_rel: r.add(format!("l{l}.w_rel"), (star, star), Init::Xavier, true),
            });
        }

        let w_rel_score = r.add("w_rel_score", (star, dim), Init::Xavier, true);
        let w_q = r.add("w_q", (dim, dim), Init::Xavier, true);
        let w_k = r.add("w_k", (dim, dim), Init::Xavier, true);
        let w_v = r.add("w_v", (dim, dim), Init::Xavier, true);
        let w_bins = r.add("w_bins", (cfg.bins.len(), dim), Init::Embedding, false);

        PrimModel {
            cfg,
            store: r.store,
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
            n_relations: dims.n_relations,
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
    /// Every attention head, and the spatial context, runs as one fused
    /// pass over the destinations' segments ([`prim_tensor::attention`]).
    /// On a training tape each fused node keeps only its softmax weights
    /// and differentiates by hand, bitwise as the composed tape ops would.
    /// An inference tape ([`PrimModel::embed`]) also computes each message
    /// once per `(source, relation)` key instead of once per edge; both
    /// give the same bits.
    ///
    /// The pass is cut into scopes — each layer, its message block and the
    /// γ messages inside it, the spatial-context block — whose ends free
    /// the intermediates on an inference tape and do nothing on a training
    /// tape.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, inputs: &ModelInputs) -> ForwardOutput {
        self.forward_with(g, bind, inputs, false)
    }

    /// [`PrimModel::forward`] through the composed attention ops (gathers,
    /// slices, concats, `rows_dot`, segment softmax, `scale_rows`, segment
    /// sums) on a training tape: the oracle the fused nodes are tested
    /// against, bit for bit. Not for production use.
    #[doc(hidden)]
    pub fn forward_composed(
        &self,
        g: &mut Graph,
        bind: &Binding,
        inputs: &ModelInputs,
    ) -> ForwardOutput {
        assert!(
            !g.is_inference(),
            "forward_composed: the oracle runs on a training tape"
        );
        self.forward_with(g, bind, inputs, true)
    }

    fn forward_with(
        &self,
        g: &mut Graph,
        bind: &Binding,
        inputs: &ModelInputs,
        composed: bool,
    ) -> ForwardOutput {
        let adj = &inputs.adjacency;
        let plans = &inputs.plans;
        let keyed = g.is_inference();

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

        let dist_feats = composed.then(|| g.constant_ref(&inputs.edge_dist_feats));
        let has_edges = adj.num_directed_edges() > 0;
        let edges = RelationalPlans {
            segments: Arc::clone(&plans.intra),
            seg_dst: Arc::clone(&plans.seg_dst),
            src: Arc::clone(&plans.edge_src),
            dst: Arc::clone(&plans.edge_dst),
            rel: Arc::clone(&plans.edge_rel),
            key: keyed.then(|| Arc::clone(&plans.edge_key)),
            dist: Arc::clone(&inputs.edge_dist_feats),
        };

        let head_dim = self.cfg.head_dim();
        let dist_dim = self.cfg.dist_feat_dim;
        for layer in &self.layers {
            let layer_scope = g.scope("layer");
            let h_star = g.concat_cols(&[h, q]);
            let mut head_outs = Vec::with_capacity(layer.heads.len());
            if has_edges {
                // Relation-specific messages γ(h*_j, h_r) (Eq. 1) do not
                // depend on the head, so compute them once per layer.
                // On an inference tape, once per `(source, relation)` key
                // rather than per edge: the matmul below sums each element
                // in ascending k, so a row's bits do not depend on where it
                // sits. A training tape keeps one row per edge, because the
                // message weights' gradient is an ascending-edge chain.
                let message = g.scope("message");
                let gamma = g.scope("gamma");
                let (src_plan, rel_plan) = if keyed {
                    (&plans.key_src, &plans.key_rel)
                } else {
                    (&plans.edge_src, &plans.edge_rel_all)
                };
                let h_src = g.gather_rows_planned(h_star, src_plan);
                let hr_edge = g.gather_rows_planned(hr, rel_plan);
                let msg = match self.cfg.gamma {
                    GammaOp::Multiply => g.mul(h_src, hr_edge),
                    GammaOp::Subtract => g.sub(h_src, hr_edge),
                    GammaOp::CircularCorrelation => g.rows_circ_corr(h_src, hr_edge),
                };
                g.end_scope(gamma, &[msg]);

                // Batch the per-head projections into single wide matmuls
                // (columns of a product are independent, so each head's slice
                // is identical to its standalone matmul).
                let w_att_all: Vec<Var> = layer.heads.iter().map(|hd| bind.var(hd.w_att)).collect();
                let w_dist_all: Vec<Var> =
                    layer.heads.iter().map(|hd| bind.var(hd.w_dist)).collect();
                let w_msg_all: Vec<Var> = layer.heads.iter().map(|hd| bind.var(hd.w_msg)).collect();
                let w_att_cat = g.concat_cols(&w_att_all);
                // The composed heads project every edge's distance features
                // here; the fused heads project each edge's as they read it.
                let w_dist_cat = dist_feats.map(|d| (d, g.concat_cols(&w_dist_all)));
                let w_msg_cat = g.concat_cols(&w_msg_all);
                let ha_all = g.matmul(h_star, w_att_cat);
                let dproj_all = w_dist_cat.map(|(d, w)| g.matmul(d, w));
                let msg_p_all = g.matmul(msg, w_msg_cat);
                if let Some(dproj_all) = dproj_all {
                    g.end_scope(message, &[ha_all, dproj_all, msg_p_all]);
                    let ha_dst_all = g.gather_rows_planned(ha_all, &plans.edge_dst);
                    let ha_src_all = g.gather_rows_planned(ha_all, &plans.edge_src);
                    for (k, head) in layer.heads.iter().enumerate() {
                        // Spatial-aware attention (Eq. 3-4).
                        let ha_dst = g.slice_cols(ha_dst_all, k * head_dim, head_dim);
                        let ha_src = g.slice_cols(ha_src_all, k * head_dim, head_dim);
                        let dproj = g.slice_cols(dproj_all, k * dist_dim, dist_dim);
                        let feats = g.concat_cols(&[ha_dst, ha_src, dproj]);
                        let a_edge =
                            g.gather_rows_planned(bind.var(head.att_table), &plans.edge_rel);
                        let raw = g.rows_dot(feats, a_edge);
                        let logits = g.leaky_relu(raw, ATTENTION_SLOPE);
                        let alpha = g.segment_softmax_planned(logits, &plans.intra);

                        let msg_p = g.slice_cols(msg_p_all, k * head_dim, head_dim);
                        let weighted = g.scale_rows(msg_p, alpha);
                        // Intra-relation aggregation …
                        let seg_agg = g.segment_sum_planned(weighted, &plans.intra);
                        // … then inter-relation aggregation into each POI.
                        head_outs.push(g.segment_sum_planned(seg_agg, &plans.seg_dst));
                    }
                } else {
                    g.end_scope(message, &[ha_all, msg_p_all]);
                    for (k, head) in layer.heads.iter().enumerate() {
                        // Spatial-aware attention (Eq. 3-5), one pass.
                        let operands = AttentionHead {
                            ha: ha_all,
                            msg: msg_p_all,
                            col: k * head_dim,
                            width: head_dim,
                            w_dist: w_dist_all[k],
                            att: bind.var(head.att_table),
                            slope: ATTENTION_SLOPE,
                        };
                        head_outs.push(g.relational_attention(operands, &edges));
                    }
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

        // Self-attentive spatial context (Eq. 6-10). A POI with no spatial
        // neighbour gets an exact-zero context, which leaves `h` bit for bit.
        if self.cfg.use_spatial_context {
            let spatial = g.scope("spatial context");
            // One fused projection for queries/keys/values instead of three
            // passes over `h`; each slice equals its standalone matmul.
            let dim = self.cfg.dim;
            let w_qkv =
                g.concat_cols(&[bind.var(self.w_q), bind.var(self.w_k), bind.var(self.w_v)]);
            let qkv = g.matmul(h, w_qkv);
            let scale = 1.0 / (dim as f32).sqrt();
            let ctx = if composed {
                let qm = g.slice_cols(qkv, 0, dim);
                let km = g.slice_cols(qkv, dim, dim);
                let vm = g.slice_cols(qkv, 2 * dim, dim);
                let q_dst = g.gather_rows_planned(qm, &plans.sp_dst);
                let k_src = g.gather_rows_planned(km, &plans.sp_src);
                let dots = g.rows_dot(q_dst, k_src);
                let scaled = g.scale(dots, scale);
                let rbf = g.constant_ref(&inputs.spatial_rbf);
                let weighted_logits = g.mul(scaled, rbf);
                let beta = g.segment_softmax_planned(weighted_logits, &plans.sp_seg);
                let v_src = g.gather_rows_planned(vm, &plans.sp_src);
                let ctx_edges = g.scale_rows(v_src, beta);
                let ctx_seg = g.segment_sum_planned(ctx_edges, &plans.sp_seg);
                g.segment_sum_planned(ctx_seg, &plans.sp_seg_dst)
            } else {
                let edges = SpatialPlans {
                    segments: Arc::clone(&plans.sp_seg),
                    seg_dst: Arc::clone(&plans.sp_seg_dst),
                    src: Arc::clone(&plans.sp_src),
                    dst: Arc::clone(&plans.sp_dst),
                    rbf: Arc::clone(&inputs.spatial_rbf),
                };
                g.spatial_attention(qkv, scale, &edges)
            };
            h = g.add(h, ctx);
            g.end_scope(spatial, &[h]);
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
    /// `rel_score` and the normalised bin normals and scores fixed-size
    /// shards of triples, each into its worker's scratch. A shard's source,
    /// relation and bin gradient rows are added into their seeds while they
    /// are still in that cache, shard after shard in ascending order, so
    /// each seed element is the same ascending-row chain from `+0.0` that a
    /// segment sum builds. The destination rows go to a batch-wide plane
    /// reduced after the last shard, because the `h_final` seed adds every
    /// destination row after every source row. Shard boundaries depend
    /// only on the batch size — never the thread count — so the result is
    /// bitwise identical for any pool size, and to the test oracle
    /// `PrimModel::scored_loss_reference`. Feed the returned seeds to
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
        let n = batch.len();
        assert!(n > 0, "scored_loss_parallel: empty batch");
        let wn_var = self
            .cfg
            .use_distance_scoring
            .then(|| g.normalize_rows(bind.var(self.w_bins)));
        let (n_pois, d) = g.shape(fwd.h_final);
        let (n_rel, _) = g.shape(fwd.rel_score);
        let n_bins = wn_var.map_or(0, |v| g.shape(v).0);
        let mut d_h = g.scratch_zeroed(n_pois, d);
        let mut d_rel = g.scratch_zeroed(n_rel, d);
        let mut d_wn = wn_var.map(|_| g.scratch_zeroed(n_bins, d));
        let mut d_dst_rows = g.scratch_uninit(n, d);

        let n_shards = n.div_ceil(SCORE_SHARD);
        let mut shard_loss = vec![0.0f64; n_shards];
        {
            let scorer = ShardScorer {
                d,
                h: g.value(fwd.h_final).data(),
                rel: g.value(fwd.rel_score).data(),
                wn: wn_var.map(|v| g.value(v).data()),
                batch,
                inv_n: 1.0 / n as f32,
            };
            let p_dst = pool::SendPtr::new(d_dst_rows.data_mut().as_mut_ptr());
            let p_h = pool::SendPtr::new(d_h.data_mut().as_mut_ptr());
            let p_rel = pool::SendPtr::new(d_rel.data_mut().as_mut_ptr());
            let p_wn = d_wn
                .as_mut()
                .map(|m| pool::SendPtr::new(m.data_mut().as_mut_ptr()));
            let p_loss = pool::SendPtr::new(shard_loss.as_mut_ptr());
            let next_shard = AtomicUsize::new(0);
            pool::run(n_shards, |shard| {
                let ticket = Ticket {
                    next: &next_shard,
                    mine: shard,
                };
                let rows = shard * SCORE_SHARD..n.min(shard * SCORE_SHARD + SCORE_SHARD);
                let len = rows.len() * d;
                let wn_len = if p_wn.is_some() { SCORE_SHARD * d } else { 0 };
                let mut bufs = pool::with_scratch(|s| {
                    [SCORE_SHARD * d, SCORE_SHARD * d, wn_len].map(|len| s.take(len))
                });
                let [src_rows, rel_rows, wn_rows] = &mut bufs;
                // SAFETY: rows `rows` of the destination plane and slot
                // `shard` of the loss partials belong to this shard alone;
                // the seeds are written only under the shard's ticket,
                // which orders the shards' writes one after another; and
                // `pool::run` joins every job before the borrows end.
                let dst_rows =
                    unsafe { std::slice::from_raw_parts_mut(p_dst.get().add(rows.start * d), len) };
                let loss = scorer.score(
                    rows.clone(),
                    &mut src_rows[..len],
                    dst_rows,
                    &mut rel_rows[..len],
                    wn_rows.get_mut(..len).unwrap_or(&mut []),
                );
                unsafe { *p_loss.get().add(shard) = loss };
                ticket.wait();
                let seed = |p: &pool::SendPtr<f32>, rows: usize| unsafe {
                    std::slice::from_raw_parts_mut(p.get(), rows * d)
                };
                add_rows(
                    seed(&p_h, n_pois),
                    d,
                    &batch.src.segment_of_row()[rows.clone()],
                    src_rows,
                );
                add_rows(
                    seed(&p_rel, n_rel),
                    d,
                    &batch.rel.segment_of_row()[rows.clone()],
                    rel_rows,
                );
                if let Some(p_wn) = &p_wn {
                    add_rows(
                        seed(p_wn, n_bins),
                        d,
                        &batch.bins.segment_of_row()[rows],
                        wn_rows,
                    );
                }
                drop(ticket);
                pool::with_scratch(|s| bufs.into_iter().for_each(|b| s.put(b)));
            });
        }

        // Every destination row after every source row, in triple order:
        // one sequential pass over the plane, which reads it faster than
        // a segment sum's per-destination gathers.
        add_rows(
            d_h.data_mut(),
            d,
            batch.dst.segment_of_row(),
            d_dst_rows.data(),
        );
        g.give_back(d_dst_rows);
        let mut seeds = vec![(fwd.h_final, d_h), (fwd.rel_score, d_rel)];
        if let (Some(wv), Some(d_wn)) = (wn_var, d_wn) {
            seeds.push((wv, d_wn));
        }
        let loss = (shard_loss.iter().sum::<f64>() / n as f64) as f32;
        (loss, seeds)
    }

    /// [`PrimModel::scored_loss_parallel`] as it first stood: the same
    /// shards write every gradient row into four batch-wide planes, which
    /// four segment sums then reduce (source rows, then destination rows,
    /// then relation rows, then bin rows). The oracle the reduce-as-you-go
    /// scorer is tested against, bit for bit. Not for production use.
    #[doc(hidden)]
    pub fn scored_loss_reference(
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
    /// The pass runs on an inference tape, so [`PrimModel::forward`] takes
    /// its fused path and each of its scopes frees its intermediates when
    /// it ends; the result is bitwise equal to the same forward on a
    /// training tape.
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

/// Triples per scoring shard; a shape-only constant (the loss partials
/// and the reduction order follow it, never the thread count).
const SCORE_SHARD: usize = 2048;

/// Shard `mine`'s turn in an ordered reduction. [`Ticket::wait`] returns
/// once shards `0..mine` have dropped their tickets; dropping this one
/// (after the shard's reduction, or while unwinding from a panic) waits
/// for the turn too and then passes it on. `pool::run` claims indices in
/// ascending order and a nested or contended run executes them inline in
/// order, so a shard's predecessors are always running or done and every
/// wait ends. Waiters yield their CPU: with more pool threads than cores,
/// a spinning waiter would take it from the shard it waits for.
struct Ticket<'a> {
    next: &'a AtomicUsize,
    mine: usize,
}

impl Ticket<'_> {
    fn wait(&self) {
        while self.next.load(Ordering::Acquire) != self.mine {
            std::thread::yield_now();
        }
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.wait();
        self.next.store(self.mine + 1, Ordering::Release);
    }
}

/// `seed[segment[r]] += rows[r]` for each row in order, `d` wide.
fn add_rows(seed: &mut [f32], d: usize, segment: &[usize], rows: &[f32]) {
    for (&s, row) in segment.iter().zip(rows.chunks_exact(d)) {
        for (o, &x) in seed[s * d..s * d + d].iter_mut().zip(row) {
            *o += x;
        }
    }
}

/// What a scoring shard reads: the encoder's outputs and the batch.
struct ShardScorer<'a> {
    d: usize,
    h: &'a [f32],
    rel: &'a [f32],
    wn: Option<&'a [f32]>,
    batch: &'a TripleBatch,
    inv_n: f32,
}

impl ShardScorer<'_> {
    /// Scores triples `rows` (Eq. 11-12 and the BCE) and writes their
    /// gradient rows: with respect to the source and destination
    /// embeddings, the relation row and (with distance scoring) the bin
    /// normal, `d` floats per triple in triple order. Returns the shard's
    /// BCE sum, accumulated in triple order.
    fn score(
        &self,
        rows: std::ops::Range<usize>,
        d_src: &mut [f32],
        d_dst: &mut [f32],
        d_rel: &mut [f32],
        d_wn: &mut [f32],
    ) -> f64 {
        let d = self.d;
        fn row(m: &[f32], i: usize, d: usize) -> &[f32] {
            &m[i * d..i * d + d]
        }
        let (src_of, dst_of) = (
            self.batch.src.segment_of_row(),
            self.batch.dst.segment_of_row(),
        );
        let (rel_of, bins_of) = (
            self.batch.rel.segment_of_row(),
            self.batch.bins.segment_of_row(),
        );
        let mut proj = pool::with_scratch(|s| s.take(2 * d));
        let (ps_buf, pd_buf) = proj.split_at_mut(d);
        let mut partial = 0.0f64;
        for (r, t) in rows.enumerate() {
            let (hs, hd) = (row(self.h, src_of[t], d), row(self.h, dst_of[t], d));
            let hr = row(self.rel, rel_of[t], d);
            let out = r * d..r * d + d;
            let (o_src, o_dst, o_rel) = (
                &mut d_src[out.clone()],
                &mut d_dst[out.clone()],
                &mut d_rel[out.clone()],
            );
            // Forward: hyperplane projection (Eq. 11) …
            let w = self.wn.map(|wn| row(wn, bins_of[t], d));
            let (mut a_s, mut a_d) = (0.0f32, 0.0f32);
            let (ps, pd): (&[f32], &[f32]) = match w {
                Some(w) => {
                    for ((&s, &e), &wk) in hs.iter().zip(hd).zip(w) {
                        a_s += s * wk;
                        a_d += e * wk;
                    }
                    for ((p, q), ((&s, &e), &wk)) in ps_buf
                        .iter_mut()
                        .zip(pd_buf.iter_mut())
                        .zip(hs.iter().zip(hd).zip(w))
                    {
                        *p = s - a_s * wk;
                        *q = e - a_d * wk;
                    }
                    (ps_buf, pd_buf)
                }
                None => (hs, hd),
            };
            // … then the DistMult logit, in the tape's k-order (`mul` then
            // `rows_dot`: `(ps·hr)·pd` per element).
            let mut x = 0.0f32;
            for ((&p, &q), &r) in ps.iter().zip(pd).zip(hr) {
                x += p * r * q;
            }
            let y = self.batch.targets[t];
            // max(x,0) - x*y + ln(1 + exp(-|x|)), as the tape's BCE, and
            // the sigmoid from the same exp: `stable_sigmoid` evaluates
            // exactly `exp(-|x|)` on both of its branches.
            let e = (-x.abs()).exp();
            partial += (x.max(0.0) - x * y + e.ln_1p()) as f64;
            let sigmoid = if x >= 0.0 {
                1.0 / (1.0 + e)
            } else {
                e / (1.0 + e)
            };
            let gl = (sigmoid - y) * self.inv_n;
            for (((os, od), or), ((&p, &q), &r)) in o_src
                .iter_mut()
                .zip(o_dst.iter_mut())
                .zip(o_rel.iter_mut())
                .zip(ps.iter().zip(pd).zip(hr))
            {
                *os = gl * r * q;
                *od = gl * p * r;
                *or = gl * p * q;
            }
            if let Some(w) = w {
                // p = x - (x·w)w  ⇒  dx = dp - (dp·w)w and
                // dw = -(x·w)dp - (dp·w)x, summed over both ends.
                let (mut g_s, mut g_d) = (0.0f32, 0.0f32);
                for ((&os, &od), &wk) in o_src.iter().zip(o_dst.iter()).zip(w) {
                    g_s += os * wk;
                    g_d += od * wk;
                }
                let o_wn = &mut d_wn[out];
                for (((ow, os), od), ((&s, &e), &wk)) in o_wn
                    .iter_mut()
                    .zip(o_src.iter_mut())
                    .zip(o_dst.iter_mut())
                    .zip(hs.iter().zip(hd).zip(w))
                {
                    let (dps, dpd) = (*os, *od);
                    *ow = -a_s * dps - g_s * s - a_d * dpd - g_d * e;
                    *os = dps - g_s * wk;
                    *od = dpd - g_d * wk;
                }
            }
        }
        pool::with_scratch(|s| s.put(proj));
        partial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prim_data::{Dataset, Scale};
    use prim_nn::Adam;

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
        for_each_forward_branch(assert_embed_matches_training_tape);
    }

    /// A model with `model`'s configuration and parameter values.
    fn twin(model: &PrimModel) -> PrimModel {
        let cat_rows = model.store.value(model.cat_table).rows();
        let dims = ModelDims {
            n_pois: model.n_poi_rows(),
            n_relations: model.n_relations,
            attr_dim: model.store.value(model.w_in).rows(),
            n_taxonomy_nodes: cat_rows,
            n_categories: cat_rows,
        };
        let entries = model
            .params()
            .entries()
            .map(|(n, v, _)| (n.to_string(), v.clone()))
            .collect();
        PrimModel::restore(model.cfg.clone(), &dims, entries).expect("same parameter list")
    }

    /// One training step's forward, off-tape scoring and backward, as
    /// `train_step` runs it, through the fused nodes or the composed
    /// oracle; the gradients land in the model's store.
    fn oracle_step(
        model: &mut PrimModel,
        inputs: &ModelInputs,
        g: &mut Graph,
        batch: &TripleBatch,
        composed: bool,
    ) -> (Vec<u32>, f32) {
        g.reset();
        let bind = model.store.bind(g);
        let fwd = if composed {
            model.forward_composed(g, &bind, inputs)
        } else {
            model.forward(g, &bind, inputs)
        };
        let values = [bits(g.value(fwd.h_final)), bits(g.value(fwd.rel_score))].concat();
        let (loss, seeds) = model.scored_loss_parallel(g, &bind, &fwd, batch);
        let grads = g.backward_seeded(seeds);
        model.store.accumulate(&bind, &grads);
        g.recycle(grads);
        (values, loss)
    }

    /// The training tape (fused attention nodes) against the composed
    /// oracle: the forward values, one step's gradient of every parameter
    /// group, and every parameter after three Adam steps, bit for bit; and
    /// `embed` against the oracle's forward.
    fn assert_training_tape_matches_oracle(model: &PrimModel, inputs: &ModelInputs, case: &str) {
        let n = inputs.n_pois;
        let triples = 96;
        let pick = |t: usize, a: usize, b: usize| (t * a + b) % n;
        let src: Vec<usize> = (0..triples).map(|t| pick(t, 7, 1)).collect();
        let dst: Vec<usize> = (0..triples).map(|t| pick(t, 13, 5)).collect();
        let rel: Vec<usize> = (0..triples).map(|t| t % (model.phi() + 1)).collect();
        let bins: Vec<usize> = (0..triples).map(|t| t % model.cfg.bins.len()).collect();
        let labels: Vec<f32> = (0..triples).map(|t| (t % 3 == 0) as u8 as f32).collect();
        let batch = TripleBatch::new(model, inputs, &src, &rel, &dst, &bins, &labels);

        let (mut fused, mut oracle) = (twin(model), twin(model));
        let (mut g_fused, mut g_oracle) = (Graph::new(), Graph::new());
        let cfg = &model.cfg;
        let adam = || Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
        let (mut adam_fused, mut adam_oracle) = (adam(), adam());
        for step in 0..3 {
            let (v_fused, l_fused) = oracle_step(&mut fused, inputs, &mut g_fused, &batch, false);
            let (v_oracle, l_oracle) =
                oracle_step(&mut oracle, inputs, &mut g_oracle, &batch, true);
            assert_eq!(v_fused, v_oracle, "{case}: forward values at step {step}");
            assert_eq!(
                l_fused.to_bits(),
                l_oracle.to_bits(),
                "{case}: loss at step {step}"
            );
            if step == 0 {
                let table = fused.embed(inputs);
                let embedded = [bits(&table.pois), bits(&table.relations)].concat();
                assert_eq!(embedded, v_oracle, "{case}: embed against the oracle");
            }
            for ((name, a), (_, b)) in fused.store.iter_grads().zip(oracle.store.iter_grads()) {
                assert_eq!(
                    bits(a),
                    bits(b),
                    "{case}: gradient of {name} at step {step}"
                );
            }
            for (m, adam) in [
                (&mut fused, &mut adam_fused),
                (&mut oracle, &mut adam_oracle),
            ] {
                m.store.clip_grad_norm(cfg.grad_clip);
                adam.step(&mut m.store);
            }
        }
        for ((name, a, _), (_, b, _)) in fused.params().entries().zip(oracle.params().entries()) {
            assert_eq!(bits(a), bits(b), "{case}: {name} after three Adam steps");
        }
    }

    #[test]
    fn training_tape_matches_composed_oracle_on_every_branch() {
        for_each_forward_branch(assert_training_tape_matches_oracle);
    }

    /// Runs `check(model, inputs, case)` on every branch of the forward
    /// pass: each γ operator, both taxonomy modes, spatial context and node
    /// embeddings off, dense message keys, no edges, no spatial edge, and
    /// subset inputs with and without spatial edges.
    fn for_each_forward_branch(check: impl Fn(&PrimModel, &ModelInputs, &str)) {
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
            check(&PrimModel::new(c, &inputs), &inputs, case);
        }

        // Dense keys: perfbench's metro layout at 1k POIs, whose `(dst, rel)`
        // segments average ten edges, so the inference tape's messages
        // each serve about ten edges and every segment reuses its folded
        // dst part of the logit. The tiny city rarely repeats a key.
        let metro = {
            use prim_data::generator::generate_taxonomy;
            use prim_data::{CityConfig, RelationConfig, TaxonomyConfig};
            let city = CityConfig {
                name: "metro-1k".into(),
                city_radius_km: 65.0,
                core_radius_km: 22.0,
                n_clusters: 200,
                ..CityConfig::singapore(1_000)
            };
            let relations = RelationConfig {
                candidate_radius_km: 2.5,
                complementary_decay_km: 2.5,
                random_candidates: 0,
                category_candidates: 0,
                ..RelationConfig::binary()
            };
            let taxonomy = generate_taxonomy(&TaxonomyConfig::preset(Scale::Quick));
            Dataset::generate(&city, &taxonomy, &relations)
        };
        let dense = ModelInputs::build(
            &metro.graph,
            &metro.taxonomy,
            &metro.attrs,
            metro.graph.edges(),
            None,
            &cfg,
        );
        let n_edges = dense.adjacency.num_directed_edges();
        assert!(
            n_edges >= 10 * dense.adjacency.num_segments()
                && n_edges >= 10 * dense.plans.key_src.len(),
            "{n_edges} edges in {} segments with {} keys",
            dense.adjacency.num_segments(),
            dense.plans.key_src.len()
        );
        let model = PrimModel::new(cfg.clone(), &dense);
        check(&model, &dense, "dense keys");

        let model = PrimModel::new(cfg.clone(), &inputs);
        let edgeless = ModelInputs::build(&ds.graph, &ds.taxonomy, &ds.attrs, &[], None, &cfg);
        assert_eq!(edgeless.adjacency.num_directed_edges(), 0);
        check(&model, &edgeless, "edgeless");

        // A radius below every POI spacing: the block adds zeros, as if off.
        let mut tight = cfg.clone();
        tight.spatial_radius_km = 1e-3;
        let edges = ds.graph.edges();
        let unspatial = ModelInputs::build(&ds.graph, &ds.taxonomy, &ds.attrs, edges, None, &tight);
        assert!(unspatial.spatial.is_empty());
        let on = PrimModel::new(tight.clone(), &unspatial);
        check(&on, &unspatial, "no spatial edge");
        tight.use_spatial_context = false;
        let off = PrimModel::new(tight, &unspatial).embed(&unspatial);
        assert_eq!(bits(&on.embed(&unspatial).pois), bits(&off.pois));

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
                &cfg,
            )
            .inputs
        };
        let sub = subset(&grid, &[0, 2, 9]);
        assert!(sub.node_rows.is_some() && !sub.spatial.is_empty());
        check(&model, &sub, "subset");

        // A retired target has no spatial sources while the city has some,
        // so the subset has no spatial edge.
        grid.retire(4);
        let lone = subset(&grid, &[4]);
        assert!(lone.spatial.is_empty());
        check(&model, &lone, "subset with no spatial edge");
    }

    /// `restore` against `new` followed by `import_named` of the same
    /// entries: the same parameter list and value bits (and so the same
    /// embeddings), and on a bad entry list the same error.
    #[test]
    fn restore_equals_new_then_import() {
        use crate::config::Variant;
        let (_, tiny_cfg, inputs) = tiny();
        let dims = ModelDims::of(&inputs);
        let on = PrimConfig {
            use_node_embeddings: true,
            ..tiny_cfg
        };
        let off = PrimConfig {
            use_node_embeddings: false,
            ..on.clone()
        };
        let one_head = PrimConfig {
            n_heads: 1,
            ..on.clone()
        };
        let cases = [
            ("path sum, node embeddings on", on.clone()),
            ("path sum, node embeddings off", off.clone()),
            ("-T", on.clone().with_variant(Variant::from_name("-T"))),
            (
                "-T, node embeddings off",
                off.with_variant(Variant::from_name("-T")),
            ),
            ("-S", on.clone().with_variant(Variant::from_name("-S"))),
            ("-D", on.clone().with_variant(Variant::from_name("-D"))),
            ("one head", one_head.clone()),
            (
                "-T, one head",
                one_head.with_variant(Variant::from_name("-T")),
            ),
        ];
        // Name, decay flag, shape and value bits of each parameter.
        type Entry = (String, bool, (usize, usize), Vec<u32>);
        let list = |m: &PrimModel| -> Vec<Entry> {
            m.params()
                .entries()
                .map(|(n, v, decays)| (n.to_string(), decays, v.shape(), bits(v)))
                .collect()
        };
        for (case, cfg) in cases {
            // Values other than `new`'s own draws: another seed's.
            let donor = PrimModel::new(
                PrimConfig {
                    seed: cfg.seed + 1,
                    ..cfg.clone()
                },
                &inputs,
            );
            let entries: Vec<(String, Matrix)> = donor
                .params()
                .entries()
                .map(|(n, v, _)| (n.to_string(), v.clone()))
                .collect();
            let import = |entries: &[(String, Matrix)]| {
                let mut m = PrimModel::new(cfg.clone(), &inputs);
                m.params_mut().import_named(entries).map(|()| m)
            };
            let restore = |entries: &[(String, Matrix)]| {
                PrimModel::restore(cfg.clone(), &dims, entries.to_vec())
            };

            let (imported, restored) = (import(&entries).unwrap(), restore(&entries).unwrap());
            assert_eq!(list(&restored), list(&imported), "{case}: parameter list");
            assert_eq!(list(&restored), list(&donor), "{case}: values");
            let (a, b) = (imported.embed(&inputs), restored.embed(&inputs));
            assert_eq!(bits(&a.pois), bits(&b.pois), "{case}: POI table");
            assert_eq!(bits(&a.relations), bits(&b.relations), "{case}: relations");

            let mut missing = entries.clone();
            missing.remove(3);
            let mut extra = entries.clone();
            extra.push(entries[0].clone());
            let mut renamed = entries.clone();
            renamed[5].0.push('x');
            let mut misshaped = entries.clone();
            misshaped[2].1 = Matrix::zeros(misshaped[2].1.rows() + 1, misshaped[2].1.cols());
            for (bad, kind) in [
                (missing, "count"),
                (extra, "count"),
                (renamed, "name"),
                (misshaped, "shape"),
            ] {
                let (want, got) = (import(&bad).err(), restore(&bad).err());
                let want = want.unwrap_or_else(|| panic!("{case}: import took a {kind} mismatch"));
                assert!(want.contains(&format!("{kind} mismatch")), "{case}: {want}");
                assert_eq!(got, Some(want), "{case}: {kind} mismatch");
            }
        }
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

    /// The scorer against its oracle, bit for bit, on encoder outputs set
    /// by hand: zero, tiny, unit and large POI rows, so logits span `+0.0`,
    /// both signs near zero (both sigmoid branches) and beyond ±80, where
    /// `exp(-|x|)` is subnormal or zero.
    #[test]
    fn scorer_matches_reference_bitwise() {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.1, 3);
        let lengths = [1usize, 7, 2047, 2048, 2049, 3 * 2048 + 357];
        for (dim, dist) in [(8, true), (13, true), (16, false), (24, true), (24, false)] {
            let cfg = PrimConfig {
                dim,
                cat_dim: 4,
                n_layers: 1,
                n_heads: 1,
                use_distance_scoring: dist,
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
            let (n_pois, n_rel, n_bins) = (inputs.n_pois, model.phi() + 1, model.cfg.bins.len());
            // A fixed integer hash mapped into [-1, 1).
            let unit =
                |i: usize| ((i as u32).wrapping_mul(2_654_435_761) >> 8) as f32 / 8_388_608.0 - 1.0;
            let scale = [0.0f32, 1e-20, 1.0, 8.0, -6.0];
            let h = Matrix::from_vec(
                n_pois,
                dim,
                (0..n_pois * dim)
                    .map(|i| unit(i) * scale[(i / dim) % 5])
                    .collect(),
            );
            let rel = Matrix::from_vec(
                n_rel,
                dim,
                (0..n_rel * dim).map(|i| 2.0 * unit(i + 7)).collect(),
            );
            for &n in &lengths {
                let src: Vec<usize> = (0..n).map(|t| (t * 7 + 1) % n_pois).collect();
                let dst: Vec<usize> = (0..n).map(|t| (t * 13 + 5) % n_pois).collect();
                let rels: Vec<usize> = (0..n).map(|t| (t / 3) % n_rel).collect();
                let bins: Vec<usize> = (0..n).map(|t| (t * 5 + t / 7) % n_bins).collect();
                let labels: Vec<f32> = (0..n).map(|t| (t % 3 == 0) as u8 as f32).collect();
                let batch = TripleBatch::new(&model, &inputs, &src, &rels, &dst, &bins, &labels);
                let scored = |threads: usize, reference: bool| {
                    kernel::set_threads(threads);
                    let mut g = Graph::new();
                    let bind = model.store.bind(&mut g);
                    let fwd = ForwardOutput {
                        h_final: g.constant(h.clone()),
                        rel_score: g.constant(rel.clone()),
                    };
                    let (loss, seeds) = if reference {
                        model.scored_loss_reference(&mut g, &bind, &fwd, &batch)
                    } else {
                        model.scored_loss_parallel(&mut g, &bind, &fwd, &batch)
                    };
                    kernel::set_threads(0);
                    let seeds: Vec<Vec<u32>> = seeds.iter().map(|(_, m)| bits(m)).collect();
                    (loss.to_bits(), seeds)
                };
                let oracle = scored(1, true);
                assert_eq!(oracle.1.len(), 2 + dist as usize);
                for threads in [1, 2, 4, 8] {
                    let got = scored(threads, false);
                    let case =
                        format!("dim {dim}, distance {dist}, {n} triples, {threads} threads");
                    assert_eq!(got.0, oracle.0, "loss differs: {case}");
                    for (k, (a, b)) in got.1.iter().zip(&oracle.1).enumerate() {
                        assert!(a == b, "seed {k} differs: {case}");
                    }
                }
            }
        }
    }
}
