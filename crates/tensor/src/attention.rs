//! Fused attention kernels, forward and backward.
//!
//! A graph-attention layer built from tape ops materialises several
//! edge-row matrices per head: gathered endpoint features, their concat,
//! the per-edge attention vectors, logits, softmax weights and weighted
//! messages, each a full pass over memory before two segment sums reduce
//! them, and the backward pass builds as many again. The kernels here walk
//! the destination-major segments once instead and keep only one
//! segment's logits at a time, in the spirit of the fused gather–softmax–
//! scatter of Zhang et al. ("Understanding GNN Computational Graph", MLSys
//! 2022). For the backward pass the forward keeps the E×1 softmax weights
//! alone; everything else edge-sized is recomputed from the node-sized
//! operands.
//!
//! [`crate::Graph::relational_attention`] and
//! [`crate::Graph::spatial_attention`] record these kernels on either kind
//! of tape. Each is **bitwise** the composed tape ops it replaces, values
//! and every input gradient, because it performs every rounding step of
//! theirs in the same order.
//!
//! The forward:
//!
//! * a logit's dot product folds from the same start in the same element
//!   order as [`Matrix::row_dot`] over the concatenated features; the part
//!   every edge of a segment shares is folded once per segment and each
//!   edge continues from it;
//! * a projected distance feature is the matmul's ascending-`k`
//!   multiply-add sequence from `+0.0` (the same `fmadd` step);
//! * the segment softmax takes the `>` maximum from `-∞`, `exp(x − max)`,
//!   sums in row order from `+0.0` and divides by `max(sum, 1e-12)`, as
//!   the tape's segment softmax does;
//! * each segment's weighted messages are summed in row order from `+0.0`,
//!   and each destination's segments in segment order from `+0.0`, as the
//!   two planned segment sums do.
//!
//! The backward repeats each composed gradient's own sequence:
//!
//! * **softmax**: an edge's weight gradient is the `scale_rows` adjoint, a
//!   dot of its message (or value) row with its destination's output
//!   gradient folded from `-0.0` as `Iterator::sum` does; the segment dot
//!   is `+= g·α` in row order from `+0.0`; the logit gradient is
//!   `α·(g − dot)`, scaled by the leaky ReLU's slope where the raw logit
//!   was `< 0` (the forward keeps that bit as the sign of the stored α,
//!   which is otherwise never negative);
//! * **scatter sums**: every gathered operand's gradient row sums its
//!   edges' `operand·g_logit` products from `+0.0` in ascending edge order,
//!   as the gather's scatter-add does. The features of a relational head
//!   take the source-grouped sum first and then the destination-grouped
//!   one, because the tape gathers the destination rows first and so
//!   differentiates the source gather first;
//! * **parameter chains**: each attention-table row is an ascending chain
//!   over its relation's edges, and the distance projection's gradient is
//!   the ascending-edge `fmadd` chain of `matmul_tn`.
//!
//! **Zero windows.** The composed ops slice each head out of a wide
//! operand, and a slice's adjoint adds a zero-filled window around the
//! head's gradient; the kernels add into the head's window alone. Adding
//! `+0.0` changes no bit of any value except `−0.0`, which becomes `+0.0`.
//! Every consumer of those gradients — the scatter sums here, and the
//! matmul adjoints (`fmadd` chains) upstream — accumulates from `+0.0`,
//! and a sum or `fmadd` chain started at `+0.0` never holds `−0.0` and
//! gives the same bits for `±0.0` terms. So the two differ only in the
//! sign of zeros that no later step can see; the parity tests compare
//! everything downstream bit for bit.
//!
//! Every pass splits its output rows over the worker pool — the forward
//! and the per-edge pass by destination, the feature gradients by feature
//! row, the attention table by relation — and one thread computes each
//! output row in that fixed order, so the result is the same at any
//! thread count.

use std::ops::Range;
use std::sync::Arc;

use crate::graph::NORM_EPS;
use crate::kernel;
use crate::matrix::{dot_from, fmadd, Matrix, DOT_INIT};
use crate::pool::{self, SendPtr};
use crate::segment::{SegmentPlan, SEG_PAR_MIN_WORK};

/// The edges of a relational attention layer, as shared plans.
///
/// Every edge of a segment must share its destination (the segment's
/// destination in `seg_dst`, which `dst` must repeat) and its relation.
#[derive(Clone, Debug)]
pub struct RelationalPlans {
    /// Edge rows of each `(destination, relation)` softmax segment.
    pub segments: Arc<SegmentPlan>,
    /// Segments of each destination, one destination per output row.
    pub seg_dst: Arc<SegmentPlan>,
    /// Source feature row of each edge.
    pub src: Arc<SegmentPlan>,
    /// Destination feature row of each edge.
    pub dst: Arc<SegmentPlan>,
    /// Relation of each edge: its row of the attention vectors.
    pub rel: Arc<SegmentPlan>,
    /// Message row of each edge; `None` reads edge `e`'s message from
    /// row `e`. Only per-edge messages have a backward pass.
    pub key: Option<Arc<SegmentPlan>>,
    /// Raw distance features of each edge (`E × f`), a constant: no
    /// gradient flows to them.
    pub dist: Arc<Matrix>,
}

/// The edges of a spatial-context block, as shared plans.
///
/// Every edge of a segment must share its destination (the segment's
/// destination in `seg_dst`, which `dst` must repeat).
#[derive(Clone, Debug)]
pub struct SpatialPlans {
    /// Edge rows of each per-destination softmax segment.
    pub segments: Arc<SegmentPlan>,
    /// Segments of each destination, one destination per output row.
    pub seg_dst: Arc<SegmentPlan>,
    /// Source row of each edge.
    pub src: Arc<SegmentPlan>,
    /// Destination row of each edge.
    pub dst: Arc<SegmentPlan>,
    /// RBF weight of each edge (`E × 1`), a constant: no gradient flows
    /// to them.
    pub rbf: Arc<Matrix>,
}

/// A column window `[start, start + width)` of a matrix's rows.
#[derive(Clone, Copy)]
pub struct Cols<'a> {
    /// The matrix.
    pub m: &'a Matrix,
    /// First column of the window.
    pub start: usize,
}

impl<'a> Cols<'a> {
    #[inline]
    fn row(&self, r: usize, width: usize) -> &'a [f32] {
        &self.m.row(r)[self.start..self.start + width]
    }
}

/// One head of relational attention, the operands its logits and messages
/// read. The output is `width` wide.
#[derive(Clone, Copy)]
pub struct RelationalHead<'a> {
    /// Attention features of every POI, `h*·W_a`; the dst part of a logit
    /// reads the destination's row, the src part the source's.
    pub ha: Cols<'a>,
    /// Projected messages, one row per key (or per edge).
    pub msg: Cols<'a>,
    /// Distance projection `W_d` (`f × dd`).
    pub w_dist: &'a Matrix,
    /// Attention vectors, one `2·width + dd` row per relation: the dst,
    /// src and distance parts in that order.
    pub att: &'a Matrix,
    /// Negative slope of the leaky ReLU on the logits.
    pub slope: f32,
}

impl RelationalHead<'_> {
    /// The head's width: its attention vectors hold a dst and a src part
    /// this wide, then the distance part.
    fn width(&self) -> usize {
        let parts = self.att.cols() - self.w_dist.cols();
        assert!(
            parts.is_multiple_of(2),
            "attention vectors of {} columns cannot hold two equal parts and {} distance columns",
            self.att.cols(),
            self.w_dist.cols()
        );
        parts / 2
    }

    /// Edge `r`'s projected distance features (`dist` holds the raw
    /// ones): the matmul's ascending-`k` `fmadd` chain from `+0.0`.
    #[inline]
    fn project_distance(&self, dist: &Matrix, r: usize, dproj: &mut [f32]) {
        let d = dist.row(r);
        for (c, p) in dproj.iter_mut().enumerate() {
            *p = 0.0;
            for (j, &x) in d.iter().enumerate() {
                *p = fmadd(x, self.w_dist[(j, c)], *p);
            }
        }
    }
}

/// Rows in the largest segment of `plan` (0 for a plan with none): the
/// length of a kernel's per-segment buffers.
fn longest_segment(plan: &SegmentPlan) -> usize {
    (0..plan.n_segments())
        .map(|s| plan.rows_of(s).len())
        .max()
        .unwrap_or(0)
}

/// Destination-row grain for a walk over `n_edges` edges costing
/// `per_edge` multiply-adds each: as [`SegmentPlan`]'s reductions, serial
/// below [`SEG_PAR_MIN_WORK`] in total, and otherwise at least
/// [`kernel::PAR_ELEM_CUTOFF`] per thread at the average fan-in.
fn walk_grain(n_edges: usize, n_rows: usize, per_edge: usize) -> usize {
    let work = n_edges.saturating_mul(per_edge.max(1));
    if work < SEG_PAR_MIN_WORK {
        return usize::MAX;
    }
    (kernel::PAR_ELEM_CUTOFF / (work / n_rows.max(1)).max(1)).max(1)
}

/// Checks the segment plans against the output rows and the edge count,
/// for a kernel entry.
fn check_segments(
    segments: &SegmentPlan,
    seg_dst: &SegmentPlan,
    n_edges: usize,
    n_out: usize,
    what: &str,
) {
    assert_eq!(
        segments.len(),
        n_edges,
        "{what}: the segment plan covers {} edges, the edges {n_edges}",
        segments.len()
    );
    assert_eq!(
        seg_dst.len(),
        segments.n_segments(),
        "{what}: segment-to-destination map length mismatch"
    );
    assert_eq!(
        seg_dst.n_segments(),
        n_out,
        "{what}: {} destinations, output has {n_out} rows",
        seg_dst.n_segments()
    );
}

/// Runs `f(bufs, n, segments of n, out row)` for every destination row
/// `n` (`out`'s rows, `w` wide; with no `out`, or zero-width, the row is
/// empty), destination ranges split over the pool at `grain` rows. Each
/// range takes its buffers `bufs` once, as [`with_buffers`] does.
fn for_each_destination<const N: usize>(
    n_out: usize,
    w: usize,
    grain: usize,
    seg_dst: &SegmentPlan,
    out: Option<&mut Matrix>,
    lens: [usize; N],
    f: impl Fn(&mut [Vec<f32>; N], usize, &[u32], &mut [f32]) + Sync,
) {
    let run = |rows: Range<usize>, chunk: &mut [f32]| {
        with_buffers(lens, |bufs| {
            for (dn, n) in rows.enumerate() {
                let orow = chunk.get_mut(dn * w..(dn + 1) * w).unwrap_or_default();
                f(bufs, n, seg_dst.rows_of(n), orow);
            }
        })
    };
    match out {
        Some(out) if w > 0 => kernel::par_row_chunks(out.data_mut(), w, grain, |n0, chunk| {
            run(n0..n0 + chunk.len() / w, chunk)
        }),
        _ => kernel::par_ranges(n_out, grain, |rows| run(rows, &mut [])),
    }
}

/// Runs `f` on zeroed buffers of the lengths `lens`, taken from this
/// thread's scratch arena ([`pool::with_scratch`]) and handed back after,
/// so a kernel's per-chunk temporaries allocate nothing in steady state.
/// The arena is not borrowed while `f` runs.
fn with_buffers<const N: usize, R>(lens: [usize; N], f: impl FnOnce(&mut [Vec<f32>; N]) -> R) -> R {
    let mut bufs = pool::with_scratch(|s| lens.map(|len| s.take(len)));
    let result = f(&mut bufs);
    pool::with_scratch(|s| bufs.into_iter().for_each(|b| s.put(b)));
    result
}

/// Softmax over one segment's logits in place, each becoming its weight
/// `α_i`; then `acc[c] += Σ α_i · row_i[c]` in segment order from `+0.0`,
/// then `out += acc`.
#[inline]
fn softmax_aggregate<'r>(
    logits: &mut [f32],
    rows: impl Iterator<Item = &'r [f32]>,
    acc: &mut [f32],
    out: &mut [f32],
) {
    let mut max = f32::NEG_INFINITY;
    for &x in logits.iter() {
        if x > max {
            max = x;
        }
    }
    let mut sum = 0.0f32;
    for x in logits.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    let denom = sum.max(NORM_EPS);
    acc.fill(0.0);
    for (x, row) in logits.iter_mut().zip(rows) {
        *x /= denom;
        for (a, &m) in acc.iter_mut().zip(row) {
            *a += m * *x;
        }
    }
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        *o += a;
    }
}

/// The segment softmax's backward over one segment: given each edge's
/// weight `α` and weight gradient `g` (in `grads`), replaces `grads` by the
/// logit gradients `α·(g − Σ g·α)`, the sum `+= g·α` in row order from
/// `+0.0`, as the tape's segment softmax adjoint computes them.
#[inline]
fn softmax_backward(alpha: &[f32], grads: &mut [f32]) {
    let mut dot = 0.0f32;
    for (&g, &a) in grads.iter().zip(alpha) {
        dot += g * a;
    }
    for (g, &a) in grads.iter_mut().zip(alpha) {
        *g = a * (*g - dot);
    }
}

/// One head of spatial-aware relational attention (PRIM Eq. 3–5), fused.
///
/// Output row `n` (which `out` must hold zeroed, `width` wide) becomes
/// `Σ_segments Σ_edges α_e · msg[key_e]`, where
/// `α = softmax_segment(leaky_relu([ha[n] ‖ ha[src_e] ‖ dist_e·W_d] · att[rel]))`.
/// With `alpha` (`E` long), also stores each edge's `α_e`, negated where
/// the raw logit was `< 0`: the saved state of
/// [`relational_backward_edges`]. Bitwise equal to the composed tape ops
/// (gathers, slices, concat, `rows_dot`, `leaky_relu`, segment softmax,
/// `scale_rows` and two segment sums); see the module docs.
///
/// # Panics
/// Panics if a shape disagrees with the edges or the head's width.
pub fn relational_into(
    head: &RelationalHead<'_>,
    plans: &RelationalPlans,
    out: &mut Matrix,
    alpha: Option<&mut [f32]>,
) {
    let n_edges = plans.src.len();
    let w = out.cols();
    check_relational(head, plans, w, out.rows(), "relational_into");
    if let Some(alpha) = &alpha {
        assert_eq!(alpha.len(), n_edges, "relational_into: α length mismatch");
    }
    if w == 0 && alpha.is_none() {
        return;
    }
    let (src, rel) = (plans.src.segment_of_row(), plans.rel.segment_of_row());
    let key = plans.key.as_ref().map(|k| k.segment_of_row());
    let dd = head.w_dist.cols();
    let alpha_out = alpha.map(|a| SendPtr::new(a.as_mut_ptr()));
    let grain = walk_grain(n_edges, out.rows(), 3 * w + dd * (plans.dist.cols() + 1));
    let lens = [longest_segment(&plans.segments), w, dd];
    let n_out = out.rows();
    let seg_dst = &plans.seg_dst;
    for_each_destination(
        n_out,
        w,
        grain,
        seg_dst,
        Some(out),
        lens,
        |bufs, n, segs, orow| {
            let [logits, acc, dproj] = bufs;
            let dst = head.ha.row(n, w);
            for &s in segs {
                let rows = plans.segments.rows_of(s as usize);
                // An empty segment adds a zero row, which changes no bit of a
                // sum that starts from +0.0.
                let Some(&first) = rows.first() else {
                    continue;
                };
                let att = head.att.row(rel[first as usize]);
                let (a_dst, rest) = att.split_at(w);
                let (a_src, a_dist) = rest.split_at(w);
                let prefix = dot_from(DOT_INIT, dst, a_dst);
                let logits = &mut logits[..rows.len()];
                for (x, &r) in logits.iter_mut().zip(rows) {
                    let r = r as usize;
                    head.project_distance(&plans.dist, r, dproj);
                    let raw = dot_from(prefix, head.ha.row(src[r], w), a_src);
                    *x = dot_from(raw, dproj, a_dist);
                }
                for (x, &r) in logits.iter_mut().zip(rows) {
                    let (r, raw) = (r as usize, *x);
                    *x = if raw < 0.0 { raw * head.slope } else { raw };
                    if let Some(alpha_out) = &alpha_out {
                        // The sign marks a negative raw logit until α lands.
                        // SAFETY: edge `r` lies in one segment of one
                        // destination, so this job alone touches slot `r`, and
                        // the pool joins every job before `alpha`'s borrow ends.
                        unsafe { *alpha_out.get().add(r) = if raw < 0.0 { -0.0 } else { 0.0 } };
                    }
                }
                let msg_row = |r: u32| key.map_or(r as usize, |k| k[r as usize]);
                let msgs = rows.iter().map(|&r| head.msg.row(msg_row(r), w));
                softmax_aggregate(logits, msgs, acc, orow);
                if let Some(alpha_out) = &alpha_out {
                    for (&r, &a) in rows.iter().zip(logits.iter()) {
                        // SAFETY: as above.
                        unsafe {
                            let slot = alpha_out.get().add(r as usize);
                            *slot = if (*slot).is_sign_negative() { -a } else { a };
                        }
                    }
                }
            }
        },
    );
}

/// Checks a relational head's operands against its plans, for a kernel
/// entry.
fn check_relational(
    head: &RelationalHead<'_>,
    plans: &RelationalPlans,
    w: usize,
    n_out: usize,
    what: &str,
) {
    let n_edges = plans.src.len();
    let (f, dd) = head.w_dist.shape();
    assert!(
        plans.rel.len() == n_edges
            && plans.dst.len() == n_edges
            && plans.key.as_ref().is_none_or(|k| k.len() == n_edges),
        "{what}: per-edge plan length mismatch"
    );
    assert_eq!(
        plans.dist.shape(),
        (n_edges, f),
        "{what}: distance features must be {n_edges}x{f}"
    );
    assert_eq!(
        head.att.cols(),
        2 * w + dd,
        "{what}: attention vectors must be {} wide",
        2 * w + dd
    );
    assert!(
        head.ha.start + w <= head.ha.m.cols() && head.msg.start + w <= head.msg.m.cols(),
        "{what}: column window out of range"
    );
    check_segments(&plans.segments, &plans.seg_dst, n_edges, n_out, what);
}

/// The first backward pass of [`relational_into`] (per-edge messages
/// only): from the output gradient `g_out` (`n × width`) and the saved
/// `alpha`, writes each edge's logit gradient into `d_logit` (`E` long)
/// and, with `d_msg`, adds `g_out[dst_e] · α_e` into the head's window of
/// message row `e`. Walks the destinations' segments as the forward does.
///
/// # Panics
/// Panics if a shape disagrees, or if the plans read keyed messages.
pub fn relational_backward_edges(
    head: &RelationalHead<'_>,
    plans: &RelationalPlans,
    alpha: &[f32],
    g_out: &Matrix,
    d_logit: &mut [f32],
    d_msg: Option<&mut Matrix>,
) {
    let n_edges = plans.src.len();
    let w = g_out.cols();
    check_relational(head, plans, w, g_out.rows(), "relational_backward_edges");
    assert!(
        plans.key.is_none(),
        "relational_backward_edges: keyed messages have no backward pass"
    );
    assert!(
        alpha.len() == n_edges && d_logit.len() == n_edges,
        "relational_backward_edges: per-edge buffer length mismatch"
    );
    let d_msg = d_msg.map(|m| {
        assert_eq!(
            m.shape(),
            head.msg.m.shape(),
            "relational_backward_edges: message gradient shape mismatch"
        );
        (SendPtr::new(m.data_mut().as_mut_ptr()), m.cols())
    });
    let d_logit = SendPtr::new(d_logit.as_mut_ptr());
    let grain = walk_grain(n_edges, g_out.rows(), 2 * w);
    let max_len = longest_segment(&plans.segments);
    let seg_dst = &plans.seg_dst;
    for_each_destination(
        g_out.rows(),
        w,
        grain,
        seg_dst,
        None,
        [max_len; 2],
        |bufs, n, segs, _| {
            let [seg_alpha, seg_grads] = bufs;
            let g = g_out.row(n);
            for &s in segs {
                let rows = plans.segments.rows_of(s as usize);
                let (seg_alpha, seg_grads) =
                    (&mut seg_alpha[..rows.len()], &mut seg_grads[..rows.len()]);
                for (a, &r) in seg_alpha.iter_mut().zip(rows) {
                    *a = alpha[r as usize].abs();
                }
                for (x, &r) in seg_grads.iter_mut().zip(rows) {
                    *x = dot_from(DOT_INIT, head.msg.row(r as usize, w), g);
                }
                softmax_backward(seg_alpha, seg_grads);
                for ((&r, &a), &dx) in rows.iter().zip(seg_alpha.iter()).zip(seg_grads.iter()) {
                    let r = r as usize;
                    let dx = if alpha[r].is_sign_negative() {
                        dx * head.slope
                    } else {
                        dx
                    };
                    // SAFETY: edge `r` lies in one segment of one destination,
                    // so this job alone writes slot `r` of `d_logit` and the
                    // head's window of message row `r`, and the pool joins
                    // every job before the borrows end.
                    unsafe { *d_logit.get().add(r) = dx };
                    if let Some((d_msg, cols)) = &d_msg {
                        let row = unsafe {
                            std::slice::from_raw_parts_mut(
                                d_msg.get().add(r * cols + head.msg.start),
                                w,
                            )
                        };
                        for (o, &gc) in row.iter_mut().zip(g) {
                            *o += gc * a;
                        }
                    }
                }
            }
        },
    );
}

/// The feature gradient of [`relational_into`]: adds into the head's
/// window of `d_ha` (shaped as `ha`) row `n` the source-grouped sum
/// `Σ att[rel_e]_src · d_logit_e` over edges from `n`, then the
/// destination-grouped sum `Σ att[rel_e]_dst · d_logit_e` over edges into
/// `n`, each in ascending edge order from `+0.0`.
///
/// # Panics
/// Panics if a shape disagrees.
pub fn relational_backward_features(
    head: &RelationalHead<'_>,
    plans: &RelationalPlans,
    d_logit: &[f32],
    d_ha: &mut Matrix,
) {
    let w = head.width();
    let n_edges = plans.src.len();
    assert_eq!(
        d_ha.shape(),
        head.ha.m.shape(),
        "relational_backward_features: feature gradient shape mismatch"
    );
    assert!(
        plans.src.n_segments() == d_ha.rows() && plans.dst.n_segments() == d_ha.rows(),
        "relational_backward_features: edge plans cover another row count"
    );
    assert_eq!(
        d_logit.len(),
        n_edges,
        "relational_backward_features: d_logit length"
    );
    let (cols, start) = (d_ha.cols(), head.ha.start);
    if w == 0 || cols == 0 {
        return;
    }
    let rel = plans.rel.segment_of_row();
    let grain = walk_grain(2 * n_edges, d_ha.rows(), w);
    kernel::par_row_chunks(d_ha.data_mut(), cols, grain, |n0, chunk| {
        with_buffers([w], |[acc]| {
            for (dn, row) in chunk.chunks_mut(cols).enumerate() {
                let out = &mut row[start..start + w];
                for (plan, part) in [(&plans.src, w), (&plans.dst, 0)] {
                    acc.fill(0.0);
                    for &e in plan.rows_of(n0 + dn) {
                        let e = e as usize;
                        let a = &head.att.row(rel[e])[part..part + w];
                        for (s, &x) in acc.iter_mut().zip(a) {
                            *s += x * d_logit[e];
                        }
                    }
                    for (o, &s) in out.iter_mut().zip(acc.iter()) {
                        *o += s;
                    }
                }
            }
        })
    });
}

/// The parameter gradients of [`relational_into`], each added into a
/// zeroed buffer: `d_att` (shaped as `att`) row `r` is the ascending chain
/// over relation `r`'s edges of `[ha[dst_e] ‖ ha[src_e] ‖ dist_e·W_d] ·
/// d_logit_e`, and `d_w_dist` (shaped as `W_d`) the ascending-edge `fmadd`
/// chain of `dist_eᵀ · (att[rel_e]_dist · d_logit_e)`.
///
/// # Panics
/// Panics if a shape disagrees.
pub fn relational_backward_params(
    head: &RelationalHead<'_>,
    plans: &RelationalPlans,
    d_logit: &[f32],
    d_w_dist: Option<&mut Matrix>,
    d_att: Option<&mut Matrix>,
) {
    let n_edges = plans.src.len();
    let (f, dd) = head.w_dist.shape();
    let w = head.width();
    assert_eq!(
        d_logit.len(),
        n_edges,
        "relational_backward_params: d_logit length"
    );
    let (src, dst, rel) = (
        plans.src.segment_of_row(),
        plans.dst.segment_of_row(),
        plans.rel.segment_of_row(),
    );
    if let Some(d_att) = d_att {
        assert_eq!(
            d_att.shape(),
            head.att.shape(),
            "relational_backward_params: attention gradient shape mismatch"
        );
        assert_eq!(
            plans.rel.n_segments(),
            head.att.rows(),
            "relational_backward_params: relation plan covers another table"
        );
        let cols = d_att.cols();
        let grain = walk_grain(n_edges, d_att.rows(), cols + dd * (f + 1));
        if cols > 0 {
            kernel::par_row_chunks(d_att.data_mut(), cols, grain, |r0, chunk| {
                with_buffers([dd], |[dproj]| {
                    for (dr, row) in chunk.chunks_mut(cols).enumerate() {
                        let (o_dst, rest) = row.split_at_mut(w);
                        let (o_src, o_dist) = rest.split_at_mut(w);
                        for &e in plans.rel.rows_of(r0 + dr) {
                            let e = e as usize;
                            let g = d_logit[e];
                            head.project_distance(&plans.dist, e, dproj);
                            for (o, &x) in o_dst.iter_mut().zip(head.ha.row(dst[e], w)) {
                                *o += x * g;
                            }
                            for (o, &x) in o_src.iter_mut().zip(head.ha.row(src[e], w)) {
                                *o += x * g;
                            }
                            for (o, &x) in o_dist.iter_mut().zip(dproj.iter()) {
                                *o += x * g;
                            }
                        }
                    }
                })
            });
        }
    }
    if let Some(d_w_dist) = d_w_dist {
        assert_eq!(
            d_w_dist.shape(),
            (f, dd),
            "relational_backward_params: distance-projection gradient shape mismatch"
        );
        if dd > 0 {
            let grain = walk_grain(n_edges, f, 2 * dd);
            kernel::par_row_chunks(d_w_dist.data_mut(), dd, grain, |j0, chunk| {
                for (dj, row) in chunk.chunks_mut(dd).enumerate() {
                    for (e, &g) in d_logit.iter().enumerate() {
                        let x = plans.dist[(e, j0 + dj)];
                        for (o, &a) in row.iter_mut().zip(&head.att.row(rel[e])[2 * w..]) {
                            *o = fmadd(x, a * g, *o);
                        }
                    }
                }
            });
        }
    }
}

/// The self-attentive spatial context (PRIM Eq. 6–9), fused.
///
/// `qkv` holds queries, keys and values side by side, `width` columns
/// each (`n × 3·width`), and `out` (zeroed, `n × width`) receives row `n`'s
/// context `Σ_edges β_e · v[src_e]` with
/// `β = softmax_segment((q[n] · k[src_e]) · scale · rbf_e)`. With `beta`
/// (`E` long), also stores each edge's `β_e`, the saved state of
/// [`spatial_backward`]. Bitwise equal to the composed tape ops (gathers,
/// `rows_dot`, `scale`, `mul`, segment softmax, `scale_rows` and two
/// segment sums).
///
/// # Panics
/// Panics if a shape disagrees with the edges.
pub fn spatial_into(
    qkv: &Matrix,
    scale: f32,
    plans: &SpatialPlans,
    out: &mut Matrix,
    beta: Option<&mut [f32]>,
) {
    let rbf = &*plans.rbf;
    let n_edges = plans.src.len();
    let w = out.cols();
    check_spatial(qkv, plans, w, out.rows(), "spatial_into");
    if let Some(beta) = &beta {
        assert_eq!(beta.len(), n_edges, "spatial_into: β length mismatch");
    }
    let src = plans.src.segment_of_row();
    let (q, k, v) = qkv_windows(qkv, w);
    let beta_out = beta.map(|b| SendPtr::new(b.as_mut_ptr()));
    let grain = walk_grain(n_edges, out.rows(), 2 * w);
    let lens = [longest_segment(&plans.segments), w];
    let n_out = out.rows();
    let seg_dst = &plans.seg_dst;
    for_each_destination(
        n_out,
        w,
        grain,
        seg_dst,
        Some(out),
        lens,
        |bufs, n, segs, orow| {
            let [logits, acc] = bufs;
            let query = q.row(n, w);
            for &s in segs {
                let rows = plans.segments.rows_of(s as usize);
                let logits = &mut logits[..rows.len()];
                for (x, &r) in logits.iter_mut().zip(rows) {
                    let r = r as usize;
                    *x = dot_from(DOT_INIT, query, k.row(src[r], w)) * scale * rbf[(r, 0)];
                }
                let values = rows.iter().map(|&r| v.row(src[r as usize], w));
                softmax_aggregate(logits, values, acc, orow);
                if let Some(beta_out) = &beta_out {
                    for (&r, &b) in rows.iter().zip(logits.iter()) {
                        // SAFETY: edge `r` lies in one segment of one
                        // destination, so this job alone writes slot `r`, and
                        // the pool joins every job before `beta`'s borrow ends.
                        unsafe { *beta_out.get().add(r as usize) = b };
                    }
                }
            }
        },
    );
}

/// The query, key and value windows of a `qkv` matrix `3·w` wide.
fn qkv_windows(qkv: &Matrix, w: usize) -> (Cols<'_>, Cols<'_>, Cols<'_>) {
    (
        Cols { m: qkv, start: 0 },
        Cols { m: qkv, start: w },
        Cols {
            m: qkv,
            start: 2 * w,
        },
    )
}

/// Checks the spatial operands against their plans, for a kernel entry.
fn check_spatial(qkv: &Matrix, plans: &SpatialPlans, w: usize, n_out: usize, what: &str) {
    let n_edges = plans.src.len();
    assert_eq!(
        qkv.shape(),
        (n_out, 3 * w),
        "{what}: qkv must be {n_out}x{}",
        3 * w
    );
    assert_eq!(
        plans.rbf.shape(),
        (n_edges, 1),
        "{what}: RBF weights must be {n_edges}x1"
    );
    assert_eq!(
        plans.dst.len(),
        n_edges,
        "{what}: per-edge plan length mismatch"
    );
    check_segments(&plans.segments, &plans.seg_dst, n_edges, n_out, what);
}

/// The backward pass of [`spatial_into`]: from the output gradient `g_out`
/// (`n × width`) and the saved `beta`, adds into `d_qkv` (shaped as `qkv`)
/// row `n` the query gradient `Σ k[src_e] · g_e` over edges into `n`, and
/// the key and value gradients `Σ q[dst_e] · g_e` and `Σ g_out[dst_e] · β_e`
/// over edges from `n`, each in ascending edge order from `+0.0`. `d_logit`
/// (`E` long) is scratch for the logits' gradients `g_e`.
///
/// # Panics
/// Panics if a shape disagrees.
pub fn spatial_backward(
    qkv: &Matrix,
    scale: f32,
    plans: &SpatialPlans,
    beta: &[f32],
    g_out: &Matrix,
    d_logit: &mut [f32],
    d_qkv: &mut Matrix,
) {
    let rbf = &*plans.rbf;
    let n_edges = plans.src.len();
    let w = g_out.cols();
    check_spatial(qkv, plans, w, g_out.rows(), "spatial_backward");
    assert!(
        beta.len() == n_edges && d_logit.len() == n_edges,
        "spatial_backward: per-edge buffer length mismatch"
    );
    assert_eq!(
        d_qkv.shape(),
        qkv.shape(),
        "spatial_backward: gradient shape mismatch"
    );
    if w == 0 {
        return;
    }
    let (src, dst) = (plans.src.segment_of_row(), plans.dst.segment_of_row());
    let (q, k, v) = qkv_windows(qkv, w);
    let logit_ptr = SendPtr::new(d_logit.as_mut_ptr());
    let grain = walk_grain(n_edges, g_out.rows(), 2 * w);
    let max_len = longest_segment(&plans.segments);
    let seg_dst = &plans.seg_dst;
    for_each_destination(
        g_out.rows(),
        w,
        grain,
        seg_dst,
        None,
        [max_len; 2],
        |bufs, n, segs, _| {
            let [seg_beta, seg_grads] = bufs;
            let g = g_out.row(n);
            for &s in segs {
                let rows = plans.segments.rows_of(s as usize);
                let (seg_beta, seg_grads) =
                    (&mut seg_beta[..rows.len()], &mut seg_grads[..rows.len()]);
                for (b, &r) in seg_beta.iter_mut().zip(rows) {
                    *b = beta[r as usize];
                }
                for (x, &r) in seg_grads.iter_mut().zip(rows) {
                    *x = dot_from(DOT_INIT, v.row(src[r as usize], w), g);
                }
                softmax_backward(seg_beta, seg_grads);
                for (&r, &dx) in rows.iter().zip(seg_grads.iter()) {
                    let r = r as usize;
                    // The adjoints of `mul` by the RBF weight, then of `scale`.
                    // SAFETY: edge `r` lies in one segment of one destination,
                    // so this job alone writes slot `r`, and the pool joins
                    // every job before `d_logit`'s borrow ends.
                    unsafe { *logit_ptr.get().add(r) = dx * rbf[(r, 0)] * scale };
                }
            }
        },
    );
    let d_logit: &[f32] = d_logit;
    let cols = d_qkv.cols();
    let grain = walk_grain(3 * n_edges, d_qkv.rows(), w);
    kernel::par_row_chunks(d_qkv.data_mut(), cols, grain, |n0, chunk| {
        with_buffers([w], |[acc]| {
            for (dn, row) in chunk.chunks_mut(cols).enumerate() {
                let n = n0 + dn;
                let (o_q, rest) = row.split_at_mut(w);
                let (o_k, o_v) = rest.split_at_mut(w);
                // The tape differentiates the value gather, then the key
                // gather, then the query gather; each is its own sum.
                let parts: [(&SegmentPlan, &mut [f32]); 3] =
                    [(&plans.src, o_v), (&plans.src, o_k), (&plans.dst, o_q)];
                for (which, (plan, out)) in parts.into_iter().enumerate() {
                    acc.fill(0.0);
                    for &e in plan.rows_of(n) {
                        let e = e as usize;
                        let (x, scale): (&[f32], f32) = match which {
                            0 => (g_out.row(dst[e]), beta[e]),
                            1 => (q.row(dst[e], w), d_logit[e]),
                            _ => (k.row(src[e], w), d_logit[e]),
                        };
                        for (s, &xv) in acc.iter_mut().zip(x) {
                            *s += xv * scale;
                        }
                    }
                    for (o, &s) in out.iter_mut().zip(acc.iter()) {
                        *o += s;
                    }
                }
            }
        })
    });
}
