//! Fused attention kernels for gradient-free forwards.
//!
//! A graph-attention layer built from tape ops materialises several
//! edge-row matrices per head: gathered endpoint features, their concat,
//! the per-edge attention vectors, logits, softmax weights and weighted
//! messages, each a full pass over memory before two segment sums reduce
//! them. The kernels here walk the destination-major segments once
//! instead and keep only one segment's logits at a time, in the spirit of
//! the fused gather–softmax–scatter of Zhang et al. ("Understanding GNN
//! Computational Graph", MLSys 2022).
//!
//! They have no backward pass: [`crate::Graph`] exposes them as
//! inference-tape ops only, and a training tape keeps the composed ops.
//! Each kernel is **bitwise** the composed ops it replaces, because it
//! performs every rounding step of theirs in the same order:
//!
//! * a logit's dot product folds from the same start in the same element
//!   order as [`Matrix::row_dot`] over the concatenated features (both
//!   call one fold helper); the part every edge of a segment shares is
//!   folded once per segment and each edge continues from it;
//! * a projected distance feature is the matmul's ascending-`k`
//!   multiply-add sequence from `+0.0` (the same `fmadd` step);
//! * the segment softmax takes the `>` maximum from `-∞`, `exp(x − max)`,
//!   sums in row order from `+0.0` and divides by `max(sum, 1e-12)`, as
//!   the tape's segment softmax does;
//! * each segment's weighted messages are summed in row order from `+0.0`,
//!   and each destination's segments in segment order from `+0.0`, as the
//!   two planned segment sums do.
//!
//! Output rows are split by destination range over the worker pool; each
//! row is computed by one thread in that fixed order, so the result is
//! the same at any thread count.

use crate::graph::NORM_EPS;
use crate::kernel;
use crate::matrix::{dot_from, fmadd, Matrix, DOT_INIT};
use crate::segment::{SegmentPlan, SEG_PAR_MIN_WORK};

/// Destination-major softmax segments: which edge rows form each segment,
/// and which segments feed each destination row.
#[derive(Clone, Copy)]
pub struct Segments<'a> {
    /// Edge rows of each segment, ascending.
    pub edges: &'a SegmentPlan,
    /// Segments of each destination row, ascending; one destination per
    /// output row.
    pub of_dst: &'a SegmentPlan,
}

/// The edges of a relational attention layer.
///
/// Every edge of a segment must share its destination (the segment's
/// destination in `segments.of_dst`) and its relation.
#[derive(Clone, Copy)]
pub struct RelationalEdges<'a> {
    /// The `(destination, relation)` segments.
    pub segments: Segments<'a>,
    /// Source row of each edge in the attention features.
    pub src: &'a [usize],
    /// Relation of each edge: its row of the attention vectors.
    pub rel: &'a [usize],
    /// Message row of each edge.
    pub key: &'a [usize],
    /// Raw distance features of each edge (`E × f`).
    pub dist: &'a Matrix,
}

/// The edges of a spatial-context block.
///
/// Every edge of a segment must share its destination.
#[derive(Clone, Copy)]
pub struct SpatialEdges<'a> {
    /// The per-destination segments.
    pub segments: Segments<'a>,
    /// Source row of each edge.
    pub src: &'a [usize],
    /// RBF weight of each edge (`E × 1`).
    pub rbf: &'a Matrix,
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
    /// Projected messages, one row per key.
    pub msg: Cols<'a>,
    /// Distance projection `W_d` (`f × dd`).
    pub w_dist: &'a Matrix,
    /// Attention vectors, one `2·width + dd` row per relation: the dst,
    /// src and distance parts in that order.
    pub att: &'a Matrix,
    /// Negative slope of the leaky ReLU on the logits.
    pub slope: f32,
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

/// Checks `segments` against `out` and the edge count, for a kernel entry.
fn check_segments(segments: &Segments<'_>, n_edges: usize, out: &Matrix, what: &str) {
    assert_eq!(
        segments.edges.len(),
        n_edges,
        "{what}: the segment plan covers {} edges, the edges {n_edges}",
        segments.edges.len()
    );
    assert_eq!(
        segments.of_dst.len(),
        segments.edges.n_segments(),
        "{what}: segment-to-destination map length mismatch"
    );
    assert_eq!(
        segments.of_dst.n_segments(),
        out.rows(),
        "{what}: {} destinations, output has {} rows",
        segments.of_dst.n_segments(),
        out.rows()
    );
}

/// Softmax over one segment's logits in place, then `acc[c] += Σ
/// α_i · row_i[c]` in segment order from `+0.0`, then `out += acc`.
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
    for (&e, row) in logits.iter().zip(rows) {
        let alpha = e / denom;
        for (a, &m) in acc.iter_mut().zip(row) {
            *a += m * alpha;
        }
    }
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        *o += a;
    }
}

/// One head of spatial-aware relational attention (PRIM Eq. 3–5), fused.
///
/// Output row `n` (which `out` must hold zeroed, `width` wide) becomes
/// `Σ_segments Σ_edges α_e · msg[key_e]`, where
/// `α = softmax_segment(leaky_relu([ha[n] ‖ ha[src_e] ‖ dist_e·W_d] · att[rel]))`.
/// Bitwise equal to the composed tape ops (gathers, slices, concat,
/// `rows_dot`, `leaky_relu`, segment softmax, `scale_rows` and two segment
/// sums); see the module docs.
///
/// # Panics
/// Panics if a shape disagrees with the edges or the head's width.
pub fn relational_into(head: &RelationalHead<'_>, edges: &RelationalEdges<'_>, out: &mut Matrix) {
    let n_edges = edges.src.len();
    let w = out.cols();
    let (f, dd) = head.w_dist.shape();
    assert!(
        edges.rel.len() == n_edges && edges.key.len() == n_edges,
        "relational_into: per-edge list length mismatch"
    );
    assert_eq!(
        edges.dist.shape(),
        (n_edges, f),
        "relational_into: distance features must be {n_edges}x{f}"
    );
    assert_eq!(
        head.att.cols(),
        2 * w + dd,
        "relational_into: attention vectors must be {} wide",
        2 * w + dd
    );
    assert!(
        head.ha.start + w <= head.ha.m.cols() && head.msg.start + w <= head.msg.m.cols(),
        "relational_into: column window out of range"
    );
    check_segments(&edges.segments, n_edges, out, "relational_into");
    if w == 0 {
        return;
    }
    let grain = walk_grain(n_edges, out.rows(), 3 * w + dd * (f + 1));
    kernel::par_row_chunks(out.data_mut(), w, grain, |n0, chunk| {
        let mut logits = Vec::new();
        let mut acc = vec![0.0f32; w];
        let mut dproj = vec![0.0f32; dd];
        for (dn, orow) in chunk.chunks_mut(w).enumerate() {
            let dst = head.ha.row(n0 + dn, w);
            for &s in edges.segments.of_dst.rows_of(n0 + dn) {
                let rows = edges.segments.edges.rows_of(s as usize);
                // An empty segment adds a zero row, which changes no bit
                // of a sum that starts from +0.0.
                let Some(&first) = rows.first() else {
                    continue;
                };
                let att = head.att.row(edges.rel[first as usize]);
                let (a_dst, rest) = att.split_at(w);
                let (a_src, a_dist) = rest.split_at(w);
                let prefix = dot_from(DOT_INIT, dst, a_dst);
                logits.clear();
                for &r in rows {
                    let r = r as usize;
                    let d = edges.dist.row(r);
                    for (c, p) in dproj.iter_mut().enumerate() {
                        *p = 0.0;
                        for (j, &x) in d.iter().enumerate() {
                            *p = fmadd(x, head.w_dist[(j, c)], *p);
                        }
                    }
                    let x = dot_from(prefix, head.ha.row(edges.src[r], w), a_src);
                    let mut x = dot_from(x, &dproj, a_dist);
                    if x < 0.0 {
                        x *= head.slope;
                    }
                    logits.push(x);
                }
                let msgs = rows.iter().map(|&r| head.msg.row(edges.key[r as usize], w));
                softmax_aggregate(&mut logits, msgs, &mut acc, orow);
            }
        }
    });
}

/// The self-attentive spatial context (PRIM Eq. 6–9), fused.
///
/// `qkv` holds queries, keys and values side by side, `width` columns
/// each (`n × 3·width`), and `out` (zeroed, `n × width`) receives row `n`'s
/// context `Σ_edges β_e · v[src_e]` with
/// `β = softmax_segment((q[n] · k[src_e]) · scale · rbf_e)`. Bitwise equal to
/// the composed tape ops (gathers, `rows_dot`, `scale`, `mul`, segment
/// softmax, `scale_rows` and two segment sums).
///
/// # Panics
/// Panics if a shape disagrees with the edges.
pub fn spatial_into(qkv: &Matrix, scale: f32, edges: &SpatialEdges<'_>, out: &mut Matrix) {
    let n_edges = edges.src.len();
    let w = out.cols();
    assert_eq!(
        qkv.shape(),
        (out.rows(), 3 * w),
        "spatial_into: qkv must be {}x{}",
        out.rows(),
        3 * w
    );
    assert_eq!(
        edges.rbf.shape(),
        (n_edges, 1),
        "spatial_into: RBF weights must be {n_edges}x1"
    );
    check_segments(&edges.segments, n_edges, out, "spatial_into");
    if w == 0 {
        return;
    }
    let (q, k, v) = (
        Cols { m: qkv, start: 0 },
        Cols { m: qkv, start: w },
        Cols {
            m: qkv,
            start: 2 * w,
        },
    );
    let grain = walk_grain(n_edges, out.rows(), 2 * w);
    kernel::par_row_chunks(out.data_mut(), w, grain, |n0, chunk| {
        let mut logits = Vec::new();
        let mut acc = vec![0.0f32; w];
        for (dn, orow) in chunk.chunks_mut(w).enumerate() {
            let query = q.row(n0 + dn, w);
            for &s in edges.segments.of_dst.rows_of(n0 + dn) {
                let rows = edges.segments.edges.rows_of(s as usize);
                logits.clear();
                logits.extend(rows.iter().map(|&r| {
                    let r = r as usize;
                    dot_from(DOT_INIT, query, k.row(edges.src[r], w)) * scale * edges.rbf[(r, 0)]
                }));
                let values = rows.iter().map(|&r| v.row(edges.src[r as usize], w));
                softmax_aggregate(&mut logits, values, &mut acc, orow);
            }
        }
    });
}
