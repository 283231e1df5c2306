//! Finite-difference gradient checks for every differentiable op.
//!
//! Each test builds the same loss eagerly (for numeric differentiation) and
//! on the tape (for analytic gradients), then compares.

use prim_tensor::attention::{RelationalPlans, SpatialPlans};
use prim_tensor::check::{assert_gradients_match, numeric_gradients, TestRng};
use prim_tensor::{AttentionHead, Graph, Matrix, SegmentPlan, Var};
use std::sync::Arc;

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// Runs a gradient check: `build` wires inputs (as leaves) into a scalar loss.
fn check(inputs: &[Matrix], build: impl Fn(&mut Graph, &[Var]) -> Var) {
    let f = |ins: &[Matrix]| -> f32 {
        let mut g = Graph::new();
        let vars: Vec<Var> = ins.iter().map(|m| g.leaf(m.clone())).collect();
        let loss = build(&mut g, &vars);
        g.value(loss).scalar()
    };
    let numeric = numeric_gradients(f, inputs, EPS);

    let mut g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|m| g.leaf(m.clone())).collect();
    let loss = build(&mut g, &vars);
    let grads = g.backward(loss);
    let analytic: Vec<Matrix> = vars
        .iter()
        .zip(inputs.iter())
        .map(|(&v, m)| grads.get_or_zeros(v, m.rows(), m.cols()).into_owned())
        .collect();
    assert_gradients_match(&analytic, &numeric, TOL);
}

fn rng_mats(seed: u64, shapes: &[(usize, usize)]) -> Vec<Matrix> {
    let mut rng = TestRng::new(seed);
    shapes.iter().map(|&(r, c)| rng.matrix(r, c)).collect()
}

#[test]
fn grad_matmul() {
    let ins = rng_mats(1, &[(3, 4), (4, 2)]);
    check(&ins, |g, v| {
        let c = g.matmul(v[0], v[1]);
        g.sum_all(c)
    });
}

#[test]
fn grad_add_sub_mul() {
    let ins = rng_mats(2, &[(3, 3), (3, 3), (3, 3)]);
    check(&ins, |g, v| {
        let a = g.add(v[0], v[1]);
        let b = g.sub(a, v[2]);
        let c = g.mul(b, v[0]);
        g.sum_all(c)
    });
}

#[test]
fn grad_add_row_broadcast() {
    let ins = rng_mats(3, &[(4, 3), (1, 3)]);
    check(&ins, |g, v| {
        let y = g.add_row_broadcast(v[0], v[1]);
        let sq = g.mul(y, y);
        g.sum_all(sq)
    });
}

#[test]
fn grad_scale_and_add_scalar() {
    let ins = rng_mats(4, &[(2, 5)]);
    check(&ins, |g, v| {
        let a = g.scale(v[0], 2.5);
        let b = g.add_scalar(a, -0.5);
        let c = g.mul(b, b);
        g.mean_all(c)
    });
}

#[test]
fn grad_mul_scalar_var() {
    let ins = rng_mats(5, &[(2, 3), (1, 1)]);
    check(&ins, |g, v| {
        let y = g.mul_scalar_var(v[0], v[1]);
        let sq = g.mul(y, y);
        g.sum_all(sq)
    });
}

#[test]
fn grad_concat_cols() {
    let ins = rng_mats(6, &[(3, 2), (3, 3), (3, 1)]);
    check(&ins, |g, v| {
        let cc = g.concat_cols(&[v[0], v[1], v[2]]);
        let sq = g.mul(cc, cc);
        g.sum_all(sq)
    });
}

#[test]
fn grad_vstack() {
    let ins = rng_mats(7, &[(2, 3), (1, 3), (3, 3)]);
    check(&ins, |g, v| {
        let vs = g.vstack(&[v[0], v[1], v[2]]);
        let sq = g.mul(vs, vs);
        g.sum_all(sq)
    });
}

#[test]
fn grad_gather_rows_with_repeats() {
    let ins = rng_mats(8, &[(4, 3)]);
    check(&ins, |g, v| {
        let gathered = g.gather_rows(v[0], &[0, 2, 2, 3, 0]);
        let sq = g.mul(gathered, gathered);
        g.sum_all(sq)
    });
}

#[test]
fn grad_segment_sum() {
    let ins = rng_mats(9, &[(6, 2)]);
    check(&ins, |g, v| {
        let s = g.segment_sum(v[0], &[0, 1, 0, 2, 2, 1], 3);
        let sq = g.mul(s, s);
        g.sum_all(sq)
    });
}

#[test]
fn grad_segment_softmax_single_column() {
    let ins = rng_mats(10, &[(6, 1), (6, 1)]);
    check(&ins, |g, v| {
        let sm = g.segment_softmax(v[0], &[0, 0, 1, 1, 1, 2]);
        let weighted = g.mul(sm, v[1]);
        g.sum_all(weighted)
    });
}

#[test]
fn grad_segment_softmax_multi_column() {
    let ins = rng_mats(11, &[(5, 3), (5, 3)]);
    check(&ins, |g, v| {
        let sm = g.segment_softmax(v[0], &[0, 1, 0, 1, 0]);
        let weighted = g.mul(sm, v[1]);
        g.sum_all(weighted)
    });
}

#[test]
fn grad_rows_dot() {
    let ins = rng_mats(12, &[(4, 3), (4, 3)]);
    check(&ins, |g, v| {
        let d = g.rows_dot(v[0], v[1]);
        let sq = g.mul(d, d);
        g.sum_all(sq)
    });
}

#[test]
fn grad_scale_rows() {
    let ins = rng_mats(13, &[(4, 3), (4, 1)]);
    check(&ins, |g, v| {
        let y = g.scale_rows(v[0], v[1]);
        let sq = g.mul(y, y);
        g.sum_all(sq)
    });
}

#[test]
fn grad_normalize_rows() {
    // Keep inputs away from zero rows for numeric stability.
    let mut rng = TestRng::new(14);
    let x = Matrix::from_fn(3, 4, |_, _| rng.unit() + 2.0);
    let w = rng.matrix(3, 4);
    check(&[x, w], |g, v| {
        let y = g.normalize_rows(v[0]);
        let weighted = g.mul(y, v[1]);
        g.sum_all(weighted)
    });
}

#[test]
fn grad_activations() {
    // Shift away from the ReLU kink to avoid spurious numeric error.
    let mut rng = TestRng::new(15);
    let x = Matrix::from_fn(3, 3, |_, _| {
        let v = rng.unit();
        if v.abs() < 0.2 {
            v + 0.3
        } else {
            v
        }
    });
    check(std::slice::from_ref(&x), |g, v| {
        let y = g.relu(v[0]);
        g.sum_all(y)
    });
    check(std::slice::from_ref(&x), |g, v| {
        let y = g.leaky_relu(v[0], 0.2);
        g.sum_all(y)
    });
    check(std::slice::from_ref(&x), |g, v| {
        let y = g.elu(v[0]);
        g.sum_all(y)
    });
    check(std::slice::from_ref(&x), |g, v| {
        let y = g.sigmoid(v[0]);
        g.sum_all(y)
    });
    check(&[x], |g, v| {
        let y = g.tanh(v[0]);
        g.sum_all(y)
    });
}

#[test]
fn grad_bce_with_logits() {
    let ins = rng_mats(16, &[(5, 1)]);
    check(&ins, |g, v| {
        g.bce_with_logits(v[0], &[1.0, 0.0, 1.0, 0.0, 1.0])
    });
}

#[test]
fn grad_mean_all() {
    let ins = rng_mats(17, &[(3, 4)]);
    check(&ins, |g, v| {
        let sq = g.mul(v[0], v[0]);
        g.mean_all(sq)
    });
}

/// A composite resembling one WRGNN attention head: gather, concat, project,
/// leaky-relu, segment softmax, weighted aggregation.
#[test]
fn grad_attention_composite() {
    let mut rng = TestRng::new(18);
    let h = rng.matrix(4, 3); // node states
    let wa = rng.matrix(3, 2);
    let att = rng.matrix(4, 1); // per-edge attention vectors (pre-reduced)
    let wmsg = rng.matrix(3, 3);
    let src = vec![0usize, 1, 2, 3];
    let dst = vec![1usize, 1, 0, 0];
    let seg = vec![1usize, 1, 0, 0];
    check(&[h, wa, att, wmsg], |g, v| {
        let proj = g.matmul(v[0], v[1]); // 4x2
        let hs = g.gather_rows(proj, &src);
        let hd = g.gather_rows(proj, &dst);
        let feats = g.concat_cols(&[hd, hs]); // 4x4
                                              // build per-edge attention vec by tiling v[2] columns
        let a = g.concat_cols(&[v[2], v[2], v[2], v[2]]);
        let prod = g.rows_dot(feats, a);
        let scores = g.leaky_relu(prod, 0.2);
        let alpha = g.segment_softmax(scores, &seg);
        let msgs = g.matmul(v[0], v[3]);
        let msrc = g.gather_rows(msgs, &src);
        let weighted = g.scale_rows(msrc, alpha);
        let agg = g.segment_sum(weighted, &seg, 2);
        let act = g.elu(agg);
        let sq = g.mul(act, act);
        g.sum_all(sq)
    });
}

fn plan(map: &[usize], n: usize) -> Arc<SegmentPlan> {
    Arc::new(SegmentPlan::new(map.to_vec(), n))
}

/// Nine edges into five POIs over two relations, destination-major:
/// two-edge, one-edge and three-edge segments, a destination with two
/// segments, and one (POI 2) with none.
fn small_relational_plans(dist: Matrix) -> RelationalPlans {
    RelationalPlans {
        segments: plan(&[0, 0, 1, 2, 2, 2, 3, 3, 4], 5),
        seg_dst: plan(&[0, 0, 1, 3, 4], 5),
        src: plan(&[1, 2, 3, 0, 4, 2, 2, 0, 3], 5),
        dst: plan(&[0, 0, 0, 1, 1, 1, 3, 3, 4], 5),
        rel: plan(&[0, 0, 1, 0, 0, 0, 1, 1, 0], 2),
        key: None,
        dist: Arc::new(dist),
    }
}

/// The fused relational attention node on a training tape, two heads side
/// by side: every differentiable input — the features, the per-edge
/// message rows, and each head's distance projection and attention table.
#[test]
fn grad_fused_relational_attention() {
    let (w, dd) = (3, 2);
    let mut rng = TestRng::new(21);
    let plans = small_relational_plans(rng.matrix(9, 2));
    let ins = [
        (5, 2 * w),
        (9, 2 * w),
        (2, dd),
        (2, dd),
        (2, 2 * w + dd),
        (2, 2 * w + dd),
    ]
    .map(|(r, c)| rng.matrix(r, c));
    check(&ins, |g, v| {
        let heads: Vec<Var> = (0..2)
            .map(|k| {
                let head = AttentionHead {
                    ha: v[0],
                    msg: v[1],
                    col: k * w,
                    width: w,
                    w_dist: v[2 + k],
                    att: v[4 + k],
                    slope: 0.2,
                };
                g.relational_attention(head, &plans)
            })
            .collect();
        let out = g.concat_cols(&heads);
        let sq = g.mul(out, out);
        g.sum_all(sq)
    });
}

/// The fused spatial-context node on a training tape: the gradient of the
/// queries, keys and values.
#[test]
fn grad_fused_spatial_attention() {
    let w = 3;
    let mut rng = TestRng::new(22);
    let plans = SpatialPlans {
        segments: plan(&[0, 0, 0, 1, 2, 2, 3, 3], 4),
        seg_dst: plan(&[0, 1, 3, 4], 5),
        src: plan(&[1, 2, 3, 0, 0, 4, 2, 3], 5),
        dst: plan(&[0, 0, 0, 1, 3, 3, 4, 4], 5),
        rbf: Arc::new(Matrix::from_fn(8, 1, |_, _| rng.unit() * 0.5 + 1.0)),
    };
    let ins = [rng.matrix(5, 3 * w)];
    check(&ins, |g, v| {
        let ctx = g.spatial_attention(v[0], 1.0 / (w as f32).sqrt(), &plans);
        let sq = g.mul(ctx, ctx);
        g.sum_all(sq)
    });
}

/// Distance-specific hyperplane projection from the paper (Eq. 11):
/// h' = h − (h·ŵ) ŵ with ŵ the normalised bin vector.
#[test]
fn grad_hyperplane_projection() {
    let mut rng = TestRng::new(19);
    let h = rng.matrix(5, 3);
    let wb = Matrix::from_fn(2, 3, |_, _| rng.unit() + 1.5); // bin normals, away from 0
    let bins = vec![0usize, 1, 0, 1, 1];
    check(&[h, wb], |g, v| {
        let wn = g.normalize_rows(v[1]);
        let w_rows = g.gather_rows(wn, &bins);
        let dots = g.rows_dot(v[0], w_rows);
        let proj = g.scale_rows(w_rows, dots);
        let hd = g.sub(v[0], proj);
        let sq = g.mul(hd, hd);
        g.sum_all(sq)
    });
}

#[test]
fn grad_rows_circ_corr() {
    let ins = rng_mats(20, &[(3, 5), (3, 5)]);
    check(&ins, |g, v| {
        let y = g.rows_circ_corr(v[0], v[1]);
        let sq = g.mul(y, y);
        g.sum_all(sq)
    });
}

#[test]
fn circ_corr_forward_known_values() {
    // a = [1,2,0], b = [3,0,1]: (a⋆b)_k = Σ_i a_i b_{(k+i)%3}
    // k=0: 1·3 + 2·0 + 0·1 = 3; k=1: 1·0 + 2·1 + 0·3 = 2; k=2: 1·1 + 2·3 + 0·0 = 7.
    let mut g = Graph::new();
    let a = g.leaf(Matrix::from_vec(1, 3, vec![1.0, 2.0, 0.0]));
    let b = g.leaf(Matrix::from_vec(1, 3, vec![3.0, 0.0, 1.0]));
    let y = g.rows_circ_corr(a, b);
    assert_eq!(g.value(y).data(), &[3.0, 2.0, 7.0]);
}
