//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation applied to [`Var`] handles; calling
//! [`Graph::backward`] replays the tape in reverse, producing gradients for
//! every leaf created with [`Graph::leaf`].
//!
//! The op set is tailored to graph neural networks: besides the usual dense
//! ops (matmul, element-wise arithmetic, activations) it provides the
//! message-passing primitives `gather_rows`, `segment_sum` and
//! `segment_softmax`, plus row-wise kernels (`rows_dot`, `scale_rows`,
//! `normalize_rows`) used by attention and the distance-specific scoring
//! function of the PRIM paper.
//!
//! ## Buffer pool
//!
//! Full-batch training replays a structurally identical tape every epoch, so
//! the graph owns a size-keyed pool of `f32` buffers. [`Graph::reset`] clears
//! the tape and returns every node-value buffer to the pool;
//! [`Graph::recycle`] does the same for a consumed [`Gradients`]. Every op
//! (forward and backward) draws its output from the pool first, so after the
//! first epoch the forward/backward path performs ~zero heap allocations.
//! Pooled buffers are always fully initialised (zeroed, filled, copied or
//! overwritten) before use, so reuse never changes any computed value.
//!
//! For the scatter ops, `gather_rows_planned` / `segment_sum_planned` /
//! `segment_softmax_planned` accept a shared [`SegmentPlan`] built once per
//! graph structure instead of cloning an E-sized index slice per call, and
//! run their reductions in parallel by output segment (bitwise identical to
//! serial — see [`crate::segment`]).
//!
//! ## Inference tape
//!
//! A gradient-free forward needs only its outputs, yet a training tape
//! keeps every intermediate alive until it is reset. [`Graph::inference`]
//! builds a tape that refuses [`Graph::backward`] and honours
//! [`Graph::scope`] marks: [`Graph::end_scope`] drops the value of every
//! node recorded inside the scope except the named survivors, handing the
//! buffers back to the allocator (not to the pool — later ops mostly ask
//! for other shapes, so pooled buffers would only sit idle). On a training
//! tape ending a scope does nothing, so one forward serves both modes. A
//! scope's keep list must name every value read after the scope ends;
//! reading a released value panics, naming the node and its scope.
//!
//! ## Fused attention
//!
//! [`Graph::relational_attention`] and [`Graph::spatial_attention`] run
//! one pass each over an edge set's destination-major segments
//! ([`crate::attention`]), on either kind of tape. On a training tape the
//! node keeps only the E×1 softmax weights, and its backward pass is the
//! kernels' hand-written adjoint. Values and gradients are bitwise those of
//! the composed ops they replace.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use crate::attention::{self, Cols, RelationalHead, RelationalPlans, SpatialPlans};
use crate::kernel;
use crate::matrix::Matrix;
use crate::segment::{self, SegmentPlan};

/// Per-row parallel grain for an op whose rows each cost `row_work`
/// flops-ish units: chunks are sized so a thread gets at least
/// [`kernel::PAR_ELEM_CUTOFF`] units of work.
fn row_grain(row_work: usize) -> usize {
    (kernel::PAR_ELEM_CUTOFF / row_work.max(1)).max(1)
}

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// Index of the node inside its graph (diagnostic use only).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Recorded operation for one tape node.
enum Op {
    /// Leaf node (parameter or constant input); whether it receives a
    /// gradient is the node's `requires_grad` flag.
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// `a (n×c) + b (1×c)` broadcast over rows.
    AddRowBroadcast(Var, Var),
    Scale(Var, f32),
    /// `a + k`; the constant is irrelevant to the backward pass and not
    /// stored.
    AddScalar(Var),
    /// `a × s` where `s` is a `1×1` variable.
    MulScalarVar(Var, Var),
    ConcatCols(Vec<Var>),
    /// Column window `[start, start+width)` of the source; `width` is the
    /// node's own column count.
    SliceCols(Var, usize),
    VStack(Vec<Var>),
    /// Row gather; the plan's `segment_of_row` is the index list and its CSR
    /// groups drive the backward scatter-add.
    GatherRows(Var, Arc<SegmentPlan>),
    /// Sums rows of the input into `plan.n_segments()` output rows.
    SegmentSum {
        input: Var,
        plan: Arc<SegmentPlan>,
    },
    /// Column-wise softmax within each segment.
    SegmentSoftmax {
        input: Var,
        plan: Arc<SegmentPlan>,
    },
    /// Row-wise dot product of two equal-shape matrices → `n×1`.
    RowsDot(Var, Var),
    /// Row-wise circular correlation `(a ⋆ b)_k = Σ_i a_i·b_{(k+i) mod d}`.
    RowsCircCorr(Var, Var),
    /// `a (n×c)` with row `i` scaled by `s[i]` where `s` is `n×1`.
    ScaleRows(Var, Var),
    /// Each row divided by its L2 norm (plus epsilon).
    NormalizeRows(Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Elu(Var),
    Sigmoid(Var),
    Tanh(Var),
    SumAll(Var),
    MeanAll(Var),
    /// Mean binary cross-entropy over `n×1` logits against fixed targets.
    BceWithLogits {
        logits: Var,
        targets: Arc<[f32]>,
    },
    /// One head of [`Graph::relational_attention`]; `alpha` holds the
    /// forward's saved weights (empty on an inference tape).
    RelationalAttention {
        head: AttentionHead,
        plans: RelationalPlans,
        alpha: Matrix,
    },
    /// [`Graph::spatial_attention`]; `beta` holds the forward's saved
    /// weights (empty on an inference tape).
    SpatialAttention {
        qkv: Var,
        scale: f32,
        plans: SpatialPlans,
        beta: Matrix,
    },
}

struct Node {
    value: Matrix,
    op: Op,
    requires_grad: bool,
    /// Name of the scope whose end dropped `value` (inference tapes only).
    released_by: Option<&'static str>,
}

/// Value of node `v`, checked against release. A free function over the
/// node list so an op can read its inputs while it borrows the pool.
fn live(nodes: &[Node], v: Var) -> &Matrix {
    let node = &nodes[v.0];
    if let Some(scope) = node.released_by {
        panic!(
            "value of node {} was released when scope `{scope}` ended; \
             name it in that scope's keep list to read it afterwards",
            v.0
        );
    }
    &node.value
}

/// A tape region opened by [`Graph::scope`] and closed by
/// [`Graph::end_scope`].
#[derive(Clone, Copy, Debug)]
pub struct Scope {
    /// Index of the first node recorded inside the scope.
    start: usize,
    name: &'static str,
}

/// Size-keyed recycling pool of `f32` buffers.
///
/// Buffers are bucketed by element count and handed back LIFO, so a tape
/// whose structure repeats across epochs reuses exactly the allocations it
/// released on [`Graph::reset`]. Every taker fully initialises the buffer it
/// receives (zero / fill / copy / overwrite), so pooling is invisible to the
/// computed values.
#[derive(Default)]
struct BufferPool {
    buckets: HashMap<usize, Vec<Vec<f32>>>,
}

impl BufferPool {
    /// Returns a buffer to the pool (empty buffers are dropped — they carry
    /// no allocation).
    fn put(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        self.buckets.entry(buf.len()).or_default().push(buf);
    }

    /// Returns a matrix's buffer to the pool.
    fn put_back(&mut self, m: Matrix) {
        self.put(m.into_vec());
    }

    /// A `rows × cols` matrix with unspecified (stale) contents; the caller
    /// must overwrite every element.
    fn uninit(&mut self, rows: usize, cols: usize) -> Matrix {
        match self
            .buckets
            .get_mut(&(rows * cols))
            .and_then(|bucket| bucket.pop())
        {
            Some(buf) => Matrix::from_vec(rows, cols, buf),
            None => Matrix::zeros(rows, cols),
        }
    }

    /// A zero-filled `rows × cols` matrix.
    fn zeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        match self
            .buckets
            .get_mut(&(rows * cols))
            .and_then(|bucket| bucket.pop())
        {
            Some(buf) => {
                let mut m = Matrix::from_vec(rows, cols, buf);
                m.fill_zero();
                m
            }
            None => Matrix::zeros(rows, cols),
        }
    }

    /// A `rows × cols` matrix filled with `v`.
    fn filled(&mut self, rows: usize, cols: usize, v: f32) -> Matrix {
        let mut m = self.uninit(rows, cols);
        m.fill(v);
        m
    }

    /// A copy of `src` in a pooled buffer.
    fn copy_of(&mut self, src: &Matrix) -> Matrix {
        match self
            .buckets
            .get_mut(&src.len())
            .and_then(|bucket| bucket.pop())
        {
            Some(mut buf) => {
                buf.copy_from_slice(src.data());
                Matrix::from_vec(src.rows(), src.cols(), buf)
            }
            None => src.clone(),
        }
    }
}

/// Gradients produced by [`Graph::backward`].
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. `var`, if it participated in the loss.
    pub fn get(&self, var: Var) -> Option<&Matrix> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }

    /// Gradient of the loss w.r.t. `var` — borrowed when present (never
    /// cloned), an owned zero matrix of the given shape otherwise.
    pub fn get_or_zeros(&self, var: Var, rows: usize, cols: usize) -> Cow<'_, Matrix> {
        match self.get(var) {
            Some(g) => Cow::Borrowed(g),
            None => Cow::Owned(Matrix::zeros(rows, cols)),
        }
    }
}

/// A computation tape with an epoch-persistent buffer pool.
///
/// Build the graph once per training run: register parameter matrices with
/// [`Graph::leaf`] (or, after a reset, [`Graph::leaf_ref`]), inputs with
/// [`Graph::constant`] / [`Graph::constant_ref`], chain ops, call
/// [`Graph::backward`] on the scalar loss, then [`Graph::recycle`] the
/// gradients and [`Graph::reset`] the tape before the next step — steady
/// state steps then run allocation-free.
///
/// For gradient-free passes, build the tape with [`Graph::inference`] (see
/// the module docs).
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    pool: BufferPool,
    /// Recycled gradient-slot vector, reused by the next backward pass.
    spare_grads: Vec<Option<Matrix>>,
    /// Inference tape: no backward pass, and scope ends drop values.
    inference: bool,
}

/// The floor of a normalising denominator: a row norm, a softmax sum.
pub(crate) const NORM_EPS: f32 = 1e-12;

/// The tape operands of one head of [`Graph::relational_attention`].
#[derive(Clone, Copy, Debug)]
pub struct AttentionHead {
    /// Attention features of every POI (`n × ·`).
    pub ha: Var,
    /// Projected messages, one row per key (`K × ·`) or, as a training
    /// tape needs, per edge (`E × ·`); see [`RelationalPlans::key`].
    pub msg: Var,
    /// First column of the head's window in `ha` and `msg`.
    pub col: usize,
    /// Width of the head's window, and of its output.
    pub width: usize,
    /// Distance projection `W_d` (`f × dd`).
    pub w_dist: Var,
    /// Per-relation attention vectors (`R × (2·width + dd)`).
    pub att: Var,
    /// Negative slope of the leaky ReLU on the logits.
    pub slope: f32,
}

/// Scales row `i` of `dst` by `s[i]` (`s` is `n×1`), in parallel.
fn scale_rows_in_place(dst: &mut Matrix, s: &Matrix) {
    let c = dst.cols();
    if c == 0 {
        return;
    }
    kernel::par_row_chunks(dst.data_mut(), c, row_grain(c), |r0, chunk| {
        for (dr, row) in chunk.chunks_mut(c).enumerate() {
            let k = s[(r0 + dr, 0)];
            for x in row.iter_mut() {
                *x *= k;
            }
        }
    });
}

impl Graph {
    /// Creates an empty graph with an empty buffer pool.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty inference tape: [`Graph::backward`] panics on it,
    /// and [`Graph::end_scope`] drops the values a scope does not keep.
    pub fn inference() -> Self {
        Graph {
            inference: true,
            ..Graph::default()
        }
    }

    /// Opens a scope at the current end of the tape; `name` appears in the
    /// panic message of any later read of a value the scope released.
    pub fn scope(&self, name: &'static str) -> Scope {
        Scope {
            start: self.nodes.len(),
            name,
        }
    }

    /// Ends `scope`. On an inference tape, drops the value of every node
    /// recorded since the scope opened except those in `keep`, so `keep`
    /// must name every such value read afterwards. On a training tape the
    /// backward pass needs every value, and this does nothing.
    pub fn end_scope(&mut self, scope: Scope, keep: &[Var]) {
        if !self.inference {
            return;
        }
        for (idx, node) in self.nodes.iter_mut().enumerate().skip(scope.start) {
            if node.released_by.is_none() && !keep.contains(&Var(idx)) {
                node.value = Matrix::zeros(0, 0);
                node.released_by = Some(scope.name);
            }
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no node has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears the tape, retaining every node-value buffer in the internal
    /// pool so the next epoch's structurally identical tape reuses them
    /// instead of allocating.
    pub fn reset(&mut self) {
        let mut nodes = std::mem::take(&mut self.nodes);
        for node in nodes.drain(..) {
            self.pool.put_back(node.value);
            match node.op {
                Op::RelationalAttention { alpha: saved, .. }
                | Op::SpatialAttention { beta: saved, .. } => self.pool.put_back(saved),
                _ => {}
            }
        }
        self.nodes = nodes;
    }

    /// Returns a consumed [`Gradients`]' buffers (and its slot vector) to
    /// the pool. Call once the optimiser has applied the step.
    pub fn recycle(&mut self, grads: Gradients) {
        let mut slots = grads.grads;
        for slot in slots.iter_mut() {
            if let Some(m) = slot.take() {
                self.pool.put_back(m);
            }
        }
        self.spare_grads = slots;
    }

    /// Number of idle buffers currently held by the pool (diagnostics).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.buckets.values().map(|b| b.len()).sum()
    }

    fn push(&mut self, value: Matrix, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            op,
            requires_grad,
            released_by: None,
        });
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Registers a non-trainable input (no gradient is computed for it).
    pub fn constant(&mut self, m: Matrix) -> Var {
        self.push(m, Op::Leaf, false)
    }

    /// Like [`Graph::constant`], but copies the borrowed matrix into a
    /// pooled buffer — the allocation-free way to re-register an unchanged
    /// input after [`Graph::reset`].
    pub fn constant_ref(&mut self, m: &Matrix) -> Var {
        let value = self.pool.copy_of(m);
        self.push(value, Op::Leaf, false)
    }

    /// Registers a trainable leaf; [`Gradients::get`] will return its gradient.
    pub fn leaf(&mut self, m: Matrix) -> Var {
        self.push(m, Op::Leaf, true)
    }

    /// Like [`Graph::leaf`], but copies the borrowed matrix into a pooled
    /// buffer — used by parameter stores to re-bind parameters every epoch
    /// without allocating.
    pub fn leaf_ref(&mut self, m: &Matrix) -> Var {
        let value = self.pool.copy_of(m);
        self.push(value, Op::Leaf, true)
    }

    /// Value of a node. Panics if a scope released it.
    pub fn value(&self, v: Var) -> &Matrix {
        live(&self.nodes, v)
    }

    /// Shape of a node's value. Panics if a scope released it.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        live(&self.nodes, v).shape()
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = (self.shape(a).0, self.shape(b).1);
        let mut value = self.pool.uninit(m, n);
        live(&self.nodes, a).matmul_into(live(&self.nodes, b), &mut value);
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::MatMul(a, b), rg)
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.shape(a), self.shape(b), "add shape mismatch");
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        kernel::par_zip_apply(value.data_mut(), live(&self.nodes, b).data(), |x, y| {
            *x += y
        });
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::Add(a, b), rg)
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.shape(a), self.shape(b), "sub shape mismatch");
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        kernel::par_zip_apply(value.data_mut(), live(&self.nodes, b).data(), |x, y| {
            *x -= y
        });
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::Sub(a, b), rg)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.shape(a), self.shape(b), "mul shape mismatch");
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        kernel::par_zip_apply(value.data_mut(), live(&self.nodes, b).data(), |x, y| {
            *x *= y
        });
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::Mul(a, b), rg)
    }

    /// Adds a `1×c` row vector to every row of an `n×c` matrix.
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let (_, c) = self.shape(a);
        assert_eq!(self.shape(b), (1, c), "add_row_broadcast: b must be 1x{c}");
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        if c > 0 {
            let bm = live(&self.nodes, b);
            kernel::par_row_chunks(value.data_mut(), c, row_grain(c), |_, chunk| {
                for row in chunk.chunks_mut(c) {
                    for (x, &y) in row.iter_mut().zip(bm.row(0)) {
                        *x += y;
                    }
                }
            });
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::AddRowBroadcast(a, b), rg)
    }

    /// Multiplies every element by the constant `k`.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        kernel::par_apply(value.data_mut(), |v| *v *= k);
        let rg = self.rg(a);
        self.push(value, Op::Scale(a, k), rg)
    }

    /// Adds the constant `k` to every element.
    pub fn add_scalar(&mut self, a: Var, k: f32) -> Var {
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        kernel::par_apply(value.data_mut(), |v| *v += k);
        let rg = self.rg(a);
        self.push(value, Op::AddScalar(a), rg)
    }

    /// Multiplies a matrix by a `1×1` variable.
    pub fn mul_scalar_var(&mut self, a: Var, s: Var) -> Var {
        assert_eq!(self.shape(s), (1, 1), "mul_scalar_var: s must be 1x1");
        let k = live(&self.nodes, s).scalar();
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        kernel::par_apply(value.data_mut(), |v| *v *= k);
        let rg = self.rg(a) || self.rg(s);
        self.push(value, Op::MulScalarVar(a, s), rg)
    }

    /// Horizontal concatenation of equally-tall matrices.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of zero parts");
        let rows = self.shape(parts[0]).0;
        let mut cols = 0usize;
        for &p in parts {
            let (r, c) = self.shape(p);
            assert_eq!(r, rows, "concat_cols row mismatch");
            cols += c;
        }
        let mut value = self.pool.uninit(rows, cols);
        if cols > 0 {
            let nodes = &self.nodes;
            kernel::par_row_chunks(value.data_mut(), cols, row_grain(cols), |r0, chunk| {
                for (dr, row) in chunk.chunks_mut(cols).enumerate() {
                    let r = r0 + dr;
                    let mut offset = 0;
                    for &p in parts {
                        let m = live(nodes, p);
                        row[offset..offset + m.cols()].copy_from_slice(m.row(r));
                        offset += m.cols();
                    }
                }
            });
        }
        let rg = parts.iter().any(|&v| self.rg(v));
        self.push(value, Op::ConcatCols(parts.to_vec()), rg)
    }

    /// Copies the column window `[start, start + width)` of `a` into a new
    /// node — the inverse of [`Graph::concat_cols`], used to fan a batched
    /// multi-head projection back out into per-head views.
    pub fn slice_cols(&mut self, a: Var, start: usize, width: usize) -> Var {
        let (n, c) = self.shape(a);
        assert!(
            start + width <= c,
            "slice_cols window [{start}, {}) out of range for {c} columns",
            start + width
        );
        let mut value = self.pool.uninit(n, width);
        if width > 0 {
            let input = live(&self.nodes, a);
            kernel::par_row_chunks(value.data_mut(), width, row_grain(width), |r0, chunk| {
                for (dr, row) in chunk.chunks_mut(width).enumerate() {
                    row.copy_from_slice(&input.row(r0 + dr)[start..start + width]);
                }
            });
        }
        let rg = self.rg(a);
        self.push(value, Op::SliceCols(a, start), rg)
    }

    /// Vertical concatenation of equally-wide matrices.
    pub fn vstack(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "vstack of zero parts");
        let cols = self.shape(parts[0]).1;
        let mut rows = 0usize;
        for &p in parts {
            let (r, c) = self.shape(p);
            assert_eq!(c, cols, "vstack column mismatch");
            rows += r;
        }
        let mut value = self.pool.uninit(rows, cols);
        let mut offset = 0;
        for &p in parts {
            let m = live(&self.nodes, p);
            value.data_mut()[offset..offset + m.len()].copy_from_slice(m.data());
            offset += m.len();
        }
        let rg = parts.iter().any(|&v| self.rg(v));
        self.push(value, Op::VStack(parts.to_vec()), rg)
    }

    /// Gathers rows by index (rows may repeat). The backward pass
    /// scatter-adds into the source.
    ///
    /// Builds a throwaway [`SegmentPlan`] per call; hot paths should build
    /// the plan once and use [`Graph::gather_rows_planned`].
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let n_rows = self.shape(a).0;
        let plan = Arc::new(SegmentPlan::new(indices.to_vec(), n_rows));
        self.gather_rows_planned(a, &plan)
    }

    /// [`Graph::gather_rows`] with a precomputed shared plan
    /// (`plan.segment_of_row()` is the index list; `plan.n_segments()` must
    /// equal the source's row count).
    pub fn gather_rows_planned(&mut self, a: Var, plan: &Arc<SegmentPlan>) -> Var {
        let (rows, c) = self.shape(a);
        assert_eq!(
            plan.n_segments(),
            rows,
            "gather_rows plan was built for a {}-row source, matrix has {rows} rows",
            plan.n_segments()
        );
        let mut value = self.pool.uninit(plan.len(), c);
        segment::broadcast_segments_into(live(&self.nodes, a), plan, &mut value);
        let rg = self.rg(a);
        self.push(value, Op::GatherRows(a, Arc::clone(plan)), rg)
    }

    /// Sums rows into segments: output row `s` is the sum of input rows `r`
    /// with `segment_of_row[r] == s`.
    ///
    /// Builds a throwaway [`SegmentPlan`] per call; hot paths should build
    /// the plan once and use [`Graph::segment_sum_planned`].
    pub fn segment_sum(&mut self, a: Var, segment_of_row: &[usize], n_segments: usize) -> Var {
        let plan = Arc::new(SegmentPlan::new(segment_of_row.to_vec(), n_segments));
        self.segment_sum_planned(a, &plan)
    }

    /// [`Graph::segment_sum`] with a precomputed shared plan.
    pub fn segment_sum_planned(&mut self, a: Var, plan: &Arc<SegmentPlan>) -> Var {
        let (n, c) = self.shape(a);
        assert_eq!(plan.len(), n, "segment_sum: segment map length mismatch");
        let mut value = self.pool.zeroed(plan.n_segments(), c);
        segment::segment_sum_into(live(&self.nodes, a), plan, &mut value);
        let rg = self.rg(a);
        self.push(
            value,
            Op::SegmentSum {
                input: a,
                plan: Arc::clone(plan),
            },
            rg,
        )
    }

    /// Softmax within each segment, applied independently per column.
    ///
    /// For every column `c` and segment `s`, the entries
    /// `{a[r][c] : segment_of_row[r] == s}` are replaced by their softmax.
    /// Numerically stabilised by subtracting the per-segment maximum.
    ///
    /// Builds a throwaway [`SegmentPlan`] per call; hot paths should build
    /// the plan once and use [`Graph::segment_softmax_planned`].
    pub fn segment_softmax(&mut self, a: Var, segment_of_row: &[usize]) -> Var {
        let n_segments = segment_of_row.iter().copied().max().map_or(0, |m| m + 1);
        let plan = Arc::new(SegmentPlan::new(segment_of_row.to_vec(), n_segments));
        self.segment_softmax_planned(a, &plan)
    }

    /// [`Graph::segment_softmax`] with a precomputed shared plan.
    pub fn segment_softmax_planned(&mut self, a: Var, plan: &Arc<SegmentPlan>) -> Var {
        let (n, c) = self.shape(a);
        assert_eq!(
            plan.len(),
            n,
            "segment_softmax: segment map length mismatch"
        );
        let n_segments = plan.n_segments();
        let mut seg_max = self.pool.filled(n_segments, c, f32::NEG_INFINITY);
        let mut seg_sum = self.pool.zeroed(n_segments, c);
        let mut value = self.pool.uninit(n, c);
        {
            let input = live(&self.nodes, a);
            let seg = plan.segment_of_row();
            segment::segment_max_into(input, plan, &mut seg_max);
            // The exponentiation and division passes are per-row independent;
            // the two segment reductions (max above, sum below) parallelise
            // by output segment, accumulating each segment in serial row
            // order.
            if c > 0 {
                kernel::par_row_chunks(value.data_mut(), c, row_grain(c), |r0, chunk| {
                    for (dr, row) in chunk.chunks_mut(c).enumerate() {
                        let r = r0 + dr;
                        let (irow, mrow) = (input.row(r), seg_max.row(seg[r]));
                        for ((e, &x), &mx) in row.iter_mut().zip(irow).zip(mrow) {
                            *e = (x - mx).exp();
                        }
                    }
                });
            }
            segment::segment_sum_into(&value, plan, &mut seg_sum);
            if c > 0 {
                kernel::par_row_chunks(value.data_mut(), c, row_grain(c), |r0, chunk| {
                    for (dr, row) in chunk.chunks_mut(c).enumerate() {
                        let srow = seg_sum.row(seg[r0 + dr]);
                        for (v, &s) in row.iter_mut().zip(srow) {
                            *v /= s.max(NORM_EPS);
                        }
                    }
                });
            }
        }
        self.pool.put_back(seg_max);
        self.pool.put_back(seg_sum);
        let rg = self.rg(a);
        self.push(
            value,
            Op::SegmentSoftmax {
                input: a,
                plan: Arc::clone(plan),
            },
            rg,
        )
    }

    /// Row-wise dot product of two equal-shape matrices, yielding `n×1`.
    pub fn rows_dot(&mut self, a: Var, b: Var) -> Var {
        let (n, c) = self.shape(a);
        assert_eq!(self.shape(b), (n, c), "rows_dot shape mismatch");
        let mut value = self.pool.uninit(n, 1);
        {
            let (ma, mb) = (live(&self.nodes, a), live(&self.nodes, b));
            kernel::par_row_chunks(value.data_mut(), 1, row_grain(c), |r0, chunk| {
                for (dr, out) in chunk.iter_mut().enumerate() {
                    *out = ma.row_dot(r0 + dr, mb, r0 + dr);
                }
            });
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::RowsDot(a, b), rg)
    }

    /// Row-wise circular correlation (Nickel et al.'s HolE composition,
    /// one of the relation-specific operators the PRIM paper lists for
    /// `γ(h_p, h_r)`): `out[r][k] = Σ_i a[r][i] · b[r][(k+i) mod d]`.
    pub fn rows_circ_corr(&mut self, a: Var, b: Var) -> Var {
        let (n, d) = self.shape(a);
        assert_eq!(self.shape(b), (n, d), "rows_circ_corr shape mismatch");
        let mut value = self.pool.uninit(n, d);
        if d > 0 {
            let (ma, mb) = (live(&self.nodes, a), live(&self.nodes, b));
            kernel::par_row_chunks(value.data_mut(), d, row_grain(d * d), |r0, chunk| {
                for (dr, out) in chunk.chunks_mut(d).enumerate() {
                    let (ra, rb) = (ma.row(r0 + dr), mb.row(r0 + dr));
                    for (k, o) in out.iter_mut().enumerate() {
                        let mut acc = 0.0f32;
                        for i in 0..d {
                            acc += ra[i] * rb[(k + i) % d];
                        }
                        *o = acc;
                    }
                }
            });
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::RowsCircCorr(a, b), rg)
    }

    /// Scales row `i` of `a (n×c)` by `s[i]`, where `s` is `n×1`.
    pub fn scale_rows(&mut self, a: Var, s: Var) -> Var {
        let (n, _) = self.shape(a);
        assert_eq!(self.shape(s), (n, 1), "scale_rows: scale must be {n}x1");
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        scale_rows_in_place(&mut value, live(&self.nodes, s));
        let rg = self.rg(a) || self.rg(s);
        self.push(value, Op::ScaleRows(a, s), rg)
    }

    /// L2-normalises each row (rows of zeros stay zero thanks to an epsilon).
    pub fn normalize_rows(&mut self, a: Var) -> Var {
        let (_, c) = self.shape(a);
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        if c > 0 {
            kernel::par_row_chunks(value.data_mut(), c, row_grain(2 * c), |_, chunk| {
                for row in chunk.chunks_mut(c) {
                    let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(NORM_EPS);
                    for x in row.iter_mut() {
                        *x /= norm;
                    }
                }
            });
        }
        let rg = self.rg(a);
        self.push(value, Op::NormalizeRows(a), rg)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        kernel::par_apply(value.data_mut(), |v| *v = v.max(0.0));
        let rg = self.rg(a);
        self.push(value, Op::Relu(a), rg)
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        kernel::par_apply(value.data_mut(), |v| {
            if *v < 0.0 {
                *v *= slope;
            }
        });
        let rg = self.rg(a);
        self.push(value, Op::LeakyRelu(a, slope), rg)
    }

    /// Exponential linear unit (α = 1).
    pub fn elu(&mut self, a: Var) -> Var {
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        kernel::par_apply(value.data_mut(), |v| {
            if *v < 0.0 {
                *v = v.exp() - 1.0;
            }
        });
        let rg = self.rg(a);
        self.push(value, Op::Elu(a), rg)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        kernel::par_apply(value.data_mut(), |v| *v = stable_sigmoid(*v));
        let rg = self.rg(a);
        self.push(value, Op::Sigmoid(a), rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let mut value = self.pool.copy_of(live(&self.nodes, a));
        kernel::par_apply(value.data_mut(), |v| *v = v.tanh());
        let rg = self.rg(a);
        self.push(value, Op::Tanh(a), rg)
    }

    /// Sum of all elements → `1×1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = live(&self.nodes, a).sum();
        let mut value = self.pool.uninit(1, 1);
        value.data_mut()[0] = s;
        let rg = self.rg(a);
        self.push(value, Op::SumAll(a), rg)
    }

    /// Mean of all elements → `1×1`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let m = live(&self.nodes, a).mean();
        let mut value = self.pool.uninit(1, 1);
        value.data_mut()[0] = m;
        let rg = self.rg(a);
        self.push(value, Op::MeanAll(a), rg)
    }

    /// Numerically stable mean binary cross-entropy with logits.
    ///
    /// `logits` must be `n×1` and `targets` must have `n` entries in `[0, 1]`.
    /// Copies the targets per call; hot paths should hold an `Arc<[f32]>`
    /// and use [`Graph::bce_with_logits_shared`].
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        self.bce_with_logits_shared(logits, &Arc::from(targets))
    }

    /// [`Graph::bce_with_logits`] with shared targets (no per-call copy).
    pub fn bce_with_logits_shared(&mut self, logits: Var, targets: &Arc<[f32]>) -> Var {
        let (n, c) = self.shape(logits);
        assert_eq!(c, 1, "bce_with_logits expects n×1 logits");
        assert_eq!(targets.len(), n, "bce_with_logits target length mismatch");
        let mut total = 0.0f64;
        for (r, &y) in targets.iter().enumerate() {
            let x = live(&self.nodes, logits)[(r, 0)];
            // max(x,0) - x*y + ln(1 + exp(-|x|))
            total += (x.max(0.0) - x * y + (-x.abs()).exp().ln_1p()) as f64;
        }
        let mut value = self.pool.uninit(1, 1);
        value.data_mut()[0] = (total / n.max(1) as f64) as f32;
        let rg = self.rg(logits);
        self.push(
            value,
            Op::BceWithLogits {
                logits,
                targets: Arc::clone(targets),
            },
            rg,
        )
    }

    /// One head of relational attention as one fused pass over the edges'
    /// destination-major segments ([`attention::relational_into`]), `n ×
    /// width`: bitwise the composed gathers, slices, concat, `rows_dot`,
    /// `leaky_relu`, segment softmax, `scale_rows` and two segment sums,
    /// without their edge-row matrices. Its backward pass gives `ha`,
    /// `msg`, `w_dist` and `att` their gradients.
    ///
    /// # Panics
    /// Panics on any shape mismatch, and on a training tape if the plans
    /// read keyed messages (only per-edge message rows have a backward
    /// pass).
    pub fn relational_attention(&mut self, head: AttentionHead, plans: &RelationalPlans) -> Var {
        assert!(
            self.inference || plans.key.is_none(),
            "relational_attention: keyed messages have no backward pass; \
             read one message row per edge on a training tape"
        );

        let mut value = self.pool.zeroed(plans.seg_dst.n_segments(), head.width);
        let mut alpha = self.saved_weights(plans.src.len());
        let saved = (!self.inference).then_some(alpha.data_mut());
        attention::relational_into(&self.kernel_head(&head), plans, &mut value, saved);
        let rg = [head.ha, head.msg, head.w_dist, head.att]
            .iter()
            .any(|&v| self.rg(v));
        let op = Op::RelationalAttention {
            head,
            plans: plans.clone(),
            alpha,
        };
        self.push(value, op, rg)
    }

    /// The spatial context of every destination as one fused pass
    /// ([`attention::spatial_into`]); `qkv` holds queries, keys and values
    /// side by side, so the output is `n × cols/3`. Bitwise the composed
    /// gathers, `rows_dot`, `scale`, `mul`, segment softmax, `scale_rows`
    /// and two segment sums. Its backward pass gives `qkv` its gradient.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn spatial_attention(&mut self, qkv: Var, scale: f32, plans: &SpatialPlans) -> Var {
        let (n, c) = self.shape(qkv);
        let mut value = self.pool.zeroed(n, c / 3);
        let mut beta = self.saved_weights(plans.src.len());
        let saved = (!self.inference).then_some(beta.data_mut());
        attention::spatial_into(live(&self.nodes, qkv), scale, plans, &mut value, saved);
        let op = Op::SpatialAttention {
            qkv,
            scale,
            plans: plans.clone(),
            beta,
        };
        let rg = self.rg(qkv);
        self.push(value, op, rg)
    }

    /// The per-edge weights a fused attention node saves for its backward
    /// pass: `n_edges × 1` on a training tape, nothing on an inference one.
    fn saved_weights(&mut self, n_edges: usize) -> Matrix {
        if self.inference {
            Matrix::zeros(0, 0)
        } else {
            self.pool.uninit(n_edges, 1)
        }
    }

    /// The kernel operands of one relational head.
    fn kernel_head(&self, head: &AttentionHead) -> RelationalHead<'_> {
        let nodes = &self.nodes;
        RelationalHead {
            ha: Cols {
                m: live(nodes, head.ha),
                start: head.col,
            },
            msg: Cols {
                m: live(nodes, head.msg),
                start: head.col,
            },
            w_dist: live(nodes, head.w_dist),
            att: live(nodes, head.att),
            slope: head.slope,
        }
    }

    /// Runs the reverse pass from `loss` (which must be `1×1`) and returns
    /// gradients for every participating node. Gradient buffers come from
    /// the graph's pool; hand them back with [`Graph::recycle`] once
    /// consumed. Panics on an inference tape.
    pub fn backward(&mut self, loss: Var) -> Gradients {
        self.assert_training("backward");
        assert_eq!(
            self.shape(loss),
            (1, 1),
            "backward: loss must be a 1×1 scalar"
        );
        let (mut grads, mut pool) = self.grad_slots();
        grads[loss.0] = Some(pool.filled(1, 1, 1.0));
        self.run_backward(loss.0, grads, pool)
    }

    /// Runs the reverse pass from externally supplied gradient *seeds*
    /// instead of a scalar loss: each `(var, seed)` pair injects `seed` as
    /// `dL/d(var)`, and the walk propagates from the highest seeded node
    /// down. Seeds at the same `var` accumulate.
    ///
    /// This is the tape half of batch-level parallelism: the scoring
    /// subgraph (gather → hyperplane projection → DistMult → BCE) is
    /// differentiated off-tape, sharded across the worker pool, and its
    /// reduced gradients re-enter here at the encoder outputs — the encoder
    /// backward then proceeds exactly as if the scoring ops had been taped.
    ///
    /// Seed buffers should come from [`Graph::scratch_uninit`] /
    /// [`Graph::scratch_zeroed`] so the round trip stays allocation-free;
    /// they are consumed into the returned [`Gradients`] and recycled by
    /// [`Graph::recycle`] as usual.
    ///
    /// # Panics
    /// Panics on an inference tape, or if a seed's shape differs from its
    /// node's value shape.
    pub fn backward_seeded(&mut self, seeds: Vec<(Var, Matrix)>) -> Gradients {
        self.assert_training("backward_seeded");
        let (mut grads, mut pool) = self.grad_slots();
        let mut top = 0usize;
        for (var, seed) in seeds {
            assert_eq!(
                self.shape(var),
                seed.shape(),
                "backward_seeded: seed shape mismatch at node {}",
                var.0
            );
            top = top.max(var.0);
            Self::accumulate(&mut pool, &mut grads, var, seed);
        }
        self.run_backward(top, grads, pool)
    }

    /// True on a tape built by [`Graph::inference`].
    pub fn is_inference(&self) -> bool {
        self.inference
    }

    fn assert_training(&self, what: &str) {
        assert!(
            !self.inference,
            "{what} on an inference tape: build the graph with Graph::new to differentiate"
        );
    }

    /// Fresh (recycled) gradient-slot vector plus the pool, detached for a
    /// backward walk.
    fn grad_slots(&mut self) -> (Vec<Option<Matrix>>, BufferPool) {
        let mut grads = std::mem::take(&mut self.spare_grads);
        grads.clear();
        grads.resize_with(self.nodes.len(), || None);
        (grads, std::mem::take(&mut self.pool))
    }

    /// The reverse walk shared by [`Graph::backward`] and
    /// [`Graph::backward_seeded`].
    fn run_backward(
        &mut self,
        top: usize,
        mut grads: Vec<Option<Matrix>>,
        mut pool: BufferPool,
    ) -> Gradients {
        for idx in (0..=top).rev() {
            if !self.nodes[idx].requires_grad {
                continue;
            }
            let g = match grads[idx].take() {
                Some(g) => g,
                None => continue,
            };
            self.backprop_node(idx, &g, &mut grads, &mut pool);
            grads[idx] = Some(g);
        }
        self.pool = pool;
        Gradients { grads }
    }

    /// A `rows × cols` matrix from the graph's buffer pool with unspecified
    /// contents — off-tape scratch (e.g. the batch-parallel scorer's
    /// per-triple gradient rows) that recycles with the tape. Return it via
    /// [`Graph::give_back`] (or hand it to [`Graph::backward_seeded`], which
    /// consumes it into the gradients).
    pub fn scratch_uninit(&mut self, rows: usize, cols: usize) -> Matrix {
        self.pool.uninit(rows, cols)
    }

    /// Zero-filled variant of [`Graph::scratch_uninit`].
    pub fn scratch_zeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        self.pool.zeroed(rows, cols)
    }

    /// Returns an off-tape scratch matrix to the graph's buffer pool.
    pub fn give_back(&mut self, m: Matrix) {
        self.pool.put_back(m);
    }

    /// `var`'s gradient slot for an op that adds into part of it, zeroed
    /// from the pool if it was empty.
    fn grad_slot<'g>(
        pool: &mut BufferPool,
        grads: &'g mut [Option<Matrix>],
        var: Var,
        (rows, cols): (usize, usize),
    ) -> &'g mut Matrix {
        grads[var.0].get_or_insert_with(|| pool.zeroed(rows, cols))
    }

    /// Adds `delta` into `var`'s gradient slot, recycling `delta`'s buffer
    /// when the slot was already populated.
    fn accumulate(pool: &mut BufferPool, grads: &mut [Option<Matrix>], var: Var, delta: Matrix) {
        match &mut grads[var.0] {
            Some(g) => {
                g.add_assign(&delta);
                pool.put_back(delta);
            }
            slot @ None => *slot = Some(delta),
        }
    }

    fn backprop_node(
        &self,
        idx: usize,
        g: &Matrix,
        grads: &mut [Option<Matrix>],
        pool: &mut BufferPool,
    ) {
        let node = &self.nodes[idx];
        match &node.op {
            Op::Leaf => {}
            Op::RelationalAttention { head, plans, alpha } => {
                let kh = self.kernel_head(head);
                let mut d_logit = pool.uninit(plans.src.len(), 1);
                let d_msg = self
                    .rg(head.msg)
                    .then(|| Self::grad_slot(pool, grads, head.msg, kh.msg.m.shape()));
                attention::relational_backward_edges(
                    &kh,
                    plans,
                    alpha.data(),
                    g,
                    d_logit.data_mut(),
                    d_msg,
                );
                if self.rg(head.ha) {
                    let d_ha = Self::grad_slot(pool, grads, head.ha, kh.ha.m.shape());
                    attention::relational_backward_features(&kh, plans, d_logit.data(), d_ha);
                }
                let mut d_w_dist = self.rg(head.w_dist).then(|| {
                    let (rows, cols) = kh.w_dist.shape();
                    pool.zeroed(rows, cols)
                });
                let mut d_att = self.rg(head.att).then(|| {
                    let (rows, cols) = kh.att.shape();
                    pool.zeroed(rows, cols)
                });
                attention::relational_backward_params(
                    &kh,
                    plans,
                    d_logit.data(),
                    d_w_dist.as_mut(),
                    d_att.as_mut(),
                );
                pool.put_back(d_logit);
                if let Some(d) = d_w_dist {
                    Self::accumulate(pool, grads, head.w_dist, d);
                }
                if let Some(d) = d_att {
                    Self::accumulate(pool, grads, head.att, d);
                }
            }
            Op::SpatialAttention {
                qkv,
                scale,
                plans,
                beta,
            } => {
                if self.rg(*qkv) {
                    let qkv_m = self.value(*qkv);
                    let mut d_logit = pool.uninit(plans.src.len(), 1);
                    let d_qkv = Self::grad_slot(pool, grads, *qkv, qkv_m.shape());
                    attention::spatial_backward(
                        qkv_m,
                        *scale,
                        plans,
                        beta.data(),
                        g,
                        d_logit.data_mut(),
                        d_qkv,
                    );
                    pool.put_back(d_logit);
                }
            }
            Op::MatMul(a, b) => {
                if self.rg(*a) {
                    // dL/dA = G Bᵀ
                    let (rows, cols) = self.shape(*a);
                    let mut da = pool.uninit(rows, cols);
                    g.matmul_nt_into(self.value(*b), &mut da);
                    Self::accumulate(pool, grads, *a, da);
                }
                if self.rg(*b) {
                    // dL/dB = Aᵀ G
                    let (rows, cols) = self.shape(*b);
                    let mut db = pool.uninit(rows, cols);
                    self.value(*a).matmul_tn_into(g, &mut db);
                    Self::accumulate(pool, grads, *b, db);
                }
            }
            Op::Add(a, b) => {
                if self.rg(*a) {
                    let da = pool.copy_of(g);
                    Self::accumulate(pool, grads, *a, da);
                }
                if self.rg(*b) {
                    let db = pool.copy_of(g);
                    Self::accumulate(pool, grads, *b, db);
                }
            }
            Op::Sub(a, b) => {
                if self.rg(*a) {
                    let da = pool.copy_of(g);
                    Self::accumulate(pool, grads, *a, da);
                }
                if self.rg(*b) {
                    let mut db = pool.copy_of(g);
                    kernel::par_apply(db.data_mut(), |v| *v = -*v);
                    Self::accumulate(pool, grads, *b, db);
                }
            }
            Op::Mul(a, b) => {
                // `g ⊙ other` in one pass straight into a pooled buffer.
                for (x, other) in [(*a, *b), (*b, *a)] {
                    if self.rg(x) {
                        let (r, c) = g.shape();
                        let mut dx = pool.uninit(r, c);
                        let y = self.value(other).data();
                        kernel::par_zip2_apply(dx.data_mut(), g.data(), y, |o, g, y| *o = g * y);
                        Self::accumulate(pool, grads, x, dx);
                    }
                }
            }
            Op::AddRowBroadcast(a, b) => {
                if self.rg(*a) {
                    let da = pool.copy_of(g);
                    Self::accumulate(pool, grads, *a, da);
                }
                if self.rg(*b) {
                    let (n, c) = g.shape();
                    let mut db = pool.zeroed(1, c);
                    for r in 0..n {
                        for (o, &x) in db.row_mut(0).iter_mut().zip(g.row(r).iter()) {
                            *o += x;
                        }
                    }
                    Self::accumulate(pool, grads, *b, db);
                }
            }
            Op::Scale(a, k) => {
                if self.rg(*a) {
                    let k = *k;
                    let mut da = pool.copy_of(g);
                    kernel::par_apply(da.data_mut(), |v| *v *= k);
                    Self::accumulate(pool, grads, *a, da);
                }
            }
            Op::AddScalar(a) => {
                if self.rg(*a) {
                    let da = pool.copy_of(g);
                    Self::accumulate(pool, grads, *a, da);
                }
            }
            Op::MulScalarVar(a, s) => {
                let k = self.value(*s).scalar();
                if self.rg(*a) {
                    let mut da = pool.copy_of(g);
                    kernel::par_apply(da.data_mut(), |v| *v *= k);
                    Self::accumulate(pool, grads, *a, da);
                }
                if self.rg(*s) {
                    let ds = g.hadamard(self.value(*a)).sum();
                    let mut dm = pool.uninit(1, 1);
                    dm.data_mut()[0] = ds;
                    Self::accumulate(pool, grads, *s, dm);
                }
            }
            Op::ConcatCols(parts) => {
                let mut offset = 0;
                for &p in parts {
                    let (rows, cols) = self.shape(p);
                    if self.rg(p) {
                        let mut dp = pool.uninit(rows, cols);
                        for r in 0..rows {
                            dp.row_mut(r)
                                .copy_from_slice(&g.row(r)[offset..offset + cols]);
                        }
                        Self::accumulate(pool, grads, p, dp);
                    }
                    offset += cols;
                }
            }
            Op::SliceCols(a, start) => {
                if self.rg(*a) {
                    let (rows, cols) = self.shape(*a);
                    let width = node.value.cols();
                    let mut da = pool.zeroed(rows, cols);
                    for r in 0..rows {
                        da.row_mut(r)[*start..*start + width].copy_from_slice(g.row(r));
                    }
                    Self::accumulate(pool, grads, *a, da);
                }
            }
            Op::VStack(parts) => {
                let mut offset = 0;
                for &p in parts {
                    let (rows, cols) = self.shape(p);
                    if self.rg(p) {
                        let mut dp = pool.uninit(rows, cols);
                        for r in 0..rows {
                            dp.row_mut(r).copy_from_slice(g.row(offset + r));
                        }
                        Self::accumulate(pool, grads, p, dp);
                    }
                    offset += rows;
                }
            }
            Op::GatherRows(a, plan) => {
                if self.rg(*a) {
                    // Scatter-add: source row i accumulates the gathered
                    // slots that read it, in ascending slot order — the
                    // segment-sum kernel with the gather plan.
                    let (rows, cols) = self.shape(*a);
                    let mut da = pool.zeroed(rows, cols);
                    segment::segment_sum_into(g, plan, &mut da);
                    Self::accumulate(pool, grads, *a, da);
                }
            }
            Op::SegmentSum { input, plan } => {
                if self.rg(*input) {
                    let (rows, cols) = self.shape(*input);
                    let mut da = pool.uninit(rows, cols);
                    segment::broadcast_segments_into(g, plan, &mut da);
                    Self::accumulate(pool, grads, *input, da);
                }
            }
            Op::SegmentSoftmax { input, plan } => {
                if self.rg(*input) {
                    // dx = y ⊙ (g - Σ_seg g ⊙ y)
                    let y = &node.value;
                    let (n, c) = y.shape();
                    let mut seg_dot = pool.zeroed(plan.n_segments(), c);
                    segment::segment_dot_into(g, y, plan, &mut seg_dot);
                    let mut da = pool.uninit(n, c);
                    if c > 0 {
                        let seg = plan.segment_of_row();
                        kernel::par_row_chunks(da.data_mut(), c, row_grain(c), |r0, chunk| {
                            for (dr, row) in chunk.chunks_mut(c).enumerate() {
                                let r = r0 + dr;
                                let (yrow, grow, drow) = (y.row(r), g.row(r), seg_dot.row(seg[r]));
                                for (((o, &yy), &gg), &dd) in
                                    row.iter_mut().zip(yrow).zip(grow).zip(drow)
                                {
                                    *o = yy * (gg - dd);
                                }
                            }
                        });
                    }
                    pool.put_back(seg_dot);
                    Self::accumulate(pool, grads, *input, da);
                }
            }
            Op::RowsDot(a, b) => {
                if self.rg(*a) {
                    let mut da = pool.copy_of(self.value(*b));
                    scale_rows_in_place(&mut da, g);
                    Self::accumulate(pool, grads, *a, da);
                }
                if self.rg(*b) {
                    let mut db = pool.copy_of(self.value(*a));
                    scale_rows_in_place(&mut db, g);
                    Self::accumulate(pool, grads, *b, db);
                }
            }
            Op::RowsCircCorr(a, b) => {
                let (n, d) = self.shape(*a);
                let (ma, mb) = (self.value(*a), self.value(*b));
                if self.rg(*a) && d > 0 {
                    // dL/da_i = Σ_k g_k b_{(k+i) mod d} = (g ⋆ b)_i.
                    let mut da = pool.uninit(n, d);
                    kernel::par_row_chunks(da.data_mut(), d, row_grain(d * d), |r0, chunk| {
                        for (dr, out) in chunk.chunks_mut(d).enumerate() {
                            let (gr, rb) = (g.row(r0 + dr), mb.row(r0 + dr));
                            for (i, o) in out.iter_mut().enumerate() {
                                let mut acc = 0.0f32;
                                for k in 0..d {
                                    acc += gr[k] * rb[(k + i) % d];
                                }
                                *o = acc;
                            }
                        }
                    });
                    Self::accumulate(pool, grads, *a, da);
                }
                if self.rg(*b) && d > 0 {
                    // dL/db_j = Σ_k g_k a_{(j-k) mod d} (circular convolution).
                    let mut db = pool.uninit(n, d);
                    kernel::par_row_chunks(db.data_mut(), d, row_grain(d * d), |r0, chunk| {
                        for (dr, out) in chunk.chunks_mut(d).enumerate() {
                            let (gr, ra) = (g.row(r0 + dr), ma.row(r0 + dr));
                            for (j, o) in out.iter_mut().enumerate() {
                                let mut acc = 0.0f32;
                                for k in 0..d {
                                    acc += gr[k] * ra[(j + d - k) % d];
                                }
                                *o = acc;
                            }
                        }
                    });
                    Self::accumulate(pool, grads, *b, db);
                }
            }
            Op::ScaleRows(a, s) => {
                let (n, c) = self.shape(*a);
                if self.rg(*a) && c > 0 {
                    let mut da = pool.copy_of(g);
                    scale_rows_in_place(&mut da, self.value(*s));
                    Self::accumulate(pool, grads, *a, da);
                }
                if self.rg(*s) {
                    let mut ds = pool.uninit(n, 1);
                    let ma = self.value(*a);
                    kernel::par_row_chunks(ds.data_mut(), 1, row_grain(c), |r0, chunk| {
                        for (dr, out) in chunk.iter_mut().enumerate() {
                            *out = ma
                                .row(r0 + dr)
                                .iter()
                                .zip(g.row(r0 + dr).iter())
                                .map(|(&x, &gy)| x * gy)
                                .sum();
                        }
                    });
                    Self::accumulate(pool, grads, *s, ds);
                }
            }
            Op::NormalizeRows(a) => {
                if self.rg(*a) {
                    // y = x / ‖x‖; dx = (g - y (y·g)) / ‖x‖
                    let x = self.value(*a);
                    let y = &node.value;
                    let (n, c) = x.shape();
                    let mut da = pool.zeroed(n, c);
                    if c > 0 {
                        kernel::par_row_chunks(da.data_mut(), c, row_grain(3 * c), |r0, chunk| {
                            for (dr, row) in chunk.chunks_mut(c).enumerate() {
                                let r = r0 + dr;
                                let norm = x.row_norm(r).max(NORM_EPS);
                                let ydotg: f32 = y
                                    .row(r)
                                    .iter()
                                    .zip(g.row(r).iter())
                                    .map(|(&yy, &gg)| yy * gg)
                                    .sum();
                                for (col, o) in row.iter_mut().enumerate() {
                                    *o = (g[(r, col)] - y[(r, col)] * ydotg) / norm;
                                }
                            }
                        });
                    }
                    Self::accumulate(pool, grads, *a, da);
                }
            }
            Op::Relu(a) => {
                if self.rg(*a) {
                    let x = self.value(*a);
                    let mut da = pool.copy_of(g);
                    kernel::par_zip_apply(da.data_mut(), x.data(), |d, v| {
                        if v <= 0.0 {
                            *d = 0.0;
                        }
                    });
                    Self::accumulate(pool, grads, *a, da);
                }
            }
            Op::LeakyRelu(a, slope) => {
                if self.rg(*a) {
                    let slope = *slope;
                    let x = self.value(*a);
                    let mut da = pool.copy_of(g);
                    kernel::par_zip_apply(da.data_mut(), x.data(), |d, v| {
                        if v < 0.0 {
                            *d *= slope;
                        }
                    });
                    Self::accumulate(pool, grads, *a, da);
                }
            }
            Op::Elu(a) => {
                if self.rg(*a) {
                    // y = eˣ - 1 for x < 0, so dy/dx = y + 1.
                    let y = &node.value;
                    let x = self.value(*a);
                    let mut da = pool.copy_of(g);
                    kernel::par_zip2_apply(da.data_mut(), x.data(), y.data(), |d, v, yy| {
                        if v < 0.0 {
                            *d *= yy + 1.0;
                        }
                    });
                    Self::accumulate(pool, grads, *a, da);
                }
            }
            Op::Sigmoid(a) => {
                if self.rg(*a) {
                    let y = &node.value;
                    let mut da = pool.copy_of(g);
                    kernel::par_zip_apply(da.data_mut(), y.data(), |d, yy| {
                        *d *= yy * (1.0 - yy);
                    });
                    Self::accumulate(pool, grads, *a, da);
                }
            }
            Op::Tanh(a) => {
                if self.rg(*a) {
                    let y = &node.value;
                    let mut da = pool.copy_of(g);
                    kernel::par_zip_apply(da.data_mut(), y.data(), |d, yy| {
                        *d *= 1.0 - yy * yy;
                    });
                    Self::accumulate(pool, grads, *a, da);
                }
            }
            Op::SumAll(a) => {
                if self.rg(*a) {
                    let (n, c) = self.shape(*a);
                    let da = pool.filled(n, c, g.scalar());
                    Self::accumulate(pool, grads, *a, da);
                }
            }
            Op::MeanAll(a) => {
                if self.rg(*a) {
                    let (n, c) = self.shape(*a);
                    let k = g.scalar() / (n * c).max(1) as f32;
                    let da = pool.filled(n, c, k);
                    Self::accumulate(pool, grads, *a, da);
                }
            }
            Op::BceWithLogits { logits, targets } => {
                if self.rg(*logits) {
                    let x = self.value(*logits);
                    let n = targets.len();
                    let k = g.scalar() / n.max(1) as f32;
                    let mut da = pool.uninit(n, 1);
                    for (r, &y) in targets.iter().enumerate() {
                        da[(r, 0)] = (stable_sigmoid(x[(r, 0)]) - y) * k;
                    }
                    Self::accumulate(pool, grads, *logits, da);
                }
            }
        }
    }
}

/// Overflow-safe logistic sigmoid.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_matmul_chain() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.constant(Matrix::identity(2));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c), g.value(a));
    }

    #[test]
    fn backward_through_matmul() {
        // loss = sum(A B); dL/dA = 1 Bᵀ, dL/dB = Aᵀ 1.
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.leaf(Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        let grads = g.backward(loss);
        let da = grads.get(a).unwrap();
        // Row sums of B: [11, 15] repeated per row of A.
        assert_eq!(da.data(), &[11.0, 15.0, 11.0, 15.0]);
        let db = grads.get(b).unwrap();
        // Column sums of A: [4, 6] repeated per col of B.
        assert_eq!(db.data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::ones(1, 2));
        let b = g.constant(Matrix::ones(1, 2));
        let c = g.mul(a, b);
        let loss = g.sum_all(c);
        let grads = g.backward(loss);
        assert!(grads.get(a).is_some());
        assert!(grads.get(b).is_none());
    }

    #[test]
    fn segment_softmax_rows_sum_to_one() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(5, 1, vec![1.0, 2.0, 3.0, -1.0, 0.5]));
        let seg = vec![0, 0, 1, 1, 1];
        let y = g.segment_softmax(x, &seg);
        let v = g.value(y);
        let s0 = v[(0, 0)] + v[(1, 0)];
        let s1 = v[(2, 0)] + v[(3, 0)] + v[(4, 0)];
        assert!((s0 - 1.0).abs() < 1e-5);
        assert!((s1 - 1.0).abs() < 1e-5);
        // Larger logits get larger weights within a segment.
        assert!(v[(1, 0)] > v[(0, 0)]);
        assert!(v[(2, 0)] > v[(4, 0)] && v[(4, 0)] > v[(3, 0)]);
    }

    #[test]
    fn segment_sum_forward() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(
            4,
            2,
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        ));
        let y = g.segment_sum(x, &[0, 1, 0, 1], 2);
        assert_eq!(g.value(y).row(0), &[6.0, 8.0]);
        assert_eq!(g.value(y).row(1), &[10.0, 12.0]);
    }

    #[test]
    fn gather_then_segment_sum_roundtrip_gradient() {
        // sum(segment_sum(gather(X))) — every gathered row contributes once.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32));
        let gathered = g.gather_rows(x, &[0, 2, 2]);
        let summed = g.segment_sum(gathered, &[0, 0, 1], 2);
        let loss = g.sum_all(summed);
        let grads = g.backward(loss);
        let dx = grads.get(x).unwrap();
        assert_eq!(dx.row(0), &[1.0, 1.0]);
        assert_eq!(dx.row(1), &[0.0, 0.0]);
        assert_eq!(dx.row(2), &[2.0, 2.0]);
    }

    #[test]
    fn bce_matches_manual_computation() {
        let mut g = Graph::new();
        let logits = g.leaf(Matrix::from_vec(2, 1, vec![0.0, 2.0]));
        let loss = g.bce_with_logits(logits, &[1.0, 0.0]);
        // -ln σ(0) = ln 2; -ln(1-σ(2)) = ln(1+e²)... = 2 + ln(1+e⁻²)
        let expected = ((2.0f32).ln() + (2.0 + (1.0f32 + (-2.0f32).exp()).ln())) / 2.0;
        assert!((g.value(loss).scalar() - expected).abs() < 1e-5);
        let grads = g.backward(loss);
        let d = grads.get(logits).unwrap();
        assert!((d[(0, 0)] - (0.5 - 1.0) / 2.0).abs() < 1e-5);
        assert!((d[(1, 0)] - (stable_sigmoid(2.0) - 0.0) / 2.0).abs() < 1e-5);
    }

    #[test]
    fn normalize_rows_produces_unit_rows() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]));
        let y = g.normalize_rows(x);
        assert!((g.value(y).row_norm(0) - 1.0).abs() < 1e-5);
        // Zero row stays (numerically) zero rather than NaN.
        assert!(g.value(y).row_norm(1) < 1e-3);
        assert!(g.value(y).all_finite());
    }

    #[test]
    fn vstack_and_concat_gradients_split() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::ones(1, 2));
        let b = g.leaf(Matrix::ones(2, 2));
        let v = g.vstack(&[a, b]);
        assert_eq!(g.shape(v), (3, 2));
        let weights = g.constant(Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let prod = g.mul(v, weights);
        let loss = g.sum_all(prod);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[1.0, 2.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[3.0, 4.0, 5.0, 6.0]);

        let mut g2 = Graph::new();
        let a2 = g2.leaf(Matrix::ones(2, 1));
        let b2 = g2.leaf(Matrix::ones(2, 2));
        let cc = g2.concat_cols(&[a2, b2]);
        assert_eq!(g2.shape(cc), (2, 3));
        let w = g2.constant(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let prod2 = g2.mul(cc, w);
        let loss2 = g2.sum_all(prod2);
        let grads2 = g2.backward(loss2);
        assert_eq!(grads2.get(a2).unwrap().data(), &[1.0, 4.0]);
        assert_eq!(grads2.get(b2).unwrap().data(), &[2.0, 3.0, 5.0, 6.0]);
    }

    #[test]
    fn slice_cols_forward_and_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_vec(
            2,
            4,
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        ));
        let s = g.slice_cols(a, 1, 2);
        assert_eq!(g.shape(s), (2, 2));
        assert_eq!(g.value(s).data(), &[2.0, 3.0, 6.0, 7.0]);
        let w = g.constant(Matrix::from_vec(2, 2, vec![10.0, 20.0, 30.0, 40.0]));
        let prod = g.mul(s, w);
        let loss = g.sum_all(prod);
        let grads = g.backward(loss);
        assert_eq!(
            grads.get(a).unwrap().data(),
            &[0.0, 10.0, 20.0, 0.0, 0.0, 30.0, 40.0, 0.0]
        );
    }

    #[test]
    fn slice_cols_inverts_concat_cols() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        let b = g.leaf(Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]));
        let cc = g.concat_cols(&[a, b]);
        let sa = g.slice_cols(cc, 0, 1);
        let sb = g.slice_cols(cc, 1, 2);
        assert_eq!(g.value(sa).data(), g.value(a).data());
        assert_eq!(g.value(sb).data(), g.value(b).data());
    }

    #[test]
    fn mul_scalar_var_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let s = g.leaf(Matrix::from_vec(1, 1, vec![4.0]));
        let y = g.mul_scalar_var(a, s);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[4.0, 4.0]);
        assert_eq!(grads.get(s).unwrap().scalar(), 5.0);
    }

    #[test]
    fn reset_recycles_buffers_and_reuses_them() {
        let mut g = Graph::new();
        let run = |g: &mut Graph| {
            let a = g.leaf_ref(&Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
            let b = g.constant_ref(&Matrix::identity(2));
            let c = g.matmul(a, b);
            let loss = g.sum_all(c);
            let grads = g.backward(loss);
            let da = grads.get(a).unwrap().clone();
            g.recycle(grads);
            da
        };
        let first = run(&mut g);
        g.reset();
        assert!(g.is_empty());
        assert!(g.pooled_buffers() > 0, "reset should retain buffers");
        let second = run(&mut g);
        assert_eq!(first.data(), second.data());
    }

    #[test]
    fn planned_ops_match_slice_ops() {
        let seg = vec![0usize, 1, 0, 2, 2, 1];
        let idx = vec![2usize, 0, 0, 2];
        let x = Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f32 * 0.25 - 1.0);

        let mut g1 = Graph::new();
        let a1 = g1.leaf(x.clone());
        let s1 = g1.segment_sum(a1, &seg, 3);
        let sm1 = g1.segment_softmax(a1, &seg);
        let gr1 = g1.gather_rows(s1, &idx);

        let mut g2 = Graph::new();
        let seg_plan = Arc::new(SegmentPlan::new(seg, 3));
        let idx_plan = Arc::new(SegmentPlan::new(idx, 3));
        let a2 = g2.leaf(x);
        let s2 = g2.segment_sum_planned(a2, &seg_plan);
        let sm2 = g2.segment_softmax_planned(a2, &seg_plan);
        let gr2 = g2.gather_rows_planned(s2, &idx_plan);

        assert_eq!(g1.value(s1).data(), g2.value(s2).data());
        assert_eq!(g1.value(sm1).data(), g2.value(sm2).data());
        assert_eq!(g1.value(gr1).data(), g2.value(gr2).data());
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A small forward with two nested scopes; `end` decides whether the
    /// scopes are ended. Returns the trainable leaf and the scalar loss.
    fn nested_scope_forward(g: &mut Graph, end: bool) -> (Var, Var) {
        let w = g.leaf(Matrix::from_fn(3, 2, |r, c| {
            (r as f32 - c as f32) * 0.3 + 0.1
        }));
        let x = g.constant(Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f32).sin()));
        let outer = g.scope("outer");
        let h = g.matmul(x, w);
        let inner = g.scope("inner");
        let e = g.elu(h);
        let s = g.segment_softmax(e, &[0, 0, 1, 1]);
        let y = g.mul(s, h);
        if end {
            g.end_scope(inner, &[y]);
        }
        let z = g.tanh(y);
        if end {
            g.end_scope(outer, &[z]);
        }
        (w, g.mean_all(z))
    }

    #[test]
    fn inference_scope_releases_exactly_the_unkept_nodes_inside_it() {
        let mut g = Graph::inference();
        let x = g.leaf(Matrix::from_fn(3, 2, |r, c| r as f32 - 0.5 * c as f32));
        let before = g.relu(x);
        let scope = g.scope("block");
        let a = g.scale(before, 2.0);
        let b = g.tanh(a);
        let c = g.add(a, b);
        let d = g.sigmoid(c);
        let snapshot: Vec<Vec<u32>> = (0..g.len()).map(|i| bits(g.value(Var(i)))).collect();
        g.end_scope(scope, &[c]);

        let released = [a.index(), b.index(), d.index()];
        for (i, old) in snapshot.iter().enumerate() {
            let node = &g.nodes[i];
            if released.contains(&i) {
                assert_eq!(node.released_by, Some("block"), "node {i} kept");
                assert_eq!(node.value.len(), 0, "node {i} still holds its buffer");
            } else {
                assert_eq!(node.released_by, None, "node {i} released");
                assert_eq!(&bits(&node.value), old, "node {i} changed");
            }
        }
        // Released buffers go back to the allocator, not to the pool.
        assert_eq!(g.pooled_buffers(), 0);
        // Kept and earlier values still feed later ops.
        let e = g.mul(c, before);
        assert_eq!(g.shape(e), (3, 2));
    }

    #[test]
    fn training_tape_scopes_leave_values_and_gradients_bitwise_unchanged() {
        let mut plain = Graph::new();
        let (w1, loss1) = nested_scope_forward(&mut plain, false);
        let mut scoped = Graph::new();
        let (w2, loss2) = nested_scope_forward(&mut scoped, true);
        assert_eq!(plain.len(), scoped.len());
        for i in 0..plain.len() {
            assert_eq!(bits(plain.value(Var(i))), bits(scoped.value(Var(i))));
        }
        let g1 = plain.backward(loss1);
        let g2 = scoped.backward(loss2);
        for i in 0..plain.len() {
            assert_eq!(
                g1.get(Var(i)).map(bits),
                g2.get(Var(i)).map(bits),
                "gradient of node {i}"
            );
        }
        assert!(g1.get(w1).is_some() && g2.get(w2).is_some());

        // The same forward on an inference tape ends with the same bits.
        let mut inf = Graph::inference();
        let (_, loss3) = nested_scope_forward(&mut inf, true);
        assert_eq!(bits(inf.value(loss3)), bits(plain.value(loss1)));
    }

    #[test]
    #[should_panic(expected = "backward on an inference tape")]
    fn backward_panics_on_an_inference_tape() {
        let mut g = Graph::inference();
        let (_, loss) = nested_scope_forward(&mut g, false);
        g.backward(loss);
    }

    #[test]
    #[should_panic(expected = "backward_seeded on an inference tape")]
    fn backward_seeded_panics_on_an_inference_tape() {
        let mut g = Graph::inference();
        let (_, loss) = nested_scope_forward(&mut g, false);
        g.backward_seeded(vec![(loss, Matrix::ones(1, 1))]);
    }

    /// An inference tape whose node 3 (`e` of [`nested_scope_forward`])
    /// was released by the inner scope.
    fn tape_with_released_node() -> Graph {
        let mut g = Graph::inference();
        nested_scope_forward(&mut g, true);
        assert_eq!(g.nodes[3].released_by, Some("inner"));
        g
    }

    #[test]
    #[should_panic(expected = "value of node 3 was released when scope `inner` ended")]
    fn value_of_a_released_node_panics() {
        tape_with_released_node().value(Var(3));
    }

    #[test]
    #[should_panic(expected = "value of node 3 was released when scope `inner` ended")]
    fn shape_of_a_released_node_panics() {
        tape_with_released_node().shape(Var(3));
    }

    #[test]
    #[should_panic(expected = "value of node 3 was released when scope `inner` ended")]
    fn op_reading_a_released_node_panics() {
        tape_with_released_node().relu(Var(3));
    }

    #[test]
    fn stable_sigmoid_extremes() {
        assert!(stable_sigmoid(100.0) > 0.999);
        assert!(stable_sigmoid(-100.0) < 0.001);
        assert!((stable_sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(stable_sigmoid(1000.0).is_finite());
        assert!(stable_sigmoid(-1000.0).is_finite());
    }
}
