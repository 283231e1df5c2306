//! Dense row-major `f32` matrices.
//!
//! [`Matrix`] is the storage type underneath every tensor in the PRIM
//! reproduction. It is deliberately simple: a shape plus a flat `Vec<f32>`.
//! All differentiable operations live in [`crate::graph`]; the methods here
//! are plain eager helpers used both by the autograd engine internally and by
//! non-differentiable code (data generation, metrics, classical baselines).

use crate::kernel;
use std::fmt;

/// Column-block width shared by the blocked matmul kernels: a `KB × NB` panel
/// of the right-hand matrix is 32 KiB of `f32`, sized to stay L1-resident
/// while it is streamed against many output rows.
const NB: usize = 128;

/// Reduction-depth of each cache block. Blocking `k` only changes *when* each
/// product is added, never the per-element order (blocks are visited in
/// ascending `k`), so blocked results are bitwise equal to the naive kernels.
const KB: usize = 64;

/// Register-tile height: output rows computed simultaneously by the
/// microkernels, each row a set of accumulators held in vector registers.
const MR: usize = 4;

/// Register-tile width for the row-major microkernels (`matmul`,
/// `matmul_tn`): `MR × NR` accumulators live in registers across a whole
/// `KB` reduction block, eliminating the per-`k` load/store of the output
/// that bounds the naive axpy loops.
const NR: usize = 32;

/// Register-tile width for `matmul_nt`: `MR × NTR` *independent* scalar
/// dot-product chains run in flight at once, hiding fma latency that a
/// single sequential chain cannot.
const NTR: usize = 4;

/// Minimum multiply-adds per row chunk before a matmul fans out to another
/// thread; below this the spawn costs more than the arithmetic.
const PAR_GRAIN_FLOPS: usize = 1 << 16;

/// The single multiply-accumulate step shared by every matmul kernel in this
/// module, naive references included: `a * b + acc`.
///
/// When the build target has hardware fused multiply-add (`target-cpu`
/// including `fma`, see `.cargo/config.toml`), this compiles to one fused
/// instruction; otherwise to a separate multiply and add. The branch is
/// resolved at compile time, so within any one build every kernel performs
/// the identical rounding sequence per output element — which is what makes
/// the blocked/parallel kernels bitwise comparable to the references.
#[inline(always)]
fn fmadd(a: f32, b: f32, acc: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// A dense, row-major matrix of `f32` values.
///
/// Rows × columns are fixed at construction. Vectors are represented as
/// `n × 1` (column vector) or `1 × n` (row vector) matrices.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            let max_cols = 8.min(self.cols);
            let row: Vec<String> = (0..max_cols)
                .map(|c| format!("{:.4}", self[(r, c)]))
                .collect();
            let ellipsis = if self.cols > max_cols { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", row.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Builds a matrix from a closure over `(row, col)` indices.
    ///
    /// The buffer is allocated at its final size up front and filled by
    /// index; `f` is still called in row-major order, so closures that
    /// advance an RNG observe the same call sequence as a push-based build.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = vec![0.0f32; rows * cols];
        let mut idx = 0;
        for r in 0..rows {
            for c in 0..cols {
                data[idx] = f(r, c);
                idx += 1;
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Builds an `n × 1` column vector from a slice.
    pub fn column(values: &[f32]) -> Self {
        Matrix::from_vec(values.len(), 1, values.to_vec())
    }

    /// Builds the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The value of a `1 × 1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1 × 1`.
    pub fn scalar(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "Matrix::scalar on non-scalar matrix");
        self.data[0]
    }

    /// Matrix product `self × other`.
    ///
    /// Cache-blocked (`KB × NB` panels of `other` stay L1-resident across
    /// output rows) and parallelised over output-row chunks for large
    /// products. For every output element the `k`-reduction runs in ascending
    /// order into a single accumulator, so the result is bitwise identical to
    /// [`Matrix::matmul_naive`] for any block shape or thread count.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_main(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] writing into a caller-provided output (any prior
    /// contents are overwritten) — the allocation-free variant used by the
    /// tape's buffer pool.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or if `out` is not `m × n`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul_into output shape mismatch"
        );
        out.fill_zero();
        self.matmul_main(other, out);
    }

    /// Dispatches the blocked parallel matmul into `out`, which must already
    /// be zeroed (the kernels accumulate).
    fn matmul_main(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let grain = (PAR_GRAIN_FLOPS / (k * n)).max(1);
        let (a, b) = (&self.data, &other.data);
        kernel::par_row_chunks(&mut out.data, n, grain, |r0, chunk| {
            Self::matmul_block(a, b, chunk, r0, k, n);
        });
    }

    /// Blocked kernel for a contiguous band of `matmul` output rows starting
    /// at global row `r0`. Loop order `jb → kb → i-tile → j-tile`: the
    /// `KB × NB` panel of `b` loaded by the two outer blocks stays
    /// L1-resident while every `MR × NR` register tile of the band sweeps
    /// it. Edge rows/columns fall back to the axpy loop, which visits `k` in
    /// the same ascending order, so tiling never changes any element's
    /// accumulation sequence.
    fn matmul_block(a: &[f32], b: &[f32], out: &mut [f32], r0: usize, k: usize, n: usize) {
        let rows = out.len() / n;
        let mut jb = 0;
        while jb < n {
            let jend = (jb + NB).min(n);
            let mut kb = 0;
            while kb < k {
                let kend = (kb + KB).min(k);
                let mut i = 0;
                while i + MR <= rows {
                    let mut j = jb;
                    while j + NR <= jend {
                        Self::mk_tile(out, i, j, n, kb, kend, |r, kk| a[(r0 + i + r) * k + kk], b);
                        j += NR;
                    }
                    for r in 0..MR {
                        Self::axpy_edge(
                            out,
                            i + r,
                            j,
                            jend,
                            n,
                            kb,
                            kend,
                            |kk| a[(r0 + i + r) * k + kk],
                            b,
                        );
                    }
                    i += MR;
                }
                for ii in i..rows {
                    Self::axpy_edge(
                        out,
                        ii,
                        jb,
                        jend,
                        n,
                        kb,
                        kend,
                        |kk| a[(r0 + ii) * k + kk],
                        b,
                    );
                }
                kb = kend;
            }
            jb = jend;
        }
    }

    /// `MR × NR` register microkernel: loads the output tile into
    /// accumulator registers, runs the `kb..kend` slice of the reduction
    /// (ascending `k`, one [`fmadd`] per element per step — the exact
    /// sequence the naive loops perform through memory), and stores the tile
    /// back once.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // innermost kernel: all scalars, no struct worth making
    fn mk_tile(
        out: &mut [f32],
        i: usize,
        j: usize,
        n: usize,
        kb: usize,
        kend: usize,
        av: impl Fn(usize, usize) -> f32,
        b: &[f32],
    ) {
        let mut acc = [[0.0f32; NR]; MR];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(&out[(i + r) * n + j..(i + r) * n + j + NR]);
        }
        for kk in kb..kend {
            let bv: &[f32; NR] = b[kk * n + j..kk * n + j + NR].try_into().unwrap();
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let a_val = av(r, kk);
                for (o, &b_val) in acc_row.iter_mut().zip(bv) {
                    *o = fmadd(a_val, b_val, *o);
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(acc_row);
        }
    }

    /// Axpy fallback for tile-edge regions (`< NR` columns or `< MR` rows):
    /// same ascending-`k` [`fmadd`] sequence as the microkernel, accumulated
    /// through memory.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // innermost kernel: all scalars, no struct worth making
    fn axpy_edge(
        out: &mut [f32],
        i: usize,
        j0: usize,
        j1: usize,
        n: usize,
        kb: usize,
        kend: usize,
        av: impl Fn(usize) -> f32,
        b: &[f32],
    ) {
        if j0 >= j1 {
            return;
        }
        let out_row = &mut out[i * n + j0..i * n + j1];
        for kk in kb..kend {
            let a_val = av(kk);
            let b_row = &b[kk * n + j0..kk * n + j1];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o = fmadd(a_val, bv, *o);
            }
        }
    }

    /// Reference `self × other`: the straightforward i-k-j triple loop.
    ///
    /// Retained as the ground truth the blocked/parallel [`Matrix::matmul`]
    /// is property-tested (bitwise) against, and as the baseline the kernel
    /// microbenchmark measures speedups from. Uses the shared `fmadd`
    /// step so reference and blocked kernels round identically per element.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (k, &a) in a_row.iter().enumerate() {
                let b_row = &other.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o = fmadd(a, b, *o);
                }
            }
        }
        out
    }

    /// `selfᵀ × other` without materialising the transpose.
    ///
    /// Cache-blocked and parallelised over output-row chunks (columns of
    /// `self`); bitwise identical to [`Matrix::matmul_tn_naive`] — the
    /// `k`-reduction per element always runs ascending in one accumulator.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_tn_main(other, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] writing into a caller-provided output (any prior
    /// contents are overwritten).
    ///
    /// # Panics
    /// Panics on shape mismatch or if `out` is not `selfᵀ.rows × n`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "matmul_tn_into output shape mismatch"
        );
        out.fill_zero();
        self.matmul_tn_main(other, out);
    }

    /// Dispatches the blocked parallel `selfᵀ × other` into `out`, which must
    /// already be zeroed (the kernels accumulate).
    fn matmul_tn_main(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: {}x{} ᵀ× {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (kdim, m2, n) = (self.rows, self.cols, other.cols);
        if m2 == 0 || n == 0 || kdim == 0 {
            return;
        }
        let grain = (PAR_GRAIN_FLOPS / (kdim * n)).max(1);
        let (a, b) = (&self.data, &other.data);
        kernel::par_row_chunks(&mut out.data, n, grain, |r0, chunk| {
            Self::matmul_tn_block(a, b, chunk, r0, m2, kdim, n);
        });
    }

    /// Blocked kernel for a band of `matmul_tn` output rows (`selfᵀ` rows,
    /// i.e. columns of `self`) starting at global row `r0`. Same
    /// `jb → kb → i-tile → j-tile` structure as [`Matrix::matmul_block`];
    /// only the `a` access differs — for one `kk`, the `MR` tile values
    /// `a[kk][r0+i..r0+i+MR]` sit contiguously in the `kk`-th row of `a`.
    fn matmul_tn_block(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        r0: usize,
        m2: usize,
        kdim: usize,
        n: usize,
    ) {
        let rows = out.len() / n;
        let mut jb = 0;
        while jb < n {
            let jend = (jb + NB).min(n);
            let mut kb = 0;
            while kb < kdim {
                let kend = (kb + KB).min(kdim);
                let mut i = 0;
                while i + MR <= rows {
                    let mut j = jb;
                    while j + NR <= jend {
                        Self::mk_tile(out, i, j, n, kb, kend, |r, kk| a[kk * m2 + r0 + i + r], b);
                        j += NR;
                    }
                    for r in 0..MR {
                        Self::axpy_edge(
                            out,
                            i + r,
                            j,
                            jend,
                            n,
                            kb,
                            kend,
                            |kk| a[kk * m2 + r0 + i + r],
                            b,
                        );
                    }
                    i += MR;
                }
                for ii in i..rows {
                    Self::axpy_edge(out, ii, jb, jend, n, kb, kend, |kk| a[kk * m2 + r0 + ii], b);
                }
                kb = kend;
            }
            jb = jend;
        }
    }

    /// Reference `selfᵀ × other`: the k-outer loop the crate started with
    /// (inner step shared with the blocked kernel via `fmadd`).
    /// Ground truth for [`Matrix::matmul_tn`] parity tests and benchmarks.
    pub fn matmul_tn_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: {}x{} ᵀ× {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        let n = other.cols;
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o = fmadd(a, b, *o);
                }
            }
        }
        out
    }

    /// `self × otherᵀ` without materialising the transpose.
    ///
    /// Parallelised over output-row chunks; within a chunk, `MR × NTR`
    /// register tiles run that many *independent* dot-product chains in
    /// flight at once, hiding the fma latency that serialises a lone chain.
    /// Each element is still one full-`k` dot product accumulated in
    /// ascending order (the reduction is never split or reassociated), so
    /// results are bitwise identical to [`Matrix::matmul_nt_naive`].
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_main(other, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] writing into a caller-provided output (any prior
    /// contents are overwritten).
    ///
    /// # Panics
    /// Panics on shape mismatch or if `out` is not `m × other.rows`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "matmul_nt_into output shape mismatch"
        );
        out.fill_zero();
        self.matmul_nt_main(other, out);
    }

    /// Dispatches the tiled parallel `self × otherᵀ` into `out`, which must
    /// already be zeroed (every element is overwritten unless a dimension is
    /// zero, in which case the zeroed output is the correct product).
    fn matmul_nt_main(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} × {}x{} ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, p) = (self.rows, self.cols, other.rows);
        if m == 0 || p == 0 || k == 0 {
            return;
        }
        let grain = (PAR_GRAIN_FLOPS / (k * p)).max(1);
        let (a, b) = (&self.data, &other.data);
        kernel::par_row_chunks(&mut out.data, p, grain, |r0, chunk| {
            Self::matmul_nt_block(a, b, chunk, r0, k, p);
        });
    }

    /// Kernel for a band of `matmul_nt` output rows starting at global row
    /// `r0`. Full `MR × NTR` tiles accumulate their dot products in a block
    /// of registers (one independent ascending-`k` chain per element); edge
    /// rows and columns fall back to the plain zip dot, which is the exact
    /// same chain.
    fn matmul_nt_block(a: &[f32], b: &[f32], out: &mut [f32], r0: usize, k: usize, p: usize) {
        let rows = out.len() / p;
        let mut i = 0;
        while i + MR <= rows {
            let mut j = 0;
            while j + NTR <= p {
                let mut acc = [[0.0f32; NTR]; MR];
                for kk in 0..k {
                    let mut bv = [0.0f32; NTR];
                    for (c, b_val) in bv.iter_mut().enumerate() {
                        *b_val = b[(j + c) * k + kk];
                    }
                    for (r, acc_row) in acc.iter_mut().enumerate() {
                        let a_val = a[(r0 + i + r) * k + kk];
                        for (o, &b_val) in acc_row.iter_mut().zip(&bv) {
                            *o = fmadd(a_val, b_val, *o);
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    out[(i + r) * p + j..(i + r) * p + j + NTR].copy_from_slice(acc_row);
                }
                j += NTR;
            }
            for r in 0..MR {
                Self::dot_edge(a, b, out, r0, i + r, j, p, k);
            }
            i += MR;
        }
        for ii in i..rows {
            Self::dot_edge(a, b, out, r0, ii, 0, p, k);
        }
    }

    /// Plain zip-dot fallback for `matmul_nt` edge regions: columns
    /// `j0..p` of output row `i`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // innermost kernel: all scalars, no struct worth making
    fn dot_edge(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        r0: usize,
        i: usize,
        j0: usize,
        p: usize,
        k: usize,
    ) {
        let a_row = &a[(r0 + i) * k..(r0 + i + 1) * k];
        let out_row = &mut out[i * p + j0..i * p + p];
        for (o, j) in out_row.iter_mut().zip(j0..p) {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc = fmadd(av, bv, acc);
            }
            *o = acc;
        }
    }

    /// Reference `self × otherᵀ`: row-against-row zip dot products (inner
    /// step shared with the tiled kernel via `fmadd`).
    /// Ground truth for [`Matrix::matmul_nt`] parity tests and benchmarks.
    pub fn matmul_nt_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} × {}x{} ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc = fmadd(a, b, acc);
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        kernel::par_zip_apply(&mut self.data, &other.data, |a, b| *a += b);
    }

    /// Element-wise `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Element-wise `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let mut out = self.clone();
        kernel::par_zip_apply(&mut out.data, &other.data, |a, b| *a -= b);
        out
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let mut out = self.clone();
        kernel::par_zip_apply(&mut out.data, &other.data, |a, b| *a *= b);
        out
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: f32) -> Matrix {
        let mut out = self.clone();
        kernel::par_apply(&mut out.data, |a| *a *= k);
        out
    }

    /// In-place `self += k * other` (axpy).
    pub fn axpy(&mut self, k: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        kernel::par_zip_apply(&mut self.data, &other.data, |a, b| *a += k * b);
    }

    /// Applies `f` element-wise, returning a new matrix. `f` must be `Sync`:
    /// large matrices are mapped on several threads (one value per element
    /// regardless of chunking, so the result never depends on thread count).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = self.clone();
        kernel::par_apply(&mut out.data, |a| *a = f(*a));
        out
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|a| *a = 0.0);
    }

    /// Sets every element to `value`, keeping the allocation.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|a| *a = value);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Stacks `mats` vertically (all must share a column count).
    pub fn vstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "vstack of zero matrices");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Concatenates `mats` horizontally (all must share a row count).
    pub fn hstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "hstack of zero matrices");
        let rows = mats[0].rows;
        let cols: usize = mats.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for m in mats {
                assert_eq!(m.rows, rows, "hstack row mismatch");
                out.data[r * cols + offset..r * cols + offset + m.cols].copy_from_slice(m.row(r));
                offset += m.cols;
            }
        }
        out
    }

    /// Gathers the given rows into a new matrix (row `k` of the output is
    /// row `indices[k]` of `self`).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        if self.cols == 0 {
            for &i in indices {
                assert!(
                    i < self.rows,
                    "gather_rows index {i} out of bounds ({} rows)",
                    self.rows
                );
            }
            return out;
        }
        let grain = (kernel::PAR_ELEM_CUTOFF / self.cols).max(1);
        kernel::par_row_chunks(&mut out.data, self.cols, grain, |r0, chunk| {
            for (k, row) in chunk.chunks_mut(self.cols).enumerate() {
                let i = indices[r0 + k];
                assert!(
                    i < self.rows,
                    "gather_rows index {i} out of bounds ({} rows)",
                    self.rows
                );
                row.copy_from_slice(self.row(i));
            }
        });
        out
    }

    /// Dot product between row `r` of `self` and row `r2` of `other`.
    pub fn row_dot(&self, r: usize, other: &Matrix, r2: usize) -> f32 {
        assert_eq!(self.cols, other.cols, "row_dot column mismatch");
        self.row(r)
            .iter()
            .zip(other.row(r2).iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// L2 norm of row `r`.
    pub fn row_norm(&self, r: usize) -> f32 {
        self.row(r).iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn zeros_ones_full() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.data().iter().all(|&v| v == 0.0));
        let o = Matrix::ones(3, 2);
        assert!(o.data().iter().all(|&v| v == 1.0));
        let f = Matrix::full(1, 4, 2.5);
        assert!(f.data().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn from_fn_indexing() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 10 + c) as f32);
        assert_eq!(m[(2, 3)], 23.0);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert!(approx(c[(0, 0)], 58.0));
        assert!(approx(c[(0, 1)], 64.0));
        assert!(approx(c[(1, 0)], 139.0));
        assert!(approx(c[(1, 1)], 154.0));
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let i = Matrix::identity(4);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + c) as f32 + 0.5);
        let b = Matrix::from_fn(3, 4, |r, c| (r * c) as f32 - 1.0);
        let expected = a.transpose().matmul(&b);
        let got = a.matmul_tn(&b);
        for (x, y) in expected.data().iter().zip(got.data().iter()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let b = Matrix::from_fn(5, 2, |r, c| (r + 2 * c) as f32);
        let expected = a.matmul(&b.transpose());
        let got = a.matmul_nt(&b);
        for (x, y) in expected.data().iter().zip(got.data().iter()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        let mut c = a.clone();
        c.axpy(0.5, &b);
        assert_eq!(c.data(), &[3.0, 4.5, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert!(approx(a.sum(), -2.0));
        assert!(approx(a.mean(), -0.5));
        assert!(approx(a.max_abs(), 4.0));
        assert!(approx(a.frobenius_norm(), (30.0f32).sqrt()));
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);

        let c = Matrix::from_vec(1, 3, vec![7.0, 8.0, 9.0]);
        let h = Matrix::hstack(&[&a, &c]);
        assert_eq!(h.shape(), (1, 5));
        assert_eq!(h.data(), &[1.0, 2.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn gather_rows_basic() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let g = a.gather_rows(&[3, 0, 3]);
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g.row(0), &[6.0, 7.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
        assert_eq!(g.row(2), &[6.0, 7.0]);
    }

    #[test]
    fn row_helpers() {
        let a = Matrix::from_vec(2, 3, vec![3.0, 4.0, 0.0, 1.0, 0.0, 0.0]);
        assert!(approx(a.row_norm(0), 5.0));
        assert!(approx(a.row_dot(0, &a, 1), 3.0));
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Matrix::ones(2, 2);
        assert!(a.all_finite());
        a[(0, 1)] = f32::NAN;
        assert!(!a.all_finite());
    }

    #[test]
    fn all_finite_detects_infinities() {
        let mut a = Matrix::zeros(1, 3);
        a[(0, 0)] = f32::INFINITY;
        assert!(!a.all_finite());
        a[(0, 0)] = f32::NEG_INFINITY;
        assert!(!a.all_finite());
        a[(0, 0)] = f32::MAX;
        assert!(a.all_finite(), "f32::MAX is finite");
    }

    #[test]
    fn all_finite_accepts_signed_zero_and_subnormals() {
        // -0.0 and subnormals are finite values; the finite guard built on
        // this predicate must not abort training over them.
        let a = Matrix::from_vec(1, 4, vec![-0.0, 0.0, f32::MIN_POSITIVE / 2.0, -1.0e-40]);
        assert!(a.all_finite());
    }

    #[test]
    fn all_finite_on_empty_matrix() {
        assert!(Matrix::zeros(0, 0).all_finite());
    }
}
