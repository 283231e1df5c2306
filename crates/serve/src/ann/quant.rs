//! The quantized embedding tier for approximate candidate scoring.
//!
//! The ANN search loop evaluates one dot product per visited node, so its
//! inner kernel reads a *compressed* copy of the POI table instead of the
//! exact f32 rows: int8 codes with one f32 scale per vector (4 bytes + d
//! bytes per row). Decoding is deterministic, and every final candidate is
//! re-scored through the exact f32 kernel, so quantization error can only
//! affect *which* candidates surface, never the scores the client sees.
//!
//! ## Bitwise SIMD/scalar contract
//!
//! The dot kernel is defined as four interleaved accumulator chains —
//! chain `j` sums terms `q[4i+j] · code[4i+j]` in ascending `i` —
//! combined as `(c0 + c1) + (c2 + c3)`, followed by a scalar tail for
//! `d % 4` and one final multiply by the row scale. The SSE version runs
//! the same four chains in vector lanes; lane-wise IEEE arithmetic with no
//! FMA contraction makes it bitwise identical to the scalar reference,
//! which the proptests in `quant_props.rs` pin.

use prim_tensor::Matrix;

/// Compressed snapshot of the POI embedding table.
///
/// Rows are encoded independently, so the tier is rebuilt (never
/// persisted) from whatever embedding table a checkpoint re-materialises —
/// bitwise-identical embeddings always rebuild bitwise-identical codes.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantStore {
    dim: usize,
    /// `n × dim` int8 codes, row-major.
    codes: Vec<i8>,
    /// Per-row dequantization scale (`value ≈ code · scale`).
    scales: Vec<f32>,
}

impl QuantStore {
    /// Encodes every row of `table`.
    pub fn build(table: &Matrix) -> Self {
        let (n, dim) = (table.rows(), table.cols());
        let mut store = QuantStore {
            dim,
            codes: Vec::with_capacity(n * dim),
            scales: Vec::with_capacity(n),
        };
        for r in 0..n {
            store.append_row(table.row(r));
        }
        store
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Re-encodes an existing row in place. Rows encode independently (one
    /// scale per row), so restaging the rows an ingest batch touched and
    /// appending the new ones yields a store bitwise identical to
    /// [`QuantStore::build`] over the whole mutated table.
    pub fn restage_row(&mut self, row: usize, values: &[f32]) {
        assert_eq!(values.len(), self.dim, "row width mismatch");
        assert!(row < self.len(), "row {row} out of bounds");
        let (scale, inv) = Self::row_scale(values);
        self.scales[row] = scale;
        let at = row * self.dim;
        for (c, &v) in self.codes[at..at + self.dim].iter_mut().zip(values) {
            *c = encode(v, inv);
        }
    }

    /// Appends one newly-onboarded row.
    pub fn append_row(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.dim, "row width mismatch");
        let (scale, inv) = Self::row_scale(values);
        self.scales.push(scale);
        self.codes.extend(values.iter().map(|&v| encode(v, inv)));
    }

    fn row_scale(values: &[f32]) -> (f32, f32) {
        let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = max_abs / 127.0;
        let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
        (scale, inv)
    }

    /// Number of encoded rows.
    pub fn len(&self) -> usize {
        self.scales.len()
    }

    /// True if no rows are encoded.
    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }

    /// int8 codes of one row, with its scale.
    pub fn row_i8(&self, row: usize) -> (&[i8], f32) {
        (
            &self.codes[row * self.dim..(row + 1) * self.dim],
            self.scales[row],
        )
    }

    /// Dequantized copy of one row.
    pub fn decode_row(&self, row: usize) -> Vec<f32> {
        let (codes, scale) = self.row_i8(row);
        codes.iter().map(|&c| c as f32 * scale).collect()
    }

    /// `q · dec(row)` (SIMD on x86_64, bitwise equal to the scalar
    /// reference either way).
    #[inline]
    pub fn dot(&self, row: usize, q: &[f32]) -> f32 {
        let (codes, scale) = self.row_i8(row);
        dot_i8(codes, scale, q)
    }
}

/// int8 code of `v` under its row's inverse scale.
#[inline]
fn encode(v: f32, inv: f32) -> i8 {
    (v * inv).round().clamp(-127.0, 127.0) as i8
}

// ---------------------------------------------------------------------------
// Dot kernel
// ---------------------------------------------------------------------------

/// Scalar reference for the int8 dot: the canonical four-chain reduction
/// the SSE kernel must match bitwise.
pub fn dot_i8_scalar(codes: &[i8], scale: f32, q: &[f32]) -> f32 {
    debug_assert_eq!(codes.len(), q.len());
    let d = q.len();
    let d4 = d & !3;
    let (mut c0, mut c1, mut c2, mut c3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let mut k = 0;
    while k < d4 {
        c0 += q[k] * codes[k] as f32;
        c1 += q[k + 1] * codes[k + 1] as f32;
        c2 += q[k + 2] * codes[k + 2] as f32;
        c3 += q[k + 3] * codes[k + 3] as f32;
        k += 4;
    }
    let mut sum = (c0 + c1) + (c2 + c3);
    while k < d {
        sum += q[k] * codes[k] as f32;
        k += 1;
    }
    sum * scale
}

/// int8 dot: SSE on x86_64, scalar reference elsewhere.
#[inline]
pub fn dot_i8(codes: &[i8], scale: f32, q: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86_64 baseline.
    unsafe {
        dot_i8_sse(codes, scale, q)
    }
    #[cfg(not(target_arch = "x86_64"))]
    dot_i8_scalar(codes, scale, q)
}

/// SSE int8 dot. Four codes sign-extend i8→i32 through two unpack/compare
/// steps (SSE2 only — no SSE4.1 `cvtepi8`), convert exactly to f32 (every
/// i8 is exact in f32) and accumulate in four lanes — the scalar
/// reference's four chains. Lane reduction and the tail reproduce the
/// scalar combine order, so the result is bitwise [`dot_i8_scalar`].
#[cfg(target_arch = "x86_64")]
unsafe fn dot_i8_sse(codes: &[i8], scale: f32, q: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(codes.len(), q.len());
    let d = q.len();
    let d4 = d & !3;
    let cp = codes.as_ptr();
    let qp = q.as_ptr();
    let zero = _mm_setzero_si128();
    let mut acc = _mm_setzero_ps();
    let mut k = 0;
    while k < d4 {
        let raw = std::ptr::read_unaligned(cp.add(k) as *const i32);
        let v = _mm_cvtsi32_si128(raw);
        let neg8 = _mm_cmplt_epi8(v, zero);
        let w16 = _mm_unpacklo_epi8(v, neg8);
        let neg16 = _mm_cmplt_epi16(w16, zero);
        let w32 = _mm_unpacklo_epi16(w16, neg16);
        let f = _mm_cvtepi32_ps(w32);
        acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(qp.add(k)), f));
        k += 4;
    }
    let mut lanes = [0.0f32; 4];
    _mm_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    while k < d {
        sum += q[k] * codes[k] as f32;
        k += 1;
    }
    sum * scale
}

/// Row-wise L2 normalization (zero rows stay zero) — the geometry the
/// HNSW graph is built over, so construction similarity is cosine.
pub fn l2_normalized(table: &Matrix) -> Matrix {
    let (n, d) = (table.rows(), table.cols());
    Matrix::from_fn(n, d, |r, c| {
        let row = table.row(r);
        let norm = row
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt();
        if norm > 0.0 {
            (table.row(r)[c] as f64 / norm) as f32
        } else {
            0.0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_round_trip_error_is_half_scale() {
        let m = Matrix::from_fn(3, 7, |r, c| ((r * 31 + c * 17) as f32).sin() * 3.0);
        let qs = QuantStore::build(&m);
        for r in 0..3 {
            let (_, scale) = qs.row_i8(r);
            let dec = qs.decode_row(r);
            for (a, b) in m.row(r).iter().zip(&dec) {
                assert!((a - b).abs() <= scale * 0.5000001 + 1e-12, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn zero_row_encodes_to_zero() {
        let m = Matrix::zeros(2, 5);
        let qs = QuantStore::build(&m);
        assert_eq!(qs.row_i8(0).1, 0.0);
        assert_eq!(qs.decode_row(1), vec![0.0; 5]);
        assert_eq!(qs.dot(0, &[1.0; 5]), 0.0);
    }

    #[test]
    fn simd_matches_scalar_on_odd_lengths() {
        for d in [1usize, 3, 4, 5, 8, 13, 16, 31] {
            let m = Matrix::from_fn(1, d, |_, c| ((c * 7) as f32).cos() * 2.0 - 0.3);
            let qs = QuantStore::build(&m);
            let q: Vec<f32> = (0..d).map(|c| ((c * 13) as f32).sin()).collect();
            let (codes, scale) = qs.row_i8(0);
            assert_eq!(
                qs.dot(0, &q).to_bits(),
                dot_i8_scalar(codes, scale, &q).to_bits(),
                "int8 d={d}"
            );
        }
    }

    #[test]
    fn restage_and_append_match_full_rebuild_bitwise() {
        let before = Matrix::from_fn(5, 7, |r, c| ((r * 13 + c * 5) as f32).sin() * 1.7);
        // Mutate rows 1 and 3, append two new rows.
        let after = Matrix::from_fn(7, 7, |r, c| {
            if r == 1 || r == 3 || r >= 5 {
                ((r * 29 + c * 11) as f32).cos() * 0.9 - 0.2
            } else {
                before.row(r)[c]
            }
        });
        let mut incremental = QuantStore::build(&before);
        incremental.restage_row(1, after.row(1));
        incremental.restage_row(3, after.row(3));
        incremental.append_row(after.row(5));
        incremental.append_row(after.row(6));
        assert_eq!(incremental, QuantStore::build(&after));
        assert_eq!(incremental.len(), 7);
    }

    #[test]
    fn l2_normalized_rows_are_unit() {
        let m = Matrix::from_fn(4, 6, |r, c| (r as f32 + 1.0) * (c as f32 - 2.5));
        let n = l2_normalized(&m);
        for r in 0..4 {
            let s: f32 = n.row(r).iter().map(|&v| v * v).sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r}: {s}");
        }
        let z = l2_normalized(&Matrix::zeros(1, 4));
        assert_eq!(z.row(0), &[0.0; 4]);
    }
}
