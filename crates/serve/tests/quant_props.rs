//! Property tests for the quantized embedding tier: encode→decode error
//! stays inside the format's bound, and the SIMD dot kernel is bitwise the
//! scalar reference.

use prim_serve::ann::quant::{dot_i8, dot_i8_scalar, QuantStore};
use prim_tensor::Matrix;
use proptest::prelude::*;

fn vector(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-8.0f32..8.0, 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// int8 tier: every decoded component is within half a quantization
    /// step of the original (scale = max|v| / 127).
    #[test]
    fn i8_encode_decode_error_in_bound(v in prop::collection::vec(-8.0f32..8.0, 1..64)) {
        let m = Matrix::from_vec(1, v.len(), v.clone());
        let q = QuantStore::build(&m);
        let dec = q.decode_row(0);
        let max_abs = v.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
        let step = max_abs / 127.0;
        for (i, (&orig, &d)) in v.iter().zip(&dec).enumerate() {
            prop_assert!(
                (orig - d).abs() <= step * 0.5 + 1e-6,
                "component {i}: {orig} -> {d}, step {step}"
            );
        }
    }

    /// The SIMD int8 dot kernel is bitwise the scalar reference on every
    /// length (vector body + scalar tail) and scale.
    #[test]
    fn i8_simd_dot_matches_scalar_bitwise(
        v in vector(70),
        q in vector(70),
        scale in 1e-6f32..4.0,
    ) {
        let n = v.len().min(q.len());
        let codes: Vec<i8> = v[..n].iter().map(|&x| (x * 15.0) as i8).collect();
        let simd = dot_i8(&codes, scale, &q[..n]);
        let scalar = dot_i8_scalar(&codes, scale, &q[..n]);
        prop_assert_eq!(simd.to_bits(), scalar.to_bits());
    }

    /// `QuantStore::dot` agrees bitwise with the scalar kernel over the
    /// decoded row it stores — the engine-facing entry point adds nothing.
    #[test]
    fn store_dot_is_the_scalar_kernel(rows in 1usize..8, dim in 1usize..48, seed in 0u32..=u32::MAX) {
        let mut s = seed as u64 | 1;
        let mut next = move || {
            // Tiny xorshift: deterministic, no rand dependency on values.
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s % 2048) as f32 - 1024.0) / 256.0
        };
        let data: Vec<f32> = (0..rows * dim).map(|_| next()).collect();
        let query: Vec<f32> = (0..dim).map(|_| next()).collect();
        let m = Matrix::from_vec(rows, dim, data);
        let store = QuantStore::build(&m);
        for r in 0..rows {
            let (codes, scale) = store.row_i8(r);
            prop_assert_eq!(
                store.dot(r, &query).to_bits(),
                dot_i8_scalar(codes, scale, &query).to_bits()
            );
        }
    }
}
