//! Weight initialisation schemes.

use prim_tensor::Matrix;
use rand::Rng;

/// Uniform initialisation in `[-bound, bound]`.
pub fn uniform<R: Rng>(rng: &mut R, rows: usize, cols: usize, bound: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..=bound))
}

/// Xavier/Glorot uniform initialisation: `bound = sqrt(6 / (fan_in + fan_out))`.
///
/// The standard choice for the linear projections inside GNN layers.
pub fn xavier_uniform<R: Rng>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    uniform(rng, rows, cols, bound)
}

/// Gaussian initialisation via the Box–Muller transform.
pub fn normal<R: Rng>(rng: &mut R, rows: usize, cols: usize, std: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    })
}

/// Embedding-table initialisation: small uniform noise, the scheme used for
/// POI / category / taxonomy embeddings throughout the reproduction.
pub fn embedding<R: Rng>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
    let bound = (1.0 / cols as f32).sqrt();
    uniform(rng, rows, cols, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bound_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = xavier_uniform(&mut rng, 16, 48);
        let bound = (6.0 / 64.0f32).sqrt();
        assert!(m.data().iter().all(|v| v.abs() <= bound + 1e-6));
        // Should not be degenerate.
        assert!(m.max_abs() > bound * 0.5);
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = normal(&mut rng, 100, 100, 2.0);
        let mean = m.mean();
        let var = m
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / m.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = xavier_uniform(&mut StdRng::seed_from_u64(3), 4, 4);
        let b = xavier_uniform(&mut StdRng::seed_from_u64(3), 4, 4);
        assert_eq!(a, b);
    }
}
