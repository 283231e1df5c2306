//! Order statistics over latency samples.

/// Nearest-rank percentile of `sorted` (ascending) at `q` in `[0, 1]`:
/// the smallest sample with at least `q` of all samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q)]
}

/// Zero-based index of the nearest-rank `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Number of samples strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - rank(n, q)
}

/// Median of unsorted values (nearest rank, so always an observed value).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A latency distribution: median and 99th percentile, each with the
/// sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Samples strictly above the 99th percentile. Under ten, the tail
    /// figure is one or two unlucky samples and says little.
    pub beyond_p99: usize,
}

impl Latency {
    /// Summarises unsorted samples.
    pub fn of(samples: &[f64]) -> Latency {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Latency {
            n: v.len(),
            p50: percentile(&v, 0.5),
            p99: percentile(&v, 0.99),
            beyond_p99: beyond(v.len(), 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn sample_counts_beyond_the_tail() {
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(15, 0.99), 0);
        assert_eq!(beyond(15, 0.5), 7);
        let l = Latency::of(&(0..2000).rev().map(f64::from).collect::<Vec<_>>());
        assert_eq!((l.n, l.p50, l.p99, l.beyond_p99), (2000, 999.0, 1979.0, 20));
    }

    #[test]
    fn median_and_mean_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
