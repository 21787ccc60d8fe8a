//! Order statistics over latency samples.

/// The fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank index of the `q`-quantile among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `q`-quantile (nearest rank) of `samples`; `None` when empty.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q)])
}

/// The `q`-quantile, withheld (`None`) unless at least [`MIN_TAIL`]
/// samples lie strictly beyond its rank — fewer would make the tail
/// figure a reading of a handful of outliers.
#[must_use]
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - 1 - rank(n, q) < MIN_TAIL {
        return None;
    }
    quantile(samples, q)
}

/// The median (nearest rank); 0 for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Geometric mean of positive ratios; 0 for none.
#[must_use]
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_quantile(&hundred, 0.9), Some(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_quantile(&ninety_nine, 0.9), None);
        assert_eq!(tail_quantile(&[], 0.9), None);
        assert_eq!(quantile(&ninety_nine, 0.9), Some(90.0));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }
}
