//! Order statistics for timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two nearest ranks (position `q·(n−1)` in sorted order).
/// Zero for an empty slice.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a bound must exceed. Zero when the median is zero.
#[must_use]
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / m
}

/// Arithmetic mean; zero for an empty slice.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let samples: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 11.0);
        assert_eq!(quantile(&samples, 0.9), 10.0);
        assert!((quantile(&[0.0, 10.0], 0.99) - 9.9).abs() < 1e-12);
        // Out-of-range q clamps to the extremes.
        assert_eq!(quantile(&samples, 1.5), 11.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), (4.0 - 2.0) / 3.0);
        assert_eq!(spread(&[5.0; 4]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
