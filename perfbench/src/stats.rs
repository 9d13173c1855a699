//! Order statistics over host-clock samples.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Interquartile range as a share of the median — the spread the
/// benchmark's bounds are compared against.
pub fn iqr_frac(values: &[f64]) -> f64 {
    (percentile(values, 0.75) - percentile(values, 0.25)) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.25), 20.0);
        assert_eq!(percentile(&v, 0.1), 14.0);
        assert_eq!(percentile(&v, 0.99), 49.6);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        // Quartiles 2 and 4 around a median of 3.
        assert_eq!(iqr_frac(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
        assert_eq!(iqr_frac(&[5.0, 5.0, 5.0]), 0.0);
    }
}
