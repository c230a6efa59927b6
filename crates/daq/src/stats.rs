//! Summary statistics for sampled data.
//!
//! The paper's headline metric is the *median* frame rate (Table I:
//! "Median frame rate achieved while running popular Android apps"), so a
//! correct median over an even/odd sample count matters here.

/// The median of a sample, or `None` when empty.
///
/// Uses the midpoint convention for even counts.
///
/// # Examples
///
/// ```
/// use mpt_daq::stats::median;
///
/// assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
/// assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
/// assert_eq!(median(&[]), None);
/// ```
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0–100) using linear interpolation between
/// closest ranks, or `None` when empty.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if values.is_empty() {
        return None;
    }
    Some(sorted_percentile(&sorted_copy(values), p))
}

/// A sorted copy of `values`; `NaN` compares equal to everything.
fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted
}

/// The `p`-th percentile of an already sorted, non-empty sample, by
/// linear interpolation between closest ranks.
fn sorted_percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Arithmetic mean, or `None` when empty.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Sample standard deviation (n−1 denominator), or `None` with fewer than
/// two samples.
#[must_use]
pub fn std_dev(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let m = mean(values)?;
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64;
    Some(var.sqrt())
}

/// The empirical CDF of a sample evaluated at the given percentile ranks:
/// `(p, value)` pairs, one per rank, each bit-identical to
/// [`percentile`]`(values, p)`. The sample is sorted once for all ranks.
/// Empty input (or no ranks) yields an empty vector — the fleet rollups
/// use this for throttle-onset curves across a device population.
///
/// # Panics
///
/// Panics if any rank is outside `[0, 100]`.
#[must_use]
pub fn cdf_points(values: &[f64], ranks: &[f64]) -> Vec<(f64, f64)> {
    for &p in ranks {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    }
    if values.is_empty() {
        return Vec::new();
    }
    let sorted = sorted_copy(values);
    ranks
        .iter()
        .map(|&p| (p, sorted_percentile(&sorted, p)))
        .collect()
}

/// One bin of a fixed-width [`histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramBin {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge (inclusive for the last bin).
    pub hi: f64,
    /// Samples landing in `[lo, hi)`.
    pub count: u64,
}

/// A fixed-width histogram over `[min, max]` with `bins` buckets; the
/// last bin's upper edge is inclusive so `max` itself lands in-range.
/// Samples outside `[min, max]` are clamped into the edge bins (a
/// population histogram should never silently drop its outliers).
/// Returns an empty vector when `bins == 0` or the range is degenerate.
#[must_use]
pub fn histogram(values: &[f64], min: f64, max: f64, bins: usize) -> Vec<HistogramBin> {
    if bins == 0 {
        return Vec::new();
    }
    let width = (max - min) / bins as f64;
    if !width.is_finite() || width <= 0.0 {
        return Vec::new();
    }
    let mut out: Vec<HistogramBin> = (0..bins)
        .map(|i| HistogramBin {
            lo: min + i as f64 * width,
            hi: min + (i + 1) as f64 * width,
            count: 0,
        })
        .collect();
    for &v in values {
        if v.is_nan() {
            continue;
        }
        let idx = (((v - min) / width).floor().max(0.0) as usize).min(bins - 1);
        out[idx].count += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[1.0, 9.0]), Some(5.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    fn percentile_extremes() {
        let v = [2.0, 4.0, 6.0, 8.0];
        assert_eq!(percentile(&v, 0.0), Some(2.0));
        assert_eq!(percentile(&v, 100.0), Some(8.0));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 25.0), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn out_of_range_percentile_is_a_bug() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn std_dev_known_value() {
        // Variance of [2,4,4,4,5,5,7,9] (sample) = 32/7.
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let sd = std_dev(&v).unwrap();
        assert!((sd - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), None);
        assert_eq!(std_dev(&[1.0]), None);
        assert_eq!(median(&[]), None);
        assert!(cdf_points(&[], &[50.0]).is_empty());
        assert!(histogram(&[1.0], 0.0, 0.0, 4).is_empty());
        assert!(histogram(&[1.0], 0.0, 1.0, 0).is_empty());
    }

    #[test]
    fn cdf_points_follow_percentiles() {
        let v = [2.0, 4.0, 6.0, 8.0];
        let cdf = cdf_points(&v, &[0.0, 50.0, 100.0]);
        assert_eq!(cdf, vec![(0.0, 2.0), (50.0, 5.0), (100.0, 8.0)]);
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let v = [-1.0, 0.0, 0.5, 1.5, 2.5, 3.9, 4.0, 99.0];
        let h = histogram(&v, 0.0, 4.0, 4);
        assert_eq!(h.len(), 4);
        assert_eq!(h.iter().map(|b| b.count).collect::<Vec<_>>(), [3, 1, 1, 3]);
        assert_eq!(h[0].lo, 0.0);
        assert_eq!(h[3].hi, 4.0);
        let total: u64 = h.iter().map(|b| b.count).sum();
        assert_eq!(total, v.len() as u64, "clamping drops nothing");
    }

    proptest! {
        #[test]
        fn prop_median_is_order_invariant(mut values in proptest::collection::vec(-100.0_f64..100.0, 1..50)) {
            let m1 = median(&values).unwrap();
            values.reverse();
            let m2 = median(&values).unwrap();
            prop_assert!((m1 - m2).abs() < 1e-9);
        }

        #[test]
        fn prop_percentile_is_monotone(
            values in proptest::collection::vec(-100.0_f64..100.0, 1..50),
            p1 in 0.0_f64..100.0,
            p2 in 0.0_f64..100.0,
        ) {
            let (v1, v2) = (percentile(&values, p1).unwrap(), percentile(&values, p2).unwrap());
            if p1 <= p2 {
                prop_assert!(v1 <= v2 + 1e-9);
            }
        }

        #[test]
        fn prop_cdf_points_equal_per_rank_percentiles(
            values in proptest::collection::vec(-100.0_f64..100.0, 0..60),
            ranks in proptest::collection::vec(0.0_f64..100.0, 0..10),
        ) {
            let mut ranks = ranks;
            ranks.extend([0.0, 50.0, 100.0]);
            let expected: Vec<(u64, u64)> = ranks
                .iter()
                .filter_map(|&p| percentile(&values, p).map(|v| (p.to_bits(), v.to_bits())))
                .collect();
            let got: Vec<(u64, u64)> = cdf_points(&values, &ranks)
                .into_iter()
                .map(|(p, v)| (p.to_bits(), v.to_bits()))
                .collect();
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(got.len(), if values.is_empty() { 0 } else { ranks.len() });
        }

        #[test]
        fn prop_median_within_range(values in proptest::collection::vec(-100.0_f64..100.0, 1..50)) {
            let m = median(&values).unwrap();
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(lo - 1e-9 <= m && m <= hi + 1e-9);
        }
    }
}
