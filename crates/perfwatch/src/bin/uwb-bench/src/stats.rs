//! Order statistics behind the end-to-end metrics.

use uwb_obs::median;

/// Samples that must lie beyond a reported tail percentile. A p90 read
/// off fewer samples is decided by one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Equal consecutive slices a run is cut into for throughput.
pub const SLICES: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it.
#[must_use]
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Throughput as the median over [`SLICES`] equal consecutive slices of
/// the run: units completed in a slice ÷ the time its ops took.
///
/// `op_s[i]` is how long op `i` took, in seconds; `units[i]` is what it
/// completed. A burst of interference shorter than half the run moves
/// fewer than half the slices, so it cannot move the median. `None`
/// with fewer ops than slices.
#[must_use]
pub fn slice_median_rate(op_s: &[f64], units: &[f64]) -> Option<f64> {
    let n = op_s.len();
    if n < SLICES || units.len() != n {
        return None;
    }
    let rates: Vec<f64> = (0..SLICES)
        .map(|k| {
            let slice = k * n / SLICES..(k + 1) * n / SLICES;
            units[slice.clone()].iter().sum::<f64>() / op_s[slice].iter().sum::<f64>()
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        // 99 samples put only 9 above the p90 rank.
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
        // The median of 20 samples has 10 beyond it.
        assert_eq!(tail_percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&hundred[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn percentile_ignores_sample_order() {
        let mut shuffled: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let p = tail_percentile(&shuffled, 0.9);
        shuffled.sort_unstable_by(f64::total_cmp);
        assert_eq!(p, tail_percentile(&shuffled, 0.9));
        assert_eq!(p, Some(179.0));
    }

    #[test]
    fn slice_median_rate_of_a_steady_run_is_its_rate() {
        // 100 ops of 0.01 s, 2 units each: 200 units/s in every slice.
        let rate = slice_median_rate(&[0.01; 100], &[2.0; 100]).unwrap();
        assert!((rate - 200.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn slice_median_rate_shrugs_off_a_short_stall() {
        // One op in the third slice stalls for a whole second: that slice
        // slows down, the median over the ten slices does not.
        let mut op_s = [0.01; 100];
        op_s[25] = 1.0;
        let rate = slice_median_rate(&op_s, &[1.0; 100]).unwrap();
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
        assert_eq!(slice_median_rate(&op_s[..9], &[1.0; 9]), None);
    }

    #[test]
    fn slice_median_rate_weighs_units_per_slice() {
        // Cheap and dear ops alternate in the first half, dear ops only
        // in the second: the median sits between the two halves' rates.
        let op_s: Vec<f64> = (0..100)
            .map(|i| if i < 50 && i % 2 == 0 { 0.001 } else { 0.01 })
            .collect();
        let rate = slice_median_rate(&op_s, &[1.0; 100]).unwrap();
        let (fast, slow) = (10.0 / 0.055, 100.0);
        assert!((rate - (fast + slow) / 2.0).abs() < 1e-6, "{rate}");
    }
}
