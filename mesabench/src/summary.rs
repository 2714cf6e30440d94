//! Order statistics and report digests.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `pct`-th percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
///
/// The estimate is Harrell–Davis: a mean of all order statistics weighted
/// by a Beta distribution centred on the percentile. Latencies of a fixed
/// query mix cluster by query, and a single order statistic jumps across
/// the gaps between clusters as noise reorders a few samples; the weighted
/// mean moves smoothly instead.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    let n = samples.len();
    let rank = (n * pct).div_ceil(100).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = pct as f64 / 100.0;
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let cdf = stats::beta_inc(a, b, (i + 1) as f64 / n as f64);
        sum += (cdf - below) * x;
        below = cdf;
    }
    Some(sum)
}

/// The median of `values` (mean of the middle pair for an even count), or
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// 64-bit FNV-1a, for digests of rendered reports.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fewest samples at which the `pct`-th percentile is reported:
    /// the smallest n with n - ceil(n * pct / 100) >= MIN_BEYOND.
    fn min_samples(pct: usize) -> usize {
        (MIN_BEYOND * 100).div_ceil(100 - pct)
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1000);
        for pct in [50, 90, 99] {
            let n = min_samples(pct);
            let enough: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(percentile(&enough, pct).is_some(), "p{pct} with {n}");
            assert!(
                percentile(&enough[1..], pct).is_none(),
                "p{pct} with {}",
                n - 1
            );
        }
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn percentiles_of_an_even_spread() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&samples, 50).unwrap();
        let p90 = percentile(&samples, 90).unwrap();
        assert!((p50 - 50.5).abs() < 1e-6, "{p50}");
        assert!((p90 - 90.5).abs() < 1e-6, "{p90}");
        assert!((percentile(&[7.0; 40], 50).unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn the_median_of_two_clusters_lies_between_them() {
        // A single order statistic would read 1 or 100 depending on one
        // sample; the weighted estimate sits midway.
        let mut samples = vec![1.0; 50];
        samples.extend([100.0; 50]);
        let p50 = percentile(&samples, 50).unwrap();
        assert!((p50 - 50.5).abs() < 1e-6, "{p50}");
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
