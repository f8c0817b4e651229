//! Small statistics helpers: medians, means, standard deviations and
//! empirical CDFs.
//!
//! The paper reports almost every result either as a median over a per-AS or
//! per-IID population (Algorithms 1 and 2) or as an empirical CDF (Figures 4,
//! 5, 7 and 8); Table 2 adds per-device means and standard deviations of
//! probe counts.

use serde::{Deserialize, Serialize};

/// The median of a slice of orderable values, or `None` for an empty slice.
/// For even-length inputs the lower of the two middle elements is returned,
/// which keeps the result a member of the input domain (a prefix length of
/// /58 is meaningful; /57.5 is not).
pub fn median<T: Ord + Copy>(values: &[T]) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    Some(sorted[(sorted.len() - 1) / 2])
}

/// The most frequent value of a slice, breaking ties toward the smaller
/// value. `None` for an empty slice. Used by the aggregation ablation that
/// compares mode- with median-based per-AS allocation inference.
pub fn mode<T: Ord + Copy>(values: &[T]) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let mut best = sorted[0];
    let mut best_count = 0usize;
    let mut current = sorted[0];
    let mut count = 0usize;
    for &v in &sorted {
        if v == current {
            count += 1;
        } else {
            if count > best_count {
                best = current;
                best_count = count;
            }
            current = v;
            count = 1;
        }
    }
    if count > best_count {
        best = current;
    }
    Some(best)
}

/// Arithmetic mean, or `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Population standard deviation, or `None` for an empty slice. Table 2
/// reports the standard deviation of daily probe counts per tracked device.
pub(crate) fn std_dev(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    let variance = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64;
    Some(variance.sqrt())
}

/// An empirical cumulative distribution function over `f64` samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build a CDF from samples (NaNs are dropped).
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|v| !v.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after filter"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }

    /// The median sample.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Render the CDF as `(value, cumulative fraction)` steps, one per
    /// distinct sample value — the series a plotting tool would consume.
    pub fn steps(&self) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = Vec::new();
        let n = self.sorted.len() as f64;
        for (i, &v) in self.sorted.iter().enumerate() {
            let frac = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 = frac,
                _ => out.push((v, frac)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random u64s for property-style tests (no external
    /// property-testing crate is available offline).
    fn rng_stream(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3, 1, 2]), Some(2));
        assert_eq!(median(&[4, 1, 3, 2]), Some(2));
        assert_eq!(median::<u8>(&[]), None);
        assert_eq!(median(&[56u8, 64, 56, 64, 56]), Some(56));
    }

    #[test]
    fn mode_picks_most_frequent() {
        assert_eq!(mode(&[56u8, 64, 56, 60]), Some(56));
        assert_eq!(mode(&[64u8, 64, 56]), Some(64));
        // Ties break toward the smaller value.
        assert_eq!(mode(&[64u8, 56]), Some(56));
        assert_eq!(mode::<u8>(&[]), None);
    }

    #[test]
    fn mean_and_std_dev() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
        let sd = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((sd - 2.0).abs() < 1e-12);
        assert_eq!(std_dev(&[]), None);
        assert_eq!(std_dev(&[5.0]), Some(0.0));
    }

    #[test]
    fn cdf_fraction_and_quantiles() {
        let cdf = Cdf::from_samples([1.0, 2.0, 2.0, 3.0, 10.0]);
        assert_eq!(cdf.len(), 5);
        assert!(!cdf.is_empty());
        assert_eq!(cdf.median(), Some(2.0));
        assert_eq!(cdf.quantile(1.0), Some(10.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        let steps = cdf.steps();
        assert_eq!(steps, vec![(1.0, 0.2), (2.0, 0.6), (3.0, 0.8), (10.0, 1.0)]);
    }

    #[test]
    fn cdf_empty_and_nan_handling() {
        let empty = Cdf::from_samples([]);
        assert!(empty.is_empty());
        assert_eq!(empty.median(), None);
        assert!(empty.steps().is_empty());
        let with_nan = Cdf::from_samples([1.0, f64::NAN, 2.0]);
        assert_eq!(with_nan.len(), 2);
    }

    #[test]
    fn cdf_is_monotone() {
        for case in 0..64u64 {
            let mut rng = rng_stream(case);
            let len = 1 + (rng.next().unwrap() % 99) as usize;
            let samples: Vec<f64> = rng
                .by_ref()
                .take(len)
                .map(|v| (v % 2_000_000) as f64 - 1e6)
                .collect();
            let cdf = Cdf::from_samples(samples.clone());
            let steps = cdf.steps();
            let mut previous = (f64::NEG_INFINITY, 0.0);
            for &(x, f) in &steps {
                assert!(x > previous.0, "case {case}: values not increasing at {x}");
                assert!(f > previous.1, "case {case}: CDF not monotone at {x}");
                assert!((0.0..=1.0).contains(&f), "case {case}: CDF out of range");
                previous = (x, f);
            }
            assert_eq!(previous.1, 1.0, "case {case}");
        }
    }

    #[test]
    fn median_is_between_min_and_max() {
        for case in 0..64u64 {
            let mut rng = rng_stream(0x6d65_6469 ^ case);
            let len = 1 + (rng.next().unwrap() % 49) as usize;
            let values: Vec<i32> = rng.by_ref().take(len).map(|v| v as i32).collect();
            let m = median(&values).unwrap();
            let min = *values.iter().min().unwrap();
            let max = *values.iter().max().unwrap();
            assert!(m >= min && m <= max, "case {case}: median outside range");
        }
    }
}
