//! Summary statistics shared by every workload.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail percentile and the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the percentile.
    pub value: f64,
    /// The percentile, as the share of samples at or below `value`
    /// (0–100).
    pub percentile: f64,
    /// Samples summarized.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the order statistic at rank `n − TAIL_BEYOND − 1` (0-based), whose
/// percentile is `100 · (n − TAIL_BEYOND) / n`. `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist, because then no sample has ten
/// beyond it.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(samples);
    let rank = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: s[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        n,
        beyond: n - rank - 1,
    })
}

/// Geometric mean of positive values; `None` when empty or when any
/// value is not a positive finite number.
#[must_use]
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    Some((logs / values.len() as f64).exp())
}

/// Failed operations as a share of those attempted (0 when nothing was
/// attempted, which the command reports as a failure of its own).
#[must_use]
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=80).map(f64::from).collect();
        let t = tail(&samples).expect("80 samples have a tail");
        assert_eq!(t.n, 80);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 70.0);
        assert!((t.percentile - 87.5).abs() < 1e-12);
        assert_eq!(samples.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_ignores_sample_order_and_needs_eleven_samples() {
        let mut samples: Vec<f64> = (0..96).map(|i| f64::from((i * 37) % 96)).collect();
        let t = tail(&samples).expect("96 samples have a tail");
        assert_eq!((t.value, t.beyond, t.n), (85.0, 10, 96));
        samples.truncate(11);
        let t = tail(&samples).expect("11 samples have a tail");
        assert_eq!((t.beyond, t.n), (10, 11));
        assert_eq!(
            t.value,
            samples.iter().copied().fold(f64::INFINITY, f64::min)
        );
        samples.truncate(10);
        assert_eq!(tail(&samples), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_of_speedups() {
        let g = geomean(&[2.0, 8.0]).expect("positive values");
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean(&[1.5, 1.5, 1.5]).expect("positive values");
        assert!((g - 1.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        assert_eq!(failed_share(0, 96), 0.0);
        assert!((failed_share(3, 96) - 0.031_25).abs() < 1e-12);
        assert_eq!(failed_share(0, 0), 0.0);
    }
}
