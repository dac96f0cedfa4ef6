//! Estimators: medians, nearest-rank percentiles that refuse thin
//! tails, and geometric means.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is too thin to read.
pub const MIN_TAIL: usize = 10;

/// A nearest-rank percentile with the samples it was read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q < 1) of `sorted` (ascending).
///
/// # Errors
///
/// Fewer than [`MIN_TAIL`] samples lie beyond the percentile.
pub fn percentile(sorted: &[f64], q: f64) -> Result<Percentile, String> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} out of (0, 1)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted");
    let n = sorted.len();
    let rank = ((n as f64) * q).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it; need at least {MIN_TAIL}",
            q * 100.0
        ));
    }
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Sorts a sample vector ascending (times are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = v.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / v.len() as f64).exp()
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_too_few_tail_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples has one sample beyond it.
        assert!(percentile(&v, 0.99).is_err());
        // p90 of 100 has exactly ten beyond it: allowed.
        let p90 = percentile(&v, 0.90).expect("ten beyond");
        assert_eq!((p90.value, p90.samples, p90.beyond), (90.0, 100, 10));
        // p99 needs a thousand samples.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&w, 0.99).expect("ten beyond");
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(percentile(&w[..999], 0.99).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
