//! Summary statistics over one run's samples.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (0 < q <= 100) of unsorted samples: the
/// value at 1-based rank `ceil(q/100 · n)` of the sorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The tail percentile this benchmark reports: p90, which has at least
/// [`TAIL_SAMPLES`] samples beyond it once there are 100 samples. Fewer
/// samples are a benchmark bug, not a measurement.
pub fn p90(samples: &[f64]) -> f64 {
    assert!(
        samples_beyond(samples.len(), 90.0) >= TAIL_SAMPLES,
        "p90 of {} samples has fewer than {TAIL_SAMPLES} samples beyond it",
        samples.len()
    );
    percentile(samples, 90.0)
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Geometric mean of positive samples.
pub fn geomean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "geomean of no samples");
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
