//! The benchmark's arithmetic: medians, percentiles with the
//! "ten samples beyond" rule, and the spreads the A/A check reports.
//!
//! A measured phase is a list of *segments* of equal op count. A tail
//! percentile is computed inside each segment and the median across
//! segments is reported, so one disturbed segment cannot move it.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice, which callers treat as "no such span".
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank quantile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Nearest-rank percentile of one sample set, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if samples_beyond(values.len(), q) < MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[rank(values.len(), q) - 1])
}

/// Median across segments of each segment's percentile `q`; `None` if
/// any one segment is too small to support the percentile.
pub fn percentile_median_of_segments(segments: &[Vec<f64>], q: f64) -> Option<f64> {
    let per: Option<Vec<f64>> = segments.iter().map(|s| percentile(s, q)).collect();
    per.filter(|p| !p.is_empty()).map(|p| median(&p))
}

pub fn pooled(segments: &[Vec<f64>]) -> Vec<f64> {
    segments.iter().flatten().copied().collect()
}

/// (max − min) / median: how far the segments of one run disagree.
pub fn range_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let m = median(&v);
    if v.is_empty() || m == 0.0 {
        return 0.0;
    }
    (v[v.len() - 1] - v[0]) / m
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the A/A check must compute the spread the
/// way the driver does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median (0 for one run).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some([q1, _, q3]) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, base: f64) -> Vec<f64> {
        (0..n).map(|i| base + i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_sixty_sample_segment_refuses_p95() {
        // ceil(0.95 * 60) = 57, so only 3 samples lie beyond: refused.
        assert_eq!(samples_beyond(60, 0.95), 3);
        assert_eq!(percentile(&ramp(60, 0.0), 0.95), None);
        // 200 samples leave exactly ten beyond rank 190.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(percentile(&ramp(200, 1.0), 0.95), Some(190.0));
        // One more sample short of the rule and it is refused again.
        assert_eq!(percentile(&ramp(199, 1.0), 0.95), None);
    }

    #[test]
    fn median_of_segments_ignores_one_disturbed_segment() {
        let mut segs: Vec<Vec<f64>> = (0..7).map(|_| ramp(200, 1.0)).collect();
        // One segment ten times slower: the median across segments holds.
        segs[3] = ramp(200, 1.0).iter().map(|v| v * 10.0).collect();
        assert_eq!(percentile_median_of_segments(&segs, 0.95), Some(190.0));
        // ... while the pooled tail is dragged into the slow segment.
        assert!(percentile(&pooled(&segs), 0.95).unwrap() > 190.0);
    }

    #[test]
    fn one_short_segment_refuses_the_percentile_for_the_phase() {
        let mut segs: Vec<Vec<f64>> = (0..7).map(|_| ramp(200, 1.0)).collect();
        segs[6] = ramp(60, 1.0);
        assert_eq!(percentile_median_of_segments(&segs, 0.95), None);
        assert_eq!(percentile_median_of_segments(&[], 0.95), None);
    }

    #[test]
    fn the_median_latency_is_over_the_pooled_samples() {
        let segs = vec![ramp(200, 1.0), ramp(200, 201.0)];
        assert_eq!(median(&pooled(&segs)), 200.5);
        // 400 samples 1..=400: nearest rank of p95 is 380.
        assert_eq!(percentile(&pooled(&segs), 0.95), Some(380.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let q = quartiles(&ramp(10, 1.0)).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]).unwrap(), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&ramp(10, 1.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spreads_and_means() {
        assert_eq!(range_spread(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(range_spread(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
