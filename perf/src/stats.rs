//! Order statistics for the benchmark's reports.
//!
//! Quartiles follow Python's `statistics.quantiles(xs, n=4)` (the default
//! "exclusive" method), so a spread computed here is the spread anyone
//! recomputes from the printed values. Percentiles of latency samples use
//! the nearest-rank rule of `mt_obs::HdrHistogram::quantile`.

/// `xs` sorted ascending (NaN-free input assumed: every value is a
/// measured duration or count).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (the mean of the middle pair for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// First quartile, median and third quartile by the exclusive method of
/// Python's `statistics.quantiles(xs, n=4)`. One value is its own
/// quartiles; no values give NaN.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let data = sorted(xs);
    let ld = data.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// The distance between the quartiles as a share of the median: the
/// run-to-run spread the benchmark's bounds are judged against.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(xs);
    (q3 - q1) / med
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` samples; NaN
/// when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n > 0` samples.
/// Multiplying before dividing keeps `99.9 × 10000 / 100` at exactly 9990.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64) / 100.0).ceil().clamp(1.0, n as f64) as usize
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The percentiles a report may quote, lowest first.
pub const REPORTED_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest of [`REPORTED_PERCENTILES`] that leaves at least ten of
/// `n` samples beyond it — the tail a sample of that size supports.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    REPORTED_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= 10)
}

/// Latency samples with their count, median and tail.
#[derive(Debug, Clone, Default)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    /// Wraps samples (any order), sorting them in place.
    pub fn new(mut samples: Vec<f64>) -> Latencies {
        samples.sort_by(f64::total_cmp);
        Latencies(samples)
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank percentile `p`.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.0, p)
    }

    /// Arithmetic mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // Two points extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!(quartiles(&[]).iter().all(|q| q.is_nan()));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0; 10]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    /// The serve stage quantiles come from `mt_obs::HdrHistogram`; hold it
    /// to its documented bound against the exact nearest-rank quantile of
    /// the same samples, on a latency-shaped (long-tailed) distribution.
    #[test]
    fn hdr_histogram_quantiles_within_stated_bound() {
        let mut rng = crate::gen::SplitMix64::new(0x5EED);
        let mut h = mt_obs::HdrHistogram::default();
        let mut exact = Vec::new();
        for _ in 0..50_000 {
            let base = 150 + rng.below(100);
            let tail = if rng.below(100) == 0 {
                rng.below(20_000)
            } else {
                0
            };
            h.record(base + tail);
            exact.push((base + tail) as f64);
        }
        let lat = Latencies::new(exact);
        for p in [25.0, 50.0, 90.0, 99.0] {
            let want = lat.percentile(p);
            let got = h.quantile(p).expect("non-empty") as f64;
            let rel = (got - want).abs() / want;
            assert!(
                rel <= h.relative_error_bound(),
                "p{p}: hdr {got} vs exact {want} ({rel})"
            );
        }
    }
}
