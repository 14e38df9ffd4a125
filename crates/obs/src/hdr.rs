//! A bounded log-linear ("HDR-style") histogram over `u64` samples.
//!
//! The serve metrics previously kept every service-cycle sample in a
//! `Vec<u64>` to compute exact nearest-rank percentiles — unbounded
//! memory under sustained traffic. This histogram replaces it with a
//! **fixed** bucket array covering the whole `u64` range at a proven
//! relative-error bound, and it is *mergeable*, so per-thread recording
//! (the `mtasm client` load generator) aggregates losslessly.
//!
//! # Bucket layout
//!
//! With `b` = [`SUB_BITS`], values below `2^b` get one bucket each (exact).
//! Above that, every power-of-two octave `[2^m, 2^(m+1))` is split into
//! `2^b` equal sub-buckets of width `2^(m-b)`. The array size is
//! `(65 - b) · 2^b` buckets regardless of how many samples are recorded
//! (`b = 5` → 1920 buckets, 15 KiB).
//!
//! # Error bound
//!
//! [`HdrHistogram::quantile`] counts buckets cumulatively exactly like
//! nearest-rank counts samples, so the bucket it stops in is the bucket
//! containing the exact nearest-rank sample `x`. The returned estimate
//! is the bucket midpoint `lower + width/2`; since `x ∈ [lower,
//! lower + width)` and `width ≤ lower · 2^-b`:
//!
//! ```text
//! |estimate - x| / x  ≤  (width/2) / lower  ≤  2^-(b+1)
//! ```
//!
//! With `b = 5` the quantile estimate is within **1/64 ≈ 1.5625 %** of
//! the exact nearest-rank value (and *exact* below `2^b`).
//! `tests/properties.rs` proves this against the exact oracle on
//! adversarial distributions.

use mt_trace::Json;

/// The octave split (`2^5 = 32` sub-buckets per power of two): quantiles
/// within 2^-6 ≈ 1.6 % of exact, 15 KiB per histogram.
pub const SUB_BITS: u32 = 5;

/// A fixed-memory log-linear histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HdrHistogram {
    count: u64,
    /// Saturating sum (overflow pins to `u64::MAX` rather than wrapping).
    sum: u64,
    min: u64,
    max: u64,
    buckets: Box<[u64]>,
}

impl Default for HdrHistogram {
    fn default() -> HdrHistogram {
        HdrHistogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; (65 - SUB_BITS as usize) << SUB_BITS].into_boxed_slice(),
        }
    }
}

impl HdrHistogram {
    /// The bucket index holding `value`.
    fn index(&self, value: u64) -> usize {
        let b = SUB_BITS;
        if value >> b == 0 {
            return value as usize;
        }
        let m = 63 - value.leading_zeros();
        let octave = (m - b + 1) as usize;
        let sub = (value >> (m - b)) as usize - (1usize << b);
        (octave << b) + sub
    }

    /// Inclusive lower bound of bucket `i`.
    fn bucket_lower(&self, i: usize) -> u64 {
        let b = SUB_BITS;
        let octave = i >> b;
        if octave == 0 {
            return i as u64;
        }
        let m = octave as u32 + b - 1;
        let sub = (i & ((1 << b) - 1)) as u64;
        (1u64 << m) + (sub << (m - b))
    }

    /// Width of bucket `i` (1 in the exact range).
    fn bucket_width(&self, i: usize) -> u64 {
        let octave = i >> SUB_BITS;
        if octave == 0 {
            1
        } else {
            1u64 << (octave as u32 - 1)
        }
    }

    /// Records one sample. O(1), no allocation.
    pub fn record(&mut self, sample: u64) {
        if self.count == 0 || sample < self.min {
            self.min = sample;
        }
        self.max = self.max.max(sample);
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
        self.buckets[self.index(sample)] += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The documented relative-error bound of [`quantile`](Self::quantile)
    /// vs the exact nearest-rank value: `2^-(SUB_BITS+1)`.
    pub fn relative_error_bound(&self) -> f64 {
        1.0 / (1u64 << (SUB_BITS + 1)) as f64
    }

    /// Nearest-rank quantile estimate (`p` in `[0, 100]`); `None` when
    /// empty. Within [`relative_error_bound`](Self::relative_error_bound)
    /// of the exact nearest-rank sample, clamped to `[min, max]` so the
    /// tails never report values outside the observed range.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let estimate = self.bucket_lower(i) + self.bucket_width(i) / 2;
                return Some(estimate.clamp(self.min, self.max));
            }
        }
        unreachable!("cumulative bucket count reaches self.count");
    }

    /// Merges `other` into `self` — bucket counts add losslessly, so
    /// merge order never changes any quantile (associative and
    /// commutative; `tests/properties.rs` proves both).
    pub fn merge(&mut self, other: &HdrHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
    }

    /// Resident size of the bucket array — a constant, independent of
    /// `count` (the O(1)-memory regression test in `mt-serve` pins
    /// this).
    pub fn memory_bytes(&self) -> usize {
        self.buckets.len() * std::mem::size_of::<u64>()
    }

    /// JSON summary: count/min/max/mean plus the tail quantiles the
    /// BENCH trajectory tracks. Keys are stable for byte-diffing.
    pub fn to_json(&self) -> Json {
        let q = |p| self.quantile(p).map_or(Json::Null, Json::U64);
        Json::obj([
            ("count", Json::U64(self.count)),
            ("min", Json::U64(self.min)),
            ("max", Json::U64(self.max)),
            ("mean", Json::F64(self.mean())),
            ("p50", q(50.0)),
            ("p90", q(90.0)),
            ("p99", q(99.0)),
            ("p999", q(99.9)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank — the oracle the histogram is judged against.
    fn exact(samples: &[u64], p: f64) -> Option<u64> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    #[test]
    fn exact_below_the_linear_range() {
        let mut h = HdrHistogram::default();
        for v in 0..32u64 {
            h.record(v);
        }
        for p in [0.0, 10.0, 50.0, 90.0, 100.0] {
            assert_eq!(h.quantile(p), exact(&(0..32).collect::<Vec<_>>(), p));
        }
    }

    #[test]
    fn quantile_within_bound_on_wide_range() {
        let mut h = HdrHistogram::default();
        let samples: Vec<u64> = (0..10_000u64).map(|i| i * i + 17).collect();
        for &s in &samples {
            h.record(s);
        }
        let bound = h.relative_error_bound();
        for p in [1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let e = exact(&samples, p).unwrap();
            let got = h.quantile(p).unwrap();
            let rel = (got as f64 - e as f64).abs() / e as f64;
            assert!(rel <= bound, "p{p}: got {got}, exact {e}, rel {rel}");
        }
    }

    #[test]
    fn extremes_round_trip() {
        let mut h = HdrHistogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.quantile(0.0), Some(0));
        // The top bucket's midpoint overflows nothing and clamps to max.
        let p100 = h.quantile(100.0).unwrap();
        assert!(p100 as f64 >= u64::MAX as f64 * (1.0 - h.relative_error_bound()));
    }

    #[test]
    fn empty_histogram_is_none() {
        let h = HdrHistogram::default();
        assert_eq!(h.quantile(50.0), None);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn memory_is_constant_in_sample_count() {
        let mut h = HdrHistogram::default();
        let before = h.memory_bytes();
        for i in 0..100_000u64 {
            h.record(i * 31 % 1_000_000);
        }
        assert_eq!(h.memory_bytes(), before);
        assert_eq!(before, 1920 * 8);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (a_samples, b_samples): (Vec<u64>, Vec<u64>) = (
            (0..500).map(|i| i * 7).collect(),
            (0..300).map(|i| i * i).collect(),
        );
        let mut a = HdrHistogram::default();
        let mut b = HdrHistogram::default();
        let mut all = HdrHistogram::default();
        for &s in &a_samples {
            a.record(s);
            all.record(s);
        }
        for &s in &b_samples {
            b.record(s);
            all.record(s);
        }
        a.merge(&b);
        assert_eq!(a, all, "merge is lossless w.r.t. bucket counts");
    }

    #[test]
    fn json_summary_shape() {
        let mut h = HdrHistogram::default();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let doc = h.to_json();
        assert_eq!(doc.get("count").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("p50").unwrap().as_f64(), Some(20.0));
        assert!(mt_trace::json::validate(&doc.pretty()).is_ok());
    }
}
