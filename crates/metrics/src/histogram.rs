//! A log-bucketed latency histogram (HDR-histogram style).
//!
//! Values are bucketed with a bounded relative error (default ~1 %), so
//! quantile queries are cheap and the memory footprint is fixed regardless
//! of sample count. Records are plain `f64`s in whatever unit the caller
//! chooses (this workspace uses seconds).

use serde::{Deserialize, Serialize};

/// Default number of sub-buckets per power of two (~0.8 % relative error).
const DEFAULT_SUBBUCKETS: usize = 128;

/// A fixed-memory histogram with bounded relative error.
///
/// ```
/// use das_metrics::histogram::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for i in 1..=1000 {
///     h.record(i as f64);
/// }
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((p50 - 500.0).abs() / 500.0 < 0.02);
/// assert_eq!(h.count(), 1000);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogHistogram {
    /// counts[exp][sub]: values in `[2^(exp+min_exp) * (1 + sub/S), ...)`.
    counts: Vec<u64>,
    subbuckets: usize,
    /// Smallest representable exponent; values below go to bucket 0.
    min_exp: i32,
    /// Largest exponent; values above saturate into the last bucket.
    max_exp: i32,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    underflow: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// A histogram covering `[1e-9, ~1e9]` with ~1 % relative error —
    /// suitable for latencies in seconds from nanoseconds up.
    pub fn new() -> Self {
        Self::with_range(-30, 30, DEFAULT_SUBBUCKETS)
    }

    /// A histogram covering `[2^min_exp, 2^max_exp)` with `subbuckets`
    /// linear sub-buckets per power of two.
    pub fn with_range(min_exp: i32, max_exp: i32, subbuckets: usize) -> Self {
        assert!(min_exp < max_exp, "empty exponent range");
        assert!(subbuckets >= 1);
        let buckets = (max_exp - min_exp) as usize * subbuckets;
        LogHistogram {
            counts: vec![0; buckets],
            subbuckets,
            min_exp,
            max_exp,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            underflow: 0,
        }
    }

    fn bucket_index(&self, v: f64) -> Option<usize> {
        if !(v.is_finite() && v > 0.0) {
            return None;
        }
        let exp = v.log2().floor() as i32;
        if exp < self.min_exp {
            return None; // recorded as underflow
        }
        let exp = exp.min(self.max_exp - 1);
        let base = 2f64.powi(exp);
        let frac = ((v / base - 1.0) * self.subbuckets as f64) as usize;
        let frac = frac.min(self.subbuckets - 1);
        Some((exp - self.min_exp) as usize * self.subbuckets + frac)
    }

    /// The representative (upper-edge midpoint) value of a bucket.
    fn bucket_value(&self, idx: usize) -> f64 {
        let exp = self.min_exp + (idx / self.subbuckets) as i32;
        let sub = idx % self.subbuckets;
        let base = 2f64.powi(exp);
        base * (1.0 + (sub as f64 + 0.5) / self.subbuckets as f64)
    }

    /// Records one value. Non-finite and non-positive values count toward
    /// `count` but land in the underflow bucket (quantiles treat them as the
    /// smallest value).
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        match self.bucket_index(v) {
            Some(i) => self.counts[i] += 1,
            None => self.underflow += 1,
        }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum recorded value, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0 && self.min.is_finite()).then_some(self.min)
    }

    /// Exact maximum recorded value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0 && self.max.is_finite()).then_some(self.max)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) with ~1 % relative error, or `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.min().unwrap_or(0.0));
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp to the exact observed extremes so p0/p100 are tight.
                return Some(self.bucket_value(i).clamp(
                    if self.min.is_finite() { self.min } else { 0.0 },
                    if self.max.is_finite() {
                        self.max
                    } else {
                        f64::MAX
                    },
                ));
            }
        }
        self.max()
    }

    /// Merges another histogram with identical geometry into this one.
    ///
    /// # Panics
    /// Panics if the two histograms have different bucket geometry.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.subbuckets, other.subbuckets, "geometry mismatch");
        assert_eq!(self.min_exp, other.min_exp, "geometry mismatch");
        assert_eq!(self.max_exp, other.max_exp, "geometry mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.underflow += other.underflow;
    }

    /// Clears all recorded data, keeping the geometry.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        self.underflow = 0;
    }

    /// The fraction of recorded values at or below `v` (0 when empty).
    /// Underflow/invalid records count as below any positive `v`.
    pub fn fraction_at_or_below(&self, v: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut below = self.underflow;
        for (value, c) in self.nonzero_buckets() {
            if value <= v {
                below += c;
            } else {
                break;
            }
        }
        below as f64 / self.count as f64
    }

    /// Iterates over `(bucket_midpoint, count)` pairs with non-zero counts,
    /// in increasing value order. Useful for exporting CDFs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_value(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_value() {
        let mut h = LogHistogram::new();
        h.record(0.0123);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(0.0123));
        assert_eq!(h.max(), Some(0.0123));
        let q = h.quantile(0.5).unwrap();
        assert!((q - 0.0123).abs() / 0.0123 < 0.01, "q = {q}");
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = LogHistogram::new();
        // Latencies spanning five decades.
        for i in 0..100_000u64 {
            let v = 1e-6 * 1.0001f64.powi(i as i32 % 60_000);
            h.record(v);
        }
        // Compare against exact quantiles on the same data.
        let mut exact: Vec<f64> = (0..100_000u64)
            .map(|i| 1e-6 * 1.0001f64.powi(i as i32 % 60_000))
            .collect();
        exact.sort_by(f64::total_cmp);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let approx = h.quantile(q).unwrap();
            let truth = exact[((q * exact.len() as f64) as usize).min(exact.len() - 1)];
            let rel = (approx - truth).abs() / truth;
            assert!(rel < 0.02, "q={q} approx={approx} truth={truth} rel={rel}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LogHistogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.mean(), 2.5);
    }

    #[test]
    fn extreme_quantiles_clamped_to_observed() {
        let mut h = LogHistogram::new();
        h.record(5.0);
        h.record(10.0);
        assert!(h.quantile(0.0).unwrap() >= 5.0);
        assert!(h.quantile(1.0).unwrap() <= 10.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 1..=500 {
            a.record(i as f64);
        }
        for i in 501..=1000 {
            b.record(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        let p50 = a.quantile(0.5).unwrap();
        assert!((p50 - 500.0).abs() / 500.0 < 0.02, "p50 = {p50}");
        assert_eq!(a.max(), Some(1000.0));
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = LogHistogram::with_range(-10, 10, 64);
        let b = LogHistogram::with_range(-10, 10, 128);
        a.merge(&b);
    }

    #[test]
    fn underflow_and_weird_values() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(1.0);
        assert_eq!(h.count(), 4);
        // Quantile q=0.25 falls in the underflow mass -> smallest observed.
        assert!(h.quantile(0.1).is_some());
        assert!(h.quantile(1.0).unwrap() >= 1.0 * 0.99);
    }

    #[test]
    fn reset_clears() {
        let mut h = LogHistogram::new();
        h.record(1.0);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn nonzero_buckets_sorted() {
        let mut h = LogHistogram::new();
        for v in [8.0, 1.0, 64.0] {
            h.record(v);
        }
        let buckets: Vec<(f64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets.len(), 3);
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(buckets.iter().all(|&(_, c)| c == 1));
    }

    #[test]
    fn fraction_at_or_below_tracks_cdf() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(LogHistogram::new().fraction_at_or_below(1.0), 0.0);
        let f = h.fraction_at_or_below(500.0);
        assert!((f - 0.5).abs() < 0.02, "f = {f}");
        assert_eq!(h.fraction_at_or_below(0.5), 0.0);
        assert_eq!(h.fraction_at_or_below(1e9), 1.0);
    }

    #[test]
    fn saturates_above_max_exp() {
        let mut h = LogHistogram::with_range(-4, 4, 16);
        h.record(1e9); // way above 2^4
        assert_eq!(h.count(), 1);
        assert!(h.quantile(0.5).is_some());
    }
}
