//! Small online statistics used inside the kernel (Welford mean/variance
//! and exponentially weighted moving averages). Heavier machinery
//! (histograms, quantiles) lives in `das-metrics`.

use serde::{Deserialize, Serialize};

/// Numerically stable online mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// An exponentially weighted moving average with a fixed smoothing factor.
///
/// Used throughout the scheduler for tracking time-varying service rates and
/// queue depths (the "adaptive" part of DAS).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `0 < alpha <= 1` (larger =
    /// faster adaptation).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// Current estimate, or `None` before the first observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current estimate, or `default` before the first observation.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Forgets all history.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_batch() {
        let data = [1.0, 2.0, 3.0, 4.0, 10.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.record(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(10.0));
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn empty_stats() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_matches_sequential() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut all = OnlineStats::new();
        for i in 0..50 {
            let x = (i as f64).sin() * 10.0;
            a.record(x);
            all.record(x);
        }
        for i in 50..100 {
            let x = (i as f64).sin() * 10.0;
            b.record(x);
            all.record(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.count(), 100);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.record(5.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.2);
        assert_eq!(e.value(), None);
        assert_eq!(e.value_or(7.0), 7.0);
        for _ in 0..200 {
            e.record(10.0);
        }
        assert!((e.value().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_tracks_change() {
        let mut e = Ewma::new(0.5);
        e.record(0.0);
        e.record(10.0);
        assert_eq!(e.value(), Some(5.0));
        e.reset();
        assert_eq!(e.value(), None);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }
}
