//! Fixed-width-bin time series for "metric over time" figures (e.g. RCT
//! during a load spike).

use serde::{Deserialize, Serialize};

/// Accumulates `(time, value)` observations into fixed-width bins and
/// reports the per-bin mean, count, and max.
///
/// ```
/// use das_metrics::timeseries::TimeSeries;
///
/// let mut ts = TimeSeries::new(1.0); // 1-second bins
/// ts.record(0.2, 10.0);
/// ts.record(0.7, 20.0);
/// ts.record(1.5, 100.0);
/// let bins = ts.bins();
/// assert_eq!(bins.len(), 2);
/// assert_eq!(bins[0].mean(), 15.0);
/// assert_eq!(bins[1].mean(), 100.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    bin_width: f64,
    bins: Vec<Bin>,
}

/// One aggregation bin of a [`TimeSeries`].
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Bin {
    /// Start of the bin (inclusive), in the same unit as the record times.
    pub start: f64,
    /// Number of observations in the bin.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Largest observed value (`0` when empty).
    pub max: f64,
}

impl Bin {
    /// Mean of the bin's observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl TimeSeries {
    /// Creates a series with the given bin width (must be positive).
    pub fn new(bin_width: f64) -> Self {
        assert!(bin_width.is_finite() && bin_width > 0.0);
        TimeSeries {
            bin_width,
            bins: Vec::new(),
        }
    }

    /// Records `value` observed at `time` (non-negative).
    pub fn record(&mut self, time: f64, value: f64) {
        if !time.is_finite() || time < 0.0 || !value.is_finite() {
            return;
        }
        let idx = (time / self.bin_width) as usize;
        if idx >= self.bins.len() {
            let old_len = self.bins.len();
            self.bins.resize(idx + 1, Bin::default());
            for (i, b) in self.bins.iter_mut().enumerate().skip(old_len) {
                b.start = i as f64 * self.bin_width;
            }
        }
        let b = &mut self.bins[idx];
        b.count += 1;
        b.sum += value;
        b.max = b.max.max(value);
    }

    /// All bins from time zero through the latest observation (bins with no
    /// observations have `count == 0`).
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// The bin width.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_accumulate() {
        let mut ts = TimeSeries::new(0.5);
        ts.record(0.1, 1.0);
        ts.record(0.4, 3.0);
        ts.record(0.6, 10.0);
        let bins = ts.bins();
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0].count, 2);
        assert_eq!(bins[0].mean(), 2.0);
        assert_eq!(bins[0].max, 3.0);
        assert_eq!(bins[1].mean(), 10.0);
        assert_eq!(bins[0].start, 0.0);
        assert_eq!(bins[1].start, 0.5);
    }

    #[test]
    fn gaps_are_empty_bins() {
        let mut ts = TimeSeries::new(1.0);
        ts.record(0.5, 1.0);
        ts.record(3.5, 2.0);
        assert_eq!(ts.bins().len(), 4);
        assert_eq!(ts.bins()[1].count, 0);
        assert_eq!(ts.bins()[2].count, 0);
        assert_eq!((ts.bins()[0].mean(), ts.bins()[3].mean()), (1.0, 2.0));
    }

    #[test]
    fn ignores_invalid_inputs() {
        let mut ts = TimeSeries::new(1.0);
        ts.record(-1.0, 5.0);
        ts.record(f64::NAN, 5.0);
        ts.record(1.0, f64::INFINITY);
        assert!(ts.bins().is_empty() || ts.bins().iter().all(|b| b.count == 0));
    }

    #[test]
    fn empty_bin_mean_is_zero() {
        // Pins the count == 0 guard: an empty bin must report 0, not NaN.
        assert_eq!(Bin::default().mean(), 0.0);
        let b = Bin {
            start: 1.0,
            count: 0,
            sum: 0.0,
            max: 0.0,
        };
        assert!(!b.mean().is_nan());
        assert_eq!(b.mean(), 0.0);
    }
}
