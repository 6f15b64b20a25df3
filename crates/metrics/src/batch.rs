//! Batch-means confidence intervals for steady-state simulation output.
//!
//! Raw RCT observations from one run are heavily autocorrelated (they share
//! queues), so the naive sample variance understates uncertainty. The
//! classic remedy is *batch means*: split the stream into `B` contiguous
//! batches, treat each batch's mean as one (approximately independent)
//! observation, and build the confidence interval from those.
//!
//! This implementation keeps a fixed number of batches and doubles the
//! batch size whenever they fill up, so it works for streams of unknown
//! length in O(B) memory.

use serde::{Deserialize, Serialize};

/// Number of batches kept (a standard choice: 20–40).
const BATCHES: usize = 32;

/// Streaming batch-means accumulator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchMeans {
    /// Completed batch sums (each over `batch_size` observations).
    sums: Vec<f64>,
    /// Current (incomplete) batch.
    current_sum: f64,
    current_count: u64,
    batch_size: u64,
    total_count: u64,
    total_sum: f64,
}

impl Default for BatchMeans {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchMeans {
    /// An empty accumulator.
    pub fn new() -> Self {
        BatchMeans {
            sums: Vec::with_capacity(BATCHES),
            current_sum: 0.0,
            current_count: 0,
            batch_size: 1,
            total_count: 0,
            total_sum: 0.0,
        }
    }

    /// Records one observation. Non-finite values are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.total_count += 1;
        self.total_sum += x;
        self.current_sum += x;
        self.current_count += 1;
        if self.current_count == self.batch_size {
            self.sums.push(self.current_sum);
            self.current_sum = 0.0;
            self.current_count = 0;
            if self.sums.len() == BATCHES {
                // Collapse pairs: batch size doubles, batch count halves.
                self.sums = self.sums.chunks(2).map(|pair| pair.iter().sum()).collect();
                self.batch_size *= 2;
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total_count
    }

    /// The overall mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total_count == 0 {
            0.0
        } else {
            self.total_sum / self.total_count as f64
        }
    }

    /// Number of completed batches currently held.
    pub fn batches(&self) -> usize {
        self.sums.len()
    }

    /// The half-width of the ~95 % confidence interval on the mean, or
    /// `None` with fewer than 8 completed batches (too little data for a
    /// meaningful interval).
    pub fn ci95_half_width(&self) -> Option<f64> {
        let b = self.sums.len();
        if b < 8 {
            return None;
        }
        let n = self.batch_size as f64;
        let means: Vec<f64> = self.sums.iter().map(|s| s / n).collect();
        let m = means.iter().sum::<f64>() / b as f64;
        let var = means.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (b as f64 - 1.0);
        let se = (var / b as f64).sqrt();
        Some(t_quantile_975(b - 1) * se)
    }
}

/// Accounting for engine-level batch coalescing: how many server visits
/// were merged and how much fixed per-op overhead the merging amortized
/// away.
///
/// One accumulator is filled per run; with batching off it stays all-zero
/// and serializes to the same shape, so results stay comparable across
/// configurations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchingStats {
    /// Coalesced batches formed (each occupied one worker visit).
    pub batches: u64,
    /// Ops that rode along as batch followers (excludes each batch's
    /// leader; `0` when batching never fired).
    pub batched_ops: u64,
    /// Server-seconds of fixed per-op overhead saved by amortization.
    pub overhead_saved_secs: f64,
}

impl BatchingStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one coalesced batch of `size` ops (leader included,
    /// `size >= 2`) that saved `overhead_saved_secs` of fixed overhead.
    pub fn record(&mut self, size: u32, overhead_saved_secs: f64) {
        self.batches += 1;
        self.batched_ops += u64::from(size.saturating_sub(1));
        self.overhead_saved_secs += overhead_saved_secs;
    }

    /// Mean ops per coalesced batch, leader included (0 when none formed).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.batched_ops + self.batches) as f64 / self.batches as f64
        }
    }
}

/// Two-sided 97.5 % Student-t quantile by degrees of freedom (tabulated for
/// small df, converging to the normal 1.96).
fn t_quantile_975(df: usize) -> f64 {
    const TABLE: [f64; 31] = [
        f64::INFINITY,
        12.706,
        4.303,
        3.182,
        2.776,
        2.571,
        2.447,
        2.365,
        2.306,
        2.262,
        2.228,
        2.201,
        2.179,
        2.160,
        2.145,
        2.131,
        2.120,
        2.110,
        2.101,
        2.093,
        2.086,
        2.080,
        2.074,
        2.069,
        2.064,
        2.060,
        2.056,
        2.052,
        2.048,
        2.045,
        2.042,
    ];
    if df < TABLE.len() {
        TABLE[df]
    } else {
        1.96 + 2.4 / df as f64 // smooth approach to the normal quantile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_small() {
        let mut b = BatchMeans::new();
        assert_eq!(b.mean(), 0.0);
        assert_eq!(b.ci95_half_width(), None);
        b.record(5.0);
        assert_eq!(b.mean(), 5.0);
        assert_eq!(b.count(), 1);
        assert!(b.ci95_half_width().is_none());
    }

    #[test]
    fn mean_is_exact_regardless_of_batching() {
        let mut b = BatchMeans::new();
        for i in 1..=1000 {
            b.record(i as f64);
        }
        assert!((b.mean() - 500.5).abs() < 1e-9);
        assert_eq!(b.count(), 1000);
    }

    #[test]
    fn batch_count_stays_bounded() {
        let mut b = BatchMeans::new();
        for i in 0..100_000 {
            b.record((i % 7) as f64);
        }
        assert!(b.batches() < 64, "batches = {}", b.batches());
        assert!(b.ci95_half_width().is_some());
    }

    #[test]
    fn iid_ci_covers_true_mean() {
        // Deterministic pseudo-random stream with known mean 0.5.
        let mut b = BatchMeans::new();
        let mut x = 0.123f64;
        for _ in 0..50_000 {
            x = (x + 0.618_033_988_749_895) % 1.0;
            b.record(x);
        }
        let (mean, hw) = (b.mean(), b.ci95_half_width().unwrap());
        assert!(
            (mean - 0.5).abs() <= hw.max(0.01),
            "mean {mean} +- {hw} should cover 0.5"
        );
        assert!(hw < 0.05, "half-width {hw} suspiciously wide");
    }

    #[test]
    fn correlated_stream_gets_wider_ci_than_naive() {
        // A slowly drifting series: batch means capture the drift variance.
        let mut b = BatchMeans::new();
        let n = 20_000;
        for i in 0..n {
            let drift = ((i as f64 / n as f64) * std::f64::consts::TAU).sin();
            b.record(drift);
        }
        let hw = b.ci95_half_width().unwrap();
        // Naive SE of iid samples would be ~ sigma/sqrt(n) ≈ 0.005; the
        // batched interval must be far wider.
        assert!(hw > 0.05, "hw = {hw}");
    }

    #[test]
    fn ignores_non_finite() {
        let mut b = BatchMeans::new();
        b.record(f64::NAN);
        b.record(f64::INFINITY);
        b.record(1.0);
        assert_eq!(b.count(), 1);
        assert_eq!(b.mean(), 1.0);
    }

    #[test]
    fn batching_stats_accumulate() {
        let mut b = BatchingStats::new();
        assert_eq!(b.mean_batch_size(), 0.0);
        b.record(4, 3e-6);
        b.record(2, 1e-6);
        assert_eq!(b.batches, 2);
        assert_eq!(b.batched_ops, 4);
        assert!((b.mean_batch_size() - 3.0).abs() < 1e-12);
        assert!((b.overhead_saved_secs - 4e-6).abs() < 1e-15);
        let json = serde_json::to_string(&b).unwrap();
        let back: BatchingStats = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn t_table_monotone_to_normal() {
        assert!(t_quantile_975(1) > t_quantile_975(5));
        assert!(t_quantile_975(5) > t_quantile_975(30));
        assert!((t_quantile_975(1000) - 1.96).abs() < 0.01);
    }
}
