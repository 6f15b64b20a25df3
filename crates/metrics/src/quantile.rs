//! The streaming quantile estimator: [`P2Quantile`] is the constant-memory
//! Jain–Chlamtac P² estimator, used when only one or two quantiles are
//! needed from a long stream.

use serde::{Deserialize, Serialize};

/// The P² streaming quantile estimator (Jain & Chlamtac, 1985): estimates a
/// single quantile with five markers and O(1) memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Increments for desired positions.
    increments: [f64; 5],
    count: usize,
    /// Initial observations collected before the marker invariant holds.
    warmup: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for the `q`-quantile, `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "q must be in (0, 1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            warmup: Vec::with_capacity(5),
        }
    }

    /// Records one value. Non-finite values are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        if self.warmup.len() < 5 {
            self.warmup.push(x);
            if self.warmup.len() == 5 {
                self.warmup.sort_by(f64::total_cmp);
                self.heights.copy_from_slice(&self.warmup);
            }
            return;
        }
        // Find the cell k such that heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            (1..5).find(|&i| x < self.heights[i]).unwrap_or(4) - 1
        };
        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(&self.increments) {
            *d += inc;
        }
        // Adjust the three interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let sign = d.signum();
                let parabolic = self.parabolic(i, sign);
                if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                    self.heights[i] = parabolic;
                } else {
                    self.heights[i] = self.linear(i, sign);
                }
                self.positions[i] += sign;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        h + d / (np - nm)
            * ((n - nm + d) * (hp - h) / (np - n) + (np - n - d) * (h - hm) / (n - nm))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current estimate, or `None` before any samples.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.warmup.len() < 5 {
            // Exact while we still hold all samples.
            let mut v = self.warmup.clone();
            v.sort_by(f64::total_cmp);
            let rank = ((self.q * v.len() as f64).ceil() as usize).max(1);
            return Some(v[rank - 1]);
        }
        Some(self.heights[2])
    }

    /// Number of recorded values.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The target quantile.
    pub fn q(&self) -> f64 {
        self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2_median_of_uniform() {
        let mut p = P2Quantile::new(0.5);
        // A deterministic low-discrepancy stream over (0, 1).
        let mut x = 0.5f64;
        for _ in 0..50_000 {
            x = (x + 0.618_033_988_749_895) % 1.0;
            p.record(x);
        }
        let est = p.estimate().unwrap();
        assert!((est - 0.5).abs() < 0.02, "est = {est}");
        assert_eq!(p.q(), 0.5);
    }

    #[test]
    fn p2_p99_of_exponential_like() {
        let mut p = P2Quantile::new(0.99);
        let mut x = 0.123f64;
        for _ in 0..100_000 {
            x = (x + 0.618_033_988_749_895) % 1.0;
            let v = -((1.0 - x).max(1e-12)).ln(); // Exp(1) via inverse CDF
            p.record(v);
        }
        let est = p.estimate().unwrap();
        let truth = 100f64.ln(); // the p99 of Exp(1)
        assert!(
            (est - truth).abs() / truth < 0.05,
            "est = {est}, truth = {truth}"
        );
    }

    #[test]
    fn p2_small_sample_is_exact() {
        let mut p = P2Quantile::new(0.5);
        p.record(3.0);
        p.record(1.0);
        p.record(2.0);
        assert_eq!(p.estimate(), Some(2.0));
        assert_eq!(p.count(), 3);
    }

    #[test]
    fn p2_empty() {
        let p = P2Quantile::new(0.9);
        assert_eq!(p.estimate(), None);
    }

    #[test]
    #[should_panic(expected = "q must be in (0, 1)")]
    fn p2_rejects_boundary_q() {
        let _ = P2Quantile::new(1.0);
    }
}
