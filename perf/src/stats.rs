//! Median and quartiles of a handful of pass samples.

/// Median, first and third quartile and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summary of a single exact value (counts, ratios of counts).
    pub fn exact(value: f64) -> Self {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// The cut point `i/4` (i = 1, 2, 3) of `sorted`, by the exclusive method
/// that Python's `statistics.quantiles(values, n=4)` uses, so this
/// program, the driver and `compare` agree on what a quartile is.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let pos = i * (len + 1);
    let j = (pos / 4).clamp(1, len - 1);
    let delta = pos as f64 / 4.0 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

/// Summarises `samples` (at least one; none may be NaN).
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quartile(&sorted, 2),
        q1: quartile(&sorted, 1),
        q3: quartile(&sorted, 3),
        n: sorted.len(),
    }
}

/// The `q`-quantile (nearest rank) of exact integer observations.
pub fn rank_quantile(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let s = summarize(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        // ten values, as the acceptance procedure uses:
        // quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // Two values: quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = summarize(&[1.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let s = summarize(&[7.25]);
        assert_eq!(s, Summary::exact(7.25));
    }

    #[test]
    fn rank_quantile_is_an_observed_value() {
        let v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 100];
        assert_eq!(rank_quantile(&v, 0.5), 5);
        assert_eq!(rank_quantile(&v, 0.99), 100);
        assert_eq!(rank_quantile(&v, 0.0), 1);
        assert_eq!(rank_quantile(&[], 0.5), 0);
    }
}
