//! # das-metrics — measurement substrate
//!
//! Everything the evaluation reports is computed here:
//!
//! * [`histogram`] — fixed-memory log-bucketed histograms (~1 % relative
//!   error quantiles) for latency distributions;
//! * [`quantile`] — the P² streaming quantile estimator;
//! * [`timeseries`] — fixed-bin "metric over time" series for the
//!   time-varying-load figures;
//! * [`summary`] — [`summary::LatencySummary`] and
//!   [`summary::ComparisonTable`], the uniform format every experiment
//!   prints;
//! * [`slowdown`] — per-class slowdown tracking for the fairness table;
//! * [`batch`] — batch-means confidence intervals for autocorrelated
//!   simulation output;
//! * [`recovery`] — fault-recovery accounting (goodput vs wasted work,
//!   availability, fault-exposed RCT) for the fault-injection figures;
//! * [`ascii`] — terminal sparklines, bar charts, and stacked bars.
//!
//! ```
//! use das_metrics::summary::LatencySummary;
//!
//! let mut s = LatencySummary::new();
//! s.record(0.004);
//! s.record(0.006);
//! assert_eq!(s.count(), 2);
//! assert!((s.mean() - 0.005).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Test code asserts on exact deterministic outputs and unwraps freely;
// the machine-checked rules apply to shipped library paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
#![warn(missing_debug_implementations)]

pub mod ascii;
pub mod batch;
pub mod histogram;
pub mod quantile;
pub mod recovery;
pub mod slowdown;
pub mod summary;
pub mod timeseries;

pub use batch::{BatchMeans, BatchingStats};
pub use histogram::LogHistogram;
pub use slowdown::SlowdownTracker;
pub use summary::{ComparisonTable, LatencySummary, SummarySet};
pub use timeseries::TimeSeries;
