//! Latency summaries and policy-comparison tables — the machinery behind
//! every table in EXPERIMENTS.md.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::histogram::LogHistogram;

/// A complete latency summary: exact mean/extremes plus ~1 %-error
/// quantiles, built on a [`LogHistogram`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencySummary {
    hist: LogHistogram,
}

impl Default for LatencySummary {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencySummary {
    /// An empty summary.
    pub fn new() -> Self {
        LatencySummary {
            hist: LogHistogram::new(),
        }
    }

    /// Records one latency observation (seconds).
    pub fn record(&mut self, seconds: f64) {
        self.hist.record(seconds);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Exact mean latency in seconds.
    pub fn mean(&self) -> f64 {
        self.hist.mean()
    }

    /// Median latency (~1 % error).
    pub fn p50(&self) -> f64 {
        self.hist.quantile(0.50).unwrap_or(0.0)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.hist.quantile(0.95).unwrap_or(0.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.hist.quantile(0.99).unwrap_or(0.0)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.hist.quantile(0.999).unwrap_or(0.0)
    }

    /// Arbitrary quantile, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.hist.quantile(q)
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        self.hist.max()
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &LatencySummary) {
        self.hist.merge(&other.hist);
    }

    /// The fraction of requests completing within `slo_secs` — SLO
    /// attainment.
    pub fn fraction_within(&self, slo_secs: f64) -> f64 {
        self.hist.fraction_at_or_below(slo_secs)
    }
}

/// One labelled row of a comparison table: a policy (or scenario) name and
/// its metric values in column order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Row label (e.g. policy name).
    pub label: String,
    /// One value per column.
    pub values: Vec<f64>,
}

/// A small table builder used to print the evaluation's tables in a uniform
/// Markdown format and to compute "% change vs baseline" columns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonTable {
    title: String,
    columns: Vec<String>,
    rows: Vec<Row>,
}

impl ComparisonTable {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        ComparisonTable {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row. Panics if the value count does not match the columns.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "column count mismatch");
        self.rows.push(Row {
            label: label.into(),
            values,
        });
    }

    /// The table rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The column headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Value at `(row_label, column_name)`, if present.
    pub fn value(&self, row_label: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        let row = self.rows.iter().find(|r| r.label == row_label)?;
        row.values.get(col).copied()
    }

    /// Renders the table as GitHub-flavoured Markdown with values in
    /// engineering-friendly precision.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str("| |");
        for c in &self.columns {
            out.push_str(&format!(" {c} |"));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.columns {
            out.push_str("---:|");
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("| {} |", r.label));
            for v in &r.values {
                out.push_str(&format!(" {} |", format_value(*v)));
            }
            out.push('\n');
        }
        out
    }
}

/// Formats a value with sensible precision for latencies/percentages.
fn format_value(v: f64) -> String {
    format_value_pub(v)
}

/// Crate-public value formatting shared with the ASCII renderer.
pub(crate) fn format_value_pub(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 {
        "0".into()
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else if a >= 0.001 {
        format!("{v:.5}")
    } else {
        format!("{v:.3e}")
    }
}

/// Accumulates per-key summaries (e.g. one [`LatencySummary`] per policy).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SummarySet {
    map: BTreeMap<String, LatencySummary>,
}

impl SummarySet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The summary for `key`, created on first use.
    pub fn entry(&mut self, key: &str) -> &mut LatencySummary {
        self.map.entry(key.to_string()).or_default()
    }

    /// The summary for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&LatencySummary> {
        self.map.get(key)
    }

    /// Iterates `(key, summary)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &LatencySummary)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Builds a mean/p50/p95/p99 comparison table from this set.
    pub fn to_table(&self, title: &str) -> ComparisonTable {
        let mut t = ComparisonTable::new(
            title,
            vec![
                "mean (ms)".into(),
                "p50 (ms)".into(),
                "p95 (ms)".into(),
                "p99 (ms)".into(),
            ],
        );
        for (k, s) in self.iter() {
            t.push_row(
                k,
                vec![s.mean() * 1e3, s.p50() * 1e3, s.p95() * 1e3, s.p99() * 1e3],
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let mut s = LatencySummary::new();
        for i in 1..=100 {
            s.record(i as f64 / 1000.0);
        }
        assert_eq!(s.count(), 100);
        assert!((s.mean() - 0.0505).abs() < 1e-9);
        assert!((s.p50() - 0.050).abs() / 0.050 < 0.03);
        assert!((s.p99() - 0.099).abs() / 0.099 < 0.03);
        assert!(s.p95() <= s.p99());
        assert!(s.p999() >= s.p99());
        assert!(s.max().unwrap() >= 0.0999);
    }

    #[test]
    fn slo_attainment() {
        let mut s = LatencySummary::new();
        for i in 1..=100 {
            s.record(i as f64 / 1000.0);
        }
        let f = s.fraction_within(0.050);
        assert!((f - 0.5).abs() < 0.03, "f = {f}");
        assert_eq!(s.fraction_within(10.0), 1.0);
    }

    #[test]
    fn summary_merge() {
        let mut a = LatencySummary::new();
        let mut b = LatencySummary::new();
        a.record(0.001);
        b.record(0.002);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 0.0015).abs() < 1e-12);
    }

    #[test]
    fn table_roundtrip() {
        let mut t = ComparisonTable::new("Test", vec!["mean".into(), "p99".into()]);
        t.push_row("FCFS", vec![10.0, 50.0]);
        t.push_row("DAS", vec![7.0, 30.0]);
        assert_eq!(t.value("DAS", "mean"), Some(7.0));
        assert_eq!(t.value("DAS", "nope"), None);
        assert_eq!(t.value("nope", "mean"), None);
        let md = t.to_markdown();
        assert!(md.contains("| FCFS |"));
        assert!(md.contains("### Test"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_wrong_width() {
        let mut t = ComparisonTable::new("T", vec!["a".into()]);
        t.push_row("x", vec![1.0, 2.0]);
    }

    #[test]
    fn summary_set_table() {
        let mut set = SummarySet::new();
        set.entry("FCFS").record(0.010);
        set.entry("DAS").record(0.005);
        let t = set.to_table("Policies");
        // BTreeMap => alphabetical order: DAS before FCFS.
        assert_eq!(t.rows()[0].label, "DAS");
        assert!((t.value("FCFS", "mean (ms)").unwrap() - 10.0).abs() < 1e-9);
        assert!(set.get("DAS").is_some());
        assert!(set.get("nope").is_none());
    }

    #[test]
    fn format_value_ranges() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(123.456), "123.5");
        assert_eq!(format_value(1.5), "1.500");
        assert_eq!(format_value(0.0123), "0.01230");
        assert!(format_value(1e-6).contains('e'));
    }
}
