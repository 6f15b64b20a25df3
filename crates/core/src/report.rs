//! Rendering experiment results into the uniform Markdown blocks used by
//! EXPERIMENTS.md and printed by every benchmark binary.

use das_metrics::summary::ComparisonTable;
use das_net::accounting::TrafficClass;
use das_trace::diff::{LadderDiff, Segment, TraceDiff};
use das_trace::telemetry::{ServerSeries, Telemetry};
use das_trace::BlameBreakdown;

use crate::experiment::ExperimentResult;

/// Renders the standard RCT table plus the context line (measured
/// requests, utilization, lower bound).
pub fn render_experiment(result: &ExperimentResult) -> String {
    let mut out = result.table().to_markdown();
    if let Some(run) = result.runs.first() {
        let ci = match run.mean_rct_ci95 {
            Some(hw) => format!("; mean RCT 95% CI +-{:.3} ms (batch means)", hw * 1e3),
            None => String::new(),
        };
        out.push_str(&format!(
            "\n_{} measured requests; mean utilization {:.2}; zero-queueing lower bound {:.3} ms{}_\n",
            run.measured,
            run.mean_utilization,
            run.lower_bound_mean_rct * 1e3,
            ci,
        ));
    }
    out
}

/// Builds the overhead table (Table 3): metadata bytes/request, hint
/// messages/request, piggyback bytes/request.
pub fn overhead_table(result: &ExperimentResult) -> ComparisonTable {
    let mut t = ComparisonTable::new(
        format!("{} — scheduling overhead", result.name),
        vec![
            "metadata B/req".into(),
            "piggyback B/req".into(),
            "hint msgs/req".into(),
            "hint B/req".into(),
            "total overhead B/req".into(),
        ],
    );
    for run in &result.runs {
        let n = run.measured.max(run.completed).max(1) as f64;
        t.push_row(
            run.policy.clone(),
            vec![
                run.traffic.bytes(TrafficClass::SchedulingMetadata) as f64 / n,
                run.traffic.bytes(TrafficClass::PiggybackReport) as f64 / n,
                run.traffic.messages(TrafficClass::ProgressHint) as f64 / n,
                run.traffic.bytes(TrafficClass::ProgressHint) as f64 / n,
                run.traffic.overhead_bytes() as f64 / n,
            ],
        );
    }
    t
}

/// Builds the fairness table (Table 4): p99.9 slowdown per fan-out class.
pub fn fairness_table(result: &ExperimentResult) -> ComparisonTable {
    let classes = result
        .runs
        .first()
        .map(|r| r.slowdown.class_count())
        .unwrap_or(0);
    let mut columns: Vec<String> = Vec::new();
    if let Some(run) = result.runs.first() {
        for c in 0..classes {
            columns.push(format!("fanout {} p999", run.slowdown.class_label(c)));
        }
    }
    columns.push("overall p999".into());
    columns.push("overall max".into());
    let mut t = ComparisonTable::new(
        format!("{} — slowdown by fan-out class", result.name),
        columns,
    );
    for run in &result.runs {
        let mut values: Vec<f64> = (0..classes)
            .map(|c| run.slowdown.class_stats(c).3)
            .collect();
        values.push(run.slowdown.overall_p999());
        values.push(run.slowdown.overall_max());
        t.push_row(run.policy.clone(), values);
    }
    t
}

/// Renders an RCT-over-time comparison (Figs. 11–12) as a Markdown table:
/// one row per time bin, one column per policy.
pub fn timeseries_table(result: &ExperimentResult, title: &str) -> Option<ComparisonTable> {
    let series: Vec<(&str, &das_metrics::timeseries::TimeSeries)> = result
        .runs
        .iter()
        .filter_map(|r| r.rct_over_time.as_ref().map(|ts| (r.policy.as_str(), ts)))
        .collect();
    if series.is_empty() {
        return None;
    }
    let bins = series.iter().map(|(_, ts)| ts.bins().len()).max()?;
    let mut t = ComparisonTable::new(
        title,
        series
            .iter()
            .map(|(p, _)| format!("{p} mean RCT (ms)"))
            .collect(),
    );
    for bin in 0..bins {
        let start = series[0].1.bin_width() * bin as f64;
        let values: Vec<f64> = series
            .iter()
            .map(|(_, ts)| ts.bins().get(bin).map(|b| b.mean() * 1e3).unwrap_or(0.0))
            .collect();
        t.push_row(format!("t={start:.2}s"), values);
    }
    Some(t)
}

/// Per-policy critical-path blame, reconstructed from each run's trace.
/// Policies whose run carried no trace (or no completed traced request)
/// are skipped; `None` when nothing was traced at all.
fn blames(result: &ExperimentResult) -> Vec<(&str, BlameBreakdown)> {
    result
        .runs
        .iter()
        .filter_map(|r| {
            let log = r.trace.as_ref()?;
            let b = BlameBreakdown::from_log(log);
            (b.requests > 0).then_some((r.policy.as_str(), b))
        })
        .collect()
}

/// Builds the RCT blame table (Table 7): mean traced RCT plus the share of
/// it each critical-path segment is responsible for, one row per policy.
///
/// Returns `None` unless at least one run was traced.
pub fn blame_table(result: &ExperimentResult) -> Option<ComparisonTable> {
    let blames = blames(result);
    if blames.is_empty() {
        return None;
    }
    let mut t = ComparisonTable::new(
        format!("{} — RCT critical-path blame", result.name),
        vec![
            "traced reqs".into(),
            "mean RCT (ms)".into(),
            "stall (%)".into(),
            "net req (%)".into(),
            "queue (%)".into(),
            "service (%)".into(),
            "net resp (%)".into(),
        ],
    );
    for (policy, b) in blames {
        let mut values = vec![b.requests as f64, b.mean_rct_secs * 1e3];
        values.extend(b.segments().iter().map(|&(_, v)| b.percent_of_rct(v)));
        t.push_row(policy, values);
    }
    Some(t)
}

/// Per-policy stacked-bar rows (label + mean per-segment milliseconds) for
/// [`das_metrics::ascii::stacked_bars`].
pub fn blame_rows(result: &ExperimentResult) -> Vec<(String, Vec<(&'static str, f64)>)> {
    blames(result)
        .into_iter()
        .map(|(policy, b)| {
            (
                policy.to_string(),
                b.segments().iter().map(|&(n, v)| (n, v * 1e3)).collect(),
            )
        })
        .collect()
}

/// Builds the blame-diff tables for a paired trace diff (`B − A`):
/// match statistics, the per-segment delta attribution (whose "mean Δ"
/// column sums to the total RCT delta row — the telescoping invariant),
/// and the dominant-segment migration matrix.
pub fn blame_diff_tables(a_name: &str, b_name: &str, d: &TraceDiff) -> Vec<ComparisonTable> {
    let mut tables = Vec::new();

    let mut stats = ComparisonTable::new(
        format!("blame diff {a_name} → {b_name} — matched requests"),
        vec![
            "matched".into(),
            format!("only {a_name}"),
            format!("only {b_name}"),
            "moved server".into(),
            "moved bottleneck".into(),
        ],
    );
    stats.push_row(
        "requests",
        vec![
            d.matched as f64,
            d.only_a as f64,
            d.only_b as f64,
            d.moved_server as f64,
            d.moved_segment as f64,
        ],
    );
    tables.push(stats);

    let mut seg = ComparisonTable::new(
        format!("blame diff {a_name} → {b_name} — per-segment RCT delta"),
        vec![
            format!("{a_name} mean (ms)"),
            format!("{b_name} mean (ms)"),
            "mean Δ (ms)".into(),
            format!("Δ vs {a_name} seg (%)"),
            "share of total Δ (%)".into(),
            "p99 Δ (ms)".into(),
        ],
    );
    let total_delta = d.mean_rct_delta_secs();
    for s in Segment::ALL {
        let (a, b) = (d.mean_a_secs(s), d.mean_b_secs(s));
        let delta = d.mean_delta_secs(s);
        seg.push_row(
            s.label(),
            vec![
                a * 1e3,
                b * 1e3,
                delta * 1e3,
                if a > 0.0 { delta / a * 100.0 } else { 0.0 },
                if total_delta != 0.0 {
                    delta / total_delta * 100.0
                } else {
                    0.0
                },
                d.p99_delta_secs(s) * 1e3,
            ],
        );
    }
    seg.push_row(
        "total RCT",
        vec![
            d.mean_rct_a_secs() * 1e3,
            d.mean_rct_b_secs() * 1e3,
            total_delta * 1e3,
            if d.mean_rct_a_secs() > 0.0 {
                total_delta / d.mean_rct_a_secs() * 100.0
            } else {
                0.0
            },
            100.0,
            d.p99_rct_delta_secs() * 1e3,
        ],
    );
    tables.push(seg);

    let mut mig = ComparisonTable::new(
        format!("blame diff {a_name} → {b_name} — dominant-segment migration (rows: {a_name}, cols: {b_name})"),
        Segment::ALL.iter().map(|s| s.label().to_string()).collect(),
    );
    for from in Segment::ALL {
        mig.push_row(
            from.label(),
            Segment::ALL
                .iter()
                .map(|to| d.migration[from.index()][to.index()] as f64)
                .collect(),
        );
    }
    tables.push(mig);

    tables
}

/// Per-segment mean-delta rows (label + signed milliseconds) for
/// [`das_metrics::ascii::diverging_bars`].
pub fn blame_diff_delta_rows(d: &TraceDiff) -> Vec<(String, f64)> {
    Segment::ALL
        .iter()
        .map(|&s| (s.label().to_string(), d.mean_delta_secs(s) * 1e3))
        .collect()
}

/// The diverging bar chart of `d`'s per-segment mean deltas (`B − A`, ms)
/// and, labelled `dominant`, the segment that improved most: what
/// [`render_blame_diff`], [`render_ladder`] and Tables 8–9 print after
/// their tables. Empty when no segment moved.
pub fn delta_chart(a_name: &str, b_name: &str, d: &TraceDiff, dominant: &str) -> String {
    let mut out = String::new();
    if let Some(chart) = das_metrics::ascii::diverging_bars(&blame_diff_delta_rows(d), 30) {
        out.push_str(&format!("mean Δ per segment, ms ({b_name} − {a_name}):\n"));
        out.push_str(&chart);
    }
    if let Some(s) = d.dominant_negative_segment() {
        out.push_str(&format!(
            "\n{dominant}: {} ({:+.3} ms mean)",
            s.label(),
            d.mean_delta_secs(s) * 1e3
        ));
    }
    out
}

/// `tables` as Markdown, then `chart`, ending in a newline.
fn render_report(tables: Vec<ComparisonTable>, chart: String) -> String {
    let mut out = String::new();
    for t in tables {
        out.push_str(&t.to_markdown());
        out.push('\n');
    }
    out.push_str(&chart);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// Renders a complete blame-diff report: the three tables plus the
/// diverging delta-bar chart, as printed by `das_experiment blame-diff`.
pub fn render_blame_diff(a_name: &str, b_name: &str, d: &TraceDiff) -> String {
    let chart = delta_chart(a_name, b_name, d, "dominant improvement");
    render_report(blame_diff_tables(a_name, b_name, d), chart)
}

/// Tables for an N-way policy ladder: the per-rung segment means, the
/// per-step mean deltas (whose columns telescope exactly to the
/// end-to-end column), and the per-server drill-down grouped by the
/// baseline's completing server. `names` labels the rungs, baseline
/// first, and must have one entry per rung.
pub fn ladder_tables(names: &[String], l: &LadderDiff) -> Vec<ComparisonTable> {
    let rungs = l.steps.len() + 1;
    assert_eq!(names.len(), rungs, "one name per rung");
    let mut tables = Vec::new();

    // Rung r's mean segments: step r-1's B side (rung 0 = step 0's A side).
    let rung_mean = |r: usize, s: Segment| {
        if r == 0 {
            l.steps[0].mean_a_secs(s)
        } else {
            l.steps[r - 1].mean_b_secs(s)
        }
    };
    let rung_rct = |r: usize| {
        if r == 0 {
            l.steps[0].mean_rct_a_secs()
        } else {
            l.steps[r - 1].mean_rct_b_secs()
        }
    };

    let mut means = ComparisonTable::new(
        format!("policy ladder — per-rung segment means (ms, {} matched)", l.matched),
        names.iter().map(|n| format!("{n} (ms)")).collect(),
    );
    for s in Segment::ALL {
        means.push_row(s.label(), (0..rungs).map(|r| rung_mean(r, s) * 1e3).collect());
    }
    means.push_row("total RCT", (0..rungs).map(|r| rung_rct(r) * 1e3).collect());
    tables.push(means);

    let mut step_cols: Vec<String> = (0..l.steps.len())
        .map(|i| format!("{} → {} (ms)", names[i], names[i + 1]))
        .collect();
    step_cols.push("end-to-end (ms)".into());
    let mut deltas = ComparisonTable::new(
        "policy ladder — mean Δ per step (columns telescope exactly to end-to-end)",
        step_cols,
    );
    for s in Segment::ALL {
        let mut row: Vec<f64> = l.steps.iter().map(|d| d.mean_delta_secs(s) * 1e3).collect();
        row.push(l.end_to_end.mean_delta_secs(s) * 1e3);
        deltas.push_row(s.label(), row);
    }
    let mut row: Vec<f64> = l.steps.iter().map(|d| d.mean_rct_delta_secs() * 1e3).collect();
    row.push(l.end_to_end.mean_rct_delta_secs() * 1e3);
    deltas.push_row("total RCT", row);
    tables.push(deltas);

    let mut reorder = ComparisonTable::new(
        "policy ladder — matched-request movement per step",
        (0..l.steps.len())
            .map(|i| format!("{} → {}", names[i], names[i + 1]))
            .collect(),
    );
    reorder.push_row(
        "moved server",
        l.steps.iter().map(|d| d.moved_server as f64).collect(),
    );
    reorder.push_row(
        "moved bottleneck",
        l.steps.iter().map(|d| d.moved_segment as f64).collect(),
    );
    tables.push(reorder);

    let mut servers = ComparisonTable::new(
        "policy ladder — per-server mean RCT by rung (grouped by baseline server)",
        names.iter().map(|n| format!("{n} (ms)")).collect(),
    );
    for row in &l.servers {
        servers.push_row(
            format!("server {} ({} req)", row.server, row.matched),
            row.sum_rct_ns
                .iter()
                .map(|&ns| ns as f64 * 1e-6 / row.matched as f64)
                .collect(),
        );
    }
    tables.push(servers);

    let mut queues = ComparisonTable::new(
        "policy ladder — per-server mean queue wait by rung (grouped by baseline server)",
        names.iter().map(|n| format!("{n} (ms)")).collect(),
    );
    for row in &l.servers {
        queues.push_row(
            format!("server {} ({} req)", row.server, row.matched),
            row.sum_ns
                .iter()
                .map(|s| s[Segment::Queue.index()] as f64 * 1e-6 / row.matched as f64)
                .collect(),
        );
    }
    tables.push(queues);

    tables
}

/// Renders a complete ladder report: the tables plus a diverging bar
/// chart of the end-to-end per-segment deltas, as printed by
/// `das_experiment blame-diff` with three or more traces.
pub fn render_ladder(names: &[String], l: &LadderDiff) -> String {
    let dominant = "dominant end-to-end improvement";
    let chart = delta_chart(&names[0], &names[names.len() - 1], &l.end_to_end, dominant);
    render_report(ladder_tables(names, l), chart)
}

/// The cross-scenario summary table of the regression corpus (Table 10):
/// one row per scenario's paired blame diff (`B − A`, conventionally
/// FCFS → DAS), with the total mean-RCT delta and its exact per-segment
/// attribution — the five Δ columns sum to the total Δ column per row,
/// the telescoping invariant applied corpus-wide.
pub fn corpus_diff_table(
    a_name: &str,
    b_name: &str,
    rows: &[(String, TraceDiff)],
) -> ComparisonTable {
    let mut cols = vec![
        "matched".into(),
        format!("{a_name} mean (ms)"),
        format!("{b_name} mean (ms)"),
        "Δ total (ms)".into(),
    ];
    cols.extend(Segment::ALL.iter().map(|s| format!("Δ {} (ms)", s.label())));
    let mut t = ComparisonTable::new(
        format!("scenario corpus — blame diff {a_name} → {b_name} per scenario"),
        cols,
    );
    for (title, d) in rows {
        let mut vals = vec![
            d.matched as f64,
            d.mean_rct_a_secs() * 1e3,
            d.mean_rct_b_secs() * 1e3,
            d.mean_rct_delta_secs() * 1e3,
        ];
        vals.extend(Segment::ALL.iter().map(|&s| d.mean_delta_secs(s) * 1e3));
        t.push_row(title.clone(), vals);
    }
    t
}

/// The per-server telemetry table behind `das_experiment top`: one row
/// per server, sorted by busy occupancy (descending; ties by server id),
/// with the epoch-count totals alongside.
pub fn telemetry_table(t: &Telemetry) -> ComparisonTable {
    let mut table = ComparisonTable::new(
        format!(
            "per-server telemetry — {} epochs × {} ms",
            t.epochs,
            t.epoch_ns as f64 / 1e6
        ),
        vec![
            "busy (%)".into(),
            "mean depth".into(),
            "peak depth".into(),
            "peak demand (ms)".into(),
            "enq".into(),
            "done".into(),
            "reorders".into(),
            "sheds".into(),
            "retries".into(),
            "hedges".into(),
            "batched".into(),
            "hints".into(),
        ],
    );
    let mut order: Vec<&ServerSeries> = t.servers.values().collect();
    order.sort_by(|a, b| {
        b.total_busy_ns()
            .cmp(&a.total_busy_ns())
            .then(a.server.cmp(&b.server))
    });
    for s in order {
        table.push_row(
            format!("server {}", s.server),
            vec![
                t.busy_fraction(s) * 100.0,
                t.mean_queue_len(s),
                s.peak_queue_len() as f64,
                s.peak_demand_ns() as f64 / 1e6,
                ServerSeries::total(&s.enqueues) as f64,
                ServerSeries::total(&s.completions) as f64,
                ServerSeries::total(&s.reorders) as f64,
                ServerSeries::total(&s.sheds) as f64,
                ServerSeries::total(&s.retries) as f64,
                ServerSeries::total(&s.hedges) as f64,
                ServerSeries::total(&s.batched_ops) as f64,
                ServerSeries::total(&s.hints) as f64,
            ],
        );
    }
    table
}

/// Renders the `das_experiment top` report: the per-server table plus a
/// busy-occupancy sparkline panel (one line per server, time left to
/// right).
pub fn render_top(t: &Telemetry) -> String {
    let mut out = telemetry_table(t).to_markdown();
    let series: Vec<(String, Vec<f64>)> = t
        .servers
        .values()
        .map(|s| (format!("server {}", s.server), t.busy_series(s)))
        .collect();
    if !series.is_empty() {
        let panel: Vec<(&str, Vec<f64>)> = series
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        out.push_str("\nbusy occupancy over time (one epoch per column):\n");
        out.push_str(&das_metrics::ascii::sparkline_panel(&panel));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use das_sched::policy::PolicyKind;
    use das_store::config::ClusterConfig;
    use das_workload::generator::WorkloadSpec;
    use das_workload::spec::{ArrivalConfig, FanoutConfig, PopularityConfig, SizeConfig};

    fn tiny_result(timeseries: bool) -> ExperimentResult {
        let cluster = ClusterConfig {
            servers: 4,
            ..Default::default()
        };
        let workload = WorkloadSpec {
            n_keys: 1000,
            arrival: ArrivalConfig::Poisson { rate: 500.0 },
            fanout: FanoutConfig::Uniform { min: 1, max: 4 },
            sizes: SizeConfig::Fixed { bytes: 10_000 },
            popularity: PopularityConfig::Uniform,
            hot_key_size_cap: None,
            write_fraction: 0.0,
        };
        let mut e = ExperimentConfig::new("tiny", workload, cluster);
        e.horizon_secs = 0.5;
        e.warmup_secs = 0.0;
        e.policies = vec![PolicyKind::Fcfs, PolicyKind::das()];
        if timeseries {
            e.rct_timeseries_bin_secs = Some(0.1);
        }
        e.run().unwrap()
    }

    fn traced_result() -> ExperimentResult {
        let cluster = ClusterConfig {
            servers: 4,
            ..Default::default()
        };
        let workload = WorkloadSpec {
            n_keys: 1000,
            arrival: ArrivalConfig::Poisson { rate: 500.0 },
            fanout: FanoutConfig::Uniform { min: 1, max: 4 },
            sizes: SizeConfig::Fixed { bytes: 10_000 },
            popularity: PopularityConfig::Uniform,
            hot_key_size_cap: None,
            write_fraction: 0.0,
        };
        let mut e = ExperimentConfig::new("traced", workload, cluster);
        e.horizon_secs = 0.5;
        e.warmup_secs = 0.0;
        e.policies = vec![PolicyKind::Fcfs, PolicyKind::das()];
        e.trace = das_trace::TraceConfig::enabled();
        e.run().unwrap()
    }

    #[test]
    fn blame_table_needs_a_trace() {
        assert!(blame_table(&tiny_result(false)).is_none());
        assert!(blame_rows(&tiny_result(false)).is_empty());
        let r = traced_result();
        let t = blame_table(&r).unwrap();
        assert_eq!(t.rows().len(), 2);
        // The five segment percentages account for the whole RCT.
        for policy in ["FCFS", "DAS"] {
            let total: f64 = ["stall (%)", "net req (%)", "queue (%)", "service (%)", "net resp (%)"]
                .iter()
                .map(|c| t.value(policy, c).unwrap())
                .sum();
            assert!((total - 100.0).abs() < 1e-6, "{policy}: {total}");
        }
        let rows = blame_rows(&r);
        assert_eq!(rows.len(), 2);
        assert!(das_metrics::ascii::stacked_bars(&rows, 40).is_some());
    }

    #[test]
    fn blame_diff_report_telescopes_and_renders() {
        let r = traced_result();
        let log_a = r.run("FCFS").unwrap().trace.as_ref().unwrap();
        let log_b = r.run("DAS").unwrap().trace.as_ref().unwrap();
        let d = das_trace::diff_traces(log_a, log_b).unwrap();
        assert!(d.matched > 0);

        let tables = blame_diff_tables("FCFS", "DAS", &d);
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].value("requests", "matched"), Some(d.matched as f64));
        // The per-segment mean Δ column sums to the total-RCT Δ row.
        let seg = &tables[1];
        let total: f64 = ["stall", "net req", "queue", "service", "net resp"]
            .iter()
            .map(|l| seg.value(l, "mean Δ (ms)").unwrap())
            .sum();
        let rct = seg.value("total RCT", "mean Δ (ms)").unwrap();
        assert!((total - rct).abs() < 1e-9, "{total} vs {rct}");
        // Migration matrix counts every matched request exactly once.
        let mig_total: f64 = tables[2].rows().iter().flat_map(|r| r.values.iter()).sum();
        assert_eq!(mig_total, d.matched as f64);

        let md = render_blame_diff("FCFS", "DAS", &d);
        assert!(md.contains("matched requests"));
        assert!(md.contains("per-segment RCT delta"));
        assert!(md.contains("migration"));
        assert!(das_metrics::ascii::diverging_bars(&blame_diff_delta_rows(&d), 30).is_some());
    }

    #[test]
    fn corpus_table_telescopes_per_row() {
        let r = traced_result();
        let log_a = r.run("FCFS").unwrap().trace.as_ref().unwrap();
        let log_b = r.run("DAS").unwrap().trace.as_ref().unwrap();
        let d = das_trace::diff_traces(log_a, log_b).unwrap();
        let rows = vec![("tiny scenario".to_string(), d)];

        let t = corpus_diff_table("FCFS", "DAS", &rows);
        assert_eq!(t.rows().len(), 1);
        let label = "tiny scenario";
        assert_eq!(t.value(label, "matched"), Some(rows[0].1.matched as f64));
        // The five Δ segment columns sum exactly to the Δ total column.
        let seg_sum: f64 = ["stall", "net req", "queue", "service", "net resp"]
            .iter()
            .map(|s| t.value(label, &format!("Δ {s} (ms)")).unwrap())
            .sum();
        let total = t.value(label, "Δ total (ms)").unwrap();
        assert!((seg_sum - total).abs() < 1e-9, "{seg_sum} vs {total}");
    }

    fn traced_ladder_result() -> ExperimentResult {
        let cluster = ClusterConfig {
            servers: 4,
            ..Default::default()
        };
        let workload = WorkloadSpec {
            n_keys: 1000,
            arrival: ArrivalConfig::Poisson { rate: 500.0 },
            fanout: FanoutConfig::Uniform { min: 1, max: 4 },
            sizes: SizeConfig::Fixed { bytes: 10_000 },
            popularity: PopularityConfig::Uniform,
            hot_key_size_cap: None,
            write_fraction: 0.0,
        };
        let mut e = ExperimentConfig::new("ladder", workload, cluster);
        e.horizon_secs = 0.5;
        e.warmup_secs = 0.0;
        e.policies = vec![PolicyKind::Fcfs, PolicyKind::ReinSbf, PolicyKind::das()];
        e.trace = das_trace::TraceConfig::enabled();
        e.run().unwrap()
    }

    #[test]
    fn ladder_report_telescopes_and_renders() {
        let r = traced_ladder_result();
        let logs: Vec<&das_trace::TraceLog> =
            r.runs.iter().map(|run| run.trace.as_ref().unwrap()).collect();
        let l = das_trace::ladder_diff(&logs).unwrap();
        assert!(l.matched > 0);
        let names: Vec<String> = ["FCFS", "Rein-SBF", "DAS"]
            .iter()
            .map(|s| s.to_string())
            .collect();

        let tables = ladder_tables(&names, &l);
        assert_eq!(tables.len(), 5);
        // Table 1: per-step mean Δ columns telescope to the end-to-end
        // column, segment row by segment row.
        let step = &tables[1];
        for label in ["stall", "net req", "queue", "service", "net resp", "total RCT"] {
            let steps_sum: f64 = step
                .columns()
                .iter()
                .filter(|c| c.contains('→'))
                .map(|c| step.value(label, c).unwrap())
                .sum();
            let end = step.value(label, "end-to-end (ms)").unwrap();
            assert!((steps_sum - end).abs() < 1e-9, "{label}: {steps_sum} vs {end}");
        }
        // The per-server tables carry one column per rung and group every
        // matched request exactly once.
        assert_eq!(tables[3].columns().len(), names.len());
        let grouped: u64 = l.servers.iter().map(|s| s.matched).sum();
        assert_eq!(grouped, l.matched);

        let md = render_ladder(&names, &l);
        for n in &names {
            assert!(md.contains(n.as_str()), "missing rung {n}");
        }
        assert!(md.contains("telescope"));
    }

    #[test]
    fn telemetry_report_covers_every_discovered_server() {
        let r = traced_ladder_result();
        let log = r.runs.last().unwrap().trace.as_ref().unwrap();
        let t = das_trace::telemetry::fold(log, &das_trace::TelemetryConfig::default());
        assert!(!t.servers.is_empty());

        let table = telemetry_table(&t);
        assert_eq!(table.rows().len(), t.servers.len());
        assert!(table.columns().iter().any(|c| c == "busy (%)"));
        for s in t.servers.values() {
            let label = format!("server {}", s.server);
            let busy = table.value(&label, "busy (%)").unwrap();
            assert!((0.0..=100.0).contains(&busy), "{label}: busy {busy}");
        }

        let md = render_top(&t);
        assert!(md.contains("per-server telemetry"));
        assert!(md.contains("one epoch per column"));
    }

    #[test]
    fn render_contains_policies_and_context() {
        let r = tiny_result(false);
        let md = render_experiment(&r);
        assert!(md.contains("FCFS"));
        assert!(md.contains("DAS"));
        assert!(md.contains("lower bound"));
    }

    #[test]
    fn overhead_table_has_das_overhead() {
        let r = tiny_result(false);
        let t = overhead_table(&r);
        assert_eq!(t.value("FCFS", "total overhead B/req"), Some(0.0));
        assert!(t.value("DAS", "metadata B/req").unwrap() > 0.0);
    }

    #[test]
    fn fairness_table_shape() {
        let r = tiny_result(false);
        let t = fairness_table(&r);
        assert_eq!(t.rows().len(), 2);
        assert!(t.columns().iter().any(|c| c.contains("overall p999")));
    }

    #[test]
    fn timeseries_table_present_only_when_recorded() {
        assert!(timeseries_table(&tiny_result(false), "x").is_none());
        let t = timeseries_table(&tiny_result(true), "spike").unwrap();
        assert!(!t.rows().is_empty());
        assert_eq!(t.columns().len(), 2);
    }
}
