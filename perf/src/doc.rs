//! The metric registry (every name this program may emit, with its unit)
//! and the JSON document a run writes.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::{Deserialize, Serialize, Value};

use crate::stats::Summary;

/// The nine end-to-end metrics, emitted by every `--trace 0` run. All are
/// lower-is-better.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ns_per_req_fcfs", "ns"),
    ("ns_per_req_rein", "ns"),
    ("ns_per_req_das", "ns"),
    ("allocs_per_req", "count"),
    ("peak_heap_mib", "MiB"),
    ("setup_s", "s"),
    ("das_rct_mean_us", "us"),
    ("das_rct_p99_us", "us"),
    ("das_over_fcfs_rct", "ratio"),
];

/// The per-layer metrics, emitted by every `--trace 1` run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sched: micro-drivers at a held depth, then the workload's own
    // enqueue/dequeue/hint sequence replayed through fresh schedulers.
    ("sched.pair_ns.fcfs.d1", "ns"),
    ("sched.pair_ns.fcfs.d16", "ns"),
    ("sched.pair_ns.fcfs.d256", "ns"),
    ("sched.pair_ns.fcfs.d4096", "ns"),
    ("sched.pair_ns.rein.d1", "ns"),
    ("sched.pair_ns.rein.d16", "ns"),
    ("sched.pair_ns.rein.d256", "ns"),
    ("sched.pair_ns.rein.d4096", "ns"),
    ("sched.pair_ns.das.d1", "ns"),
    ("sched.pair_ns.das.d16", "ns"),
    ("sched.pair_ns.das.d256", "ns"),
    ("sched.pair_ns.das.d4096", "ns"),
    ("sched.hint_ns.das.d16", "ns"),
    ("sched.hint_ns.das.d4096", "ns"),
    ("sched.replay_ns_per_req.fcfs", "ns"),
    ("sched.replay_ns_per_req.rein", "ns"),
    ("sched.replay_ns_per_req.das", "ns"),
    ("sched.share.das", "ratio"),
    ("sched.queue_depth_mean", "count"),
    ("sched.queue_depth_p99", "count"),
    ("sched.queue_depth_peak", "count"),
    // sim
    ("sim.queue_hold_ns.n1k", "ns"),
    ("sim.queue_hold_ns.n32k", "ns"),
    ("sim.queue_hold_ns.n256k", "ns"),
    ("sim.sample_ns.exp", "ns"),
    ("sim.sample_ns.bounded_pareto", "ns"),
    ("sim.sample_ns.zipf", "ns"),
    // store: host cost of the engine, then what it modelled
    ("store.run_ns_per_event.fcfs", "ns"),
    ("store.run_ns_per_event.rein", "ns"),
    ("store.run_ns_per_event.das", "ns"),
    ("store.events_per_req.fcfs", "count"),
    ("store.events_per_req.das", "count"),
    ("store.ops_per_req", "count"),
    ("store.allocs_per_req.fcfs", "count"),
    ("store.allocs_per_req.das", "count"),
    ("store.peak_heap_mib.das", "MiB"),
    ("store.validate_us", "us"),
    ("store.partition_primary_ns.s50", "ns"),
    ("store.partition_primary_ns.s1024", "ns"),
    ("store.partition_replicas_ns.s50", "ns"),
    ("store.util_mean", "ratio"),
    ("store.util_max", "ratio"),
    ("store.lower_bound_gap_pct.das", "%"),
    ("store.rct_p50_us.das", "us"),
    ("store.rct_p999_us.das", "us"),
    ("store.das_over_rein_rct", "ratio"),
    ("store.retries_per_req", "count"),
    ("store.hedges_per_req", "count"),
    ("store.crash_drops", "count"),
    ("store.shed_frac", "ratio"),
    ("store.wasted_service_frac", "ratio"),
    // net
    ("net.delay_ns", "ns"),
    ("net.msgs_per_req.fcfs", "count"),
    ("net.msgs_per_req.das", "count"),
    ("net.hints_per_req.das", "count"),
    ("net.overhead_bytes_per_req.das", "bytes"),
    // workload + core: what set-up is made of
    ("workload.keyspace_build_ms", "ms"),
    ("workload.gen_ns_per_req", "ns"),
    ("workload.trace_write_ns_per_req", "ns"),
    ("workload.trace_read_ns_per_req", "ns"),
    ("core.resolve_ns_per_req", "ns"),
    ("core.summary_us", "us"),
    // metrics
    ("metrics.record_ns", "ns"),
    ("metrics.quantile_us", "us"),
    // trace + the vendored JSON layer
    ("trace.capture_ns_per_event", "ns"),
    ("trace.events_per_req", "count"),
    ("trace.write_jsonl_ns_per_event", "ns"),
    ("trace.read_jsonl_ns_per_event", "ns"),
    ("trace.jsonl_bytes_per_event", "bytes"),
    ("trace.write_jsonl_allocs_per_event", "count"),
    ("trace.read_jsonl_allocs_per_event", "count"),
    ("trace.critical_paths_ns_per_req", "ns"),
    ("trace.fold_ns_per_event", "ns"),
    ("trace.diff_ns_per_req", "ns"),
    ("trace.share", "ratio"),
    ("serde_json.ser_mb_per_s", "MB/s"),
    ("serde_json.de_mb_per_s", "MB/s"),
    // chaos corpus
    ("chaos.corpus_replay_ms", "ms"),
    ("chaos.corpus_worst_das_over_fcfs", "ratio"),
    // rt
    ("rt.start_ms", "ms"),
    ("rt.load_ns_per_key", "ns"),
    ("rt.store_get_ns", "ns"),
    ("rt.ops_per_multi_get", "count"),
    ("rt.multigets_per_s", "1/s"),
    ("rt.overhead_ns_per_op", "ns"),
    ("rt.rct_p50_us.das", "us"),
    ("rt.rct_p999_us.das", "us"),
    ("rt.retries", "count"),
    ("rt.server_burst_ns_per_op.fcfs.d256", "ns"),
    ("rt.server_burst_ns_per_op.das.d256", "ns"),
    // the run itself
    ("harness.trace_overhead_pct", "%"),
    ("harness.untracked_share", "ratio"),
    ("host.calib_ms", "ms"),
];

/// The registry a run in the given mode must emit, exactly.
pub fn registry(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
}

/// One pass/fail check with what it saw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Document {
    pub workload: String,
    pub seed: u64,
    /// Timed passes behind every median (fixed at 1 in a traced run).
    pub passes: u64,
    pub smoke: bool,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Hash of every policy's simulated statistics; empty on `rt_closed`.
    pub sim_digest: String,
    pub nproc: u64,
    pub wall_s: f64,
    pub checks: Vec<Check>,
    pub metrics: BTreeMap<String, Metric>,
}

/// What `--out` holds: one document per workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSet {
    pub runs: Vec<Document>,
}

/// Collects metrics and checks while a run proceeds.
pub struct Report {
    trace: bool,
    pub metrics: BTreeMap<String, Metric>,
    pub checks: Vec<Check>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            metrics: BTreeMap::new(),
            checks: Vec::new(),
        }
    }

    /// Records a metric. Panics on a name outside the registry or a
    /// duplicate: both are bugs in this program, not outcomes of a run.
    pub fn put(&mut self, name: &str, s: Summary) {
        let unit = registry(self.trace)
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"))
            .1;
        let prev = self.metrics.insert(
            name.to_string(),
            Metric {
                value: s.median,
                unit: unit.to_string(),
                q1: s.q1,
                q3: s.q3,
                n: s.n as u64,
            },
        );
        assert!(prev.is_none(), "metric `{name}` reported twice");
    }

    /// Records an exact value (a count, or a ratio of counts).
    pub fn put_exact(&mut self, name: &str, value: f64) {
        self.put(name, Summary::exact(value));
    }

    /// Records a check; a failed check makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }
}

/// Where `BENCHMARK.json` sits: beside this package's directory.
pub fn benchmark_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// The value under `key` of a JSON object.
pub fn field<'a>(object: &'a Value, key: &str) -> Option<&'a Value> {
    match object {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(benchmark: &Value, section: &str) -> Result<Vec<(String, String)>, String> {
    let Some(Value::Array(items)) = field(benchmark, section) else {
        return Err(format!("BENCHMARK.json has no `{section}` list"));
    };
    items
        .iter()
        .map(|item| match (field(item, "name"), field(item, "unit")) {
            (Some(Value::Str(name)), Some(Value::Str(unit))) => Ok((name.clone(), unit.clone())),
            _ => Err(format!("a `{section}` entry lacks name/unit")),
        })
        .collect()
}

/// Checks that the emitted metrics are exactly the ones `BENCHMARK.json`
/// declares for this mode, units included, that `workload` is declared,
/// and that every value is finite.
pub fn check_against_benchmark_json(report: &mut Report, workload: &str, text: &str) {
    let section = if report.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let parsed: Result<Value, _> = serde_json::from_str(text);
    let outcome = parsed.map_err(|e| e.to_string()).and_then(|benchmark| {
        let mut want = declared(&benchmark, section)?;
        want.sort();
        let mut got: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|(name, m)| (name.clone(), m.unit.clone()))
            .collect();
        got.sort();
        if want != got {
            let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
            let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
            return Err(format!("not emitted: {missing:?}; not declared: {extra:?}"));
        }
        let Some(Value::Array(workloads)) = field(&benchmark, "workloads") else {
            return Err("BENCHMARK.json has no `workloads` list".into());
        };
        let listed = workloads
            .iter()
            .any(|w| matches!(field(w, "name"), Some(Value::Str(n)) if n == workload));
        if !listed {
            return Err(format!("workload `{workload}` is not declared"));
        }
        Ok(got.len())
    });
    match outcome {
        Ok(n) => report.check(
            "metric names == BENCHMARK.json",
            true,
            format!("{n} {section} metrics"),
        ),
        Err(e) => report.check("metric names == BENCHMARK.json", false, e),
    }
    let bad: Vec<&String> = report
        .metrics
        .iter()
        .filter(|(_, m)| !(m.value.is_finite() && m.q1.is_finite() && m.q3.is_finite()))
        .map(|(name, _)| name)
        .collect();
    report.check(
        "every value finite",
        bad.is_empty(),
        format!("non-finite: {bad:?}"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_contract_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64, "{name}");
            assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
                "{name}"
            );
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.bytes()
                    .all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{unit}"
            );
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        assert_eq!(END_TO_END.len(), 9);
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn committed_benchmark_json_declares_exactly_the_registry() {
        let text = std::fs::read_to_string(benchmark_json_path()).expect("BENCHMARK.json");
        for trace in [false, true] {
            let mut report = Report::new(trace);
            for (name, _) in registry(trace) {
                report.put_exact(name, 1.0);
            }
            check_against_benchmark_json(&mut report, "sim_wide", &text);
            assert!(report.checks.iter().all(|c| c.ok), "{:?}", report.checks);
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_fails_the_checks() {
        let text = std::fs::read_to_string(benchmark_json_path()).expect("BENCHMARK.json");
        let mut report = Report::new(false);
        for (name, _) in &END_TO_END[1..] {
            report.put_exact(name, f64::NAN);
        }
        check_against_benchmark_json(&mut report, "sim_wide", &text);
        assert!(report.checks.iter().all(|c| !c.ok), "{:?}", report.checks);
    }
}
