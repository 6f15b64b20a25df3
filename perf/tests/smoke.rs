//! `das_perf run --smoke`: every workload at 1/20 size, in both trace
//! modes, with every check, through the real binary.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use serde::Value;

const BIN: &str = env!("CARGO_BIN_EXE_das_perf");

fn field<'a>(object: &'a Value, key: &str) -> &'a Value {
    match object {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no `{key}` in {object:?}")),
        other => panic!("not an object: {other:?}"),
    }
}

fn keys(object: &Value) -> Vec<&str> {
    match object {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

#[test]
fn smoke_runs_every_workload_in_both_modes_and_compares_clean() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = dir.join("smoke.json");
    let start = Instant::now();
    let run = Command::new(BIN)
        .args(["run", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("das_perf runs");
    let elapsed = start.elapsed();
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(
        run.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(elapsed < Duration::from_secs(30), "smoke took {elapsed:?}");

    // The document: four workloads x two modes, all smoke, all correct.
    let text = std::fs::read_to_string(&out).unwrap();
    let set: Value = serde_json::from_str(&text).unwrap();
    let Value::Array(runs) = field(&set, "runs") else {
        panic!("`runs` is not a list");
    };
    assert_eq!(runs.len(), 8);
    for workload in ["sim_wide", "sim_backlog", "sim_faults_traced", "rt_closed"] {
        for trace in [false, true] {
            let doc = runs
                .iter()
                .find(|d| {
                    field(d, "workload") == &Value::Str(workload.into())
                        && field(d, "trace") == &Value::Bool(trace)
                })
                .unwrap_or_else(|| panic!("no run of {workload} with trace {trace}"));
            assert_eq!(field(doc, "smoke"), &Value::Bool(true));
            assert_eq!(
                field(doc, "correct"),
                &Value::Bool(true),
                "{workload}: {:?}",
                field(doc, "checks")
            );
            let Value::Array(checks) = field(doc, "checks") else {
                panic!("`checks` is not a list");
            };
            assert!(
                checks.len() >= 9,
                "{workload} ran only {} checks",
                checks.len()
            );
            let metrics = keys(field(doc, "metrics")).len();
            assert_eq!(
                metrics,
                if trace { 93 } else { 9 },
                "{workload} trace {trace}"
            );
        }
        assert!(dir.join(format!("{workload}.spans.jsonl")).is_file());
    }

    // The contract's result: the last line of standard output, one JSON
    // object with exactly these keys.
    let last: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(keys(&last), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(field(&last, "correct"), &Value::Bool(true));
    for (_, metric) in match field(&last, "metrics") {
        Value::Object(fields) => fields,
        other => panic!("{other:?}"),
    } {
        assert_eq!(keys(metric), ["value", "unit"]);
    }

    // A run compared with itself: every verdict ok, digests identical.
    let compare = Command::new(BIN)
        .arg("compare")
        .args([&out, &out])
        .output()
        .expect("das_perf runs");
    let report = String::from_utf8(compare.stdout).unwrap();
    assert!(compare.status.success(), "{report}");
    assert!(
        report.contains("identical") && report.contains("compare: ok"),
        "{report}"
    );
    assert!(
        !report.contains("worse") && !report.contains("behaviour change"),
        "{report}"
    );
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run"],
        &["compare", "only-one.json"],
        &["frobnicate"],
    ] {
        let out = Command::new(BIN)
            .args(args)
            .output()
            .expect("das_perf runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage"),
            "{args:?}"
        );
    }
}
