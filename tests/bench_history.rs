//! `BENCH_history.jsonl` is the repo's committed, append-only perf
//! trajectory (ROADMAP, "Where the trajectory lives"): one row per PR ×
//! workload × end-to-end metric, written by hand from `das_perf compare`
//! output. This keeps every row machine-readable.

use std::collections::BTreeSet;

/// The row schema, exactly.
const KEYS: [&str; 10] = [
    "pr",
    "commit",
    "workload",
    "metric",
    "parent_median",
    "change_median",
    "q1",
    "q3",
    "pairs",
    "digest_same",
];

#[test]
fn every_history_row_parses_with_exactly_the_schema_keys() {
    use serde_json::Value;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_history.jsonl");
    let text = std::fs::read_to_string(path).expect("BENCH_history.jsonl at the repo root");
    let expected: BTreeSet<&str> = KEYS.into_iter().collect();
    let is_number = |v: &Value| matches!(v, Value::U64(_) | Value::I64(_) | Value::F64(_));
    let mut rows = 0;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let row: Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("line {n}: not JSON: {e}"));
        let Value::Object(fields) = &row else {
            panic!("line {n}: not an object");
        };
        assert_eq!(fields.len(), KEYS.len(), "line {n}: repeated key");
        let keys: BTreeSet<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, expected, "line {n}");
        let field = |k: &str| row.get(k).expect("key checked above");
        assert!(matches!(field("pr"), Value::U64(_)), "line {n}: pr");
        assert!(
            matches!(field("workload"), Value::Str(_)),
            "line {n}: workload"
        );
        assert!(matches!(field("metric"), Value::Str(_)), "line {n}: metric");
        assert!(is_number(field("parent_median")), "line {n}: parent_median");
        assert!(is_number(field("change_median")), "line {n}: change_median");
        rows += 1;
    }
    assert!(rows > 0, "the history is empty");
}
