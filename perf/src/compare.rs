//! `das_perf compare A.json B.json`: judges two run sets of the same
//! benchmark against the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;

use serde::Value;

use crate::doc::{field, Document, Metric, RunSet};

/// What `compare` concludes about one workload x metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound, and the runs resolve it.
    Worse,
    /// The pass-to-pass spread is wider than the bound and the two sides'
    /// quartile ranges overlap: neither "unchanged" nor "worse" is shown.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges a lower-is-better metric. `bound` is the share of A's median by
/// which B may be worse.
pub fn verdict(a: &Metric, b: &Metric, bound: f64) -> Verdict {
    let base = a.value.abs().max(f64::MIN_POSITIVE);
    let delta = (b.value - a.value) / base;
    let spread = |m: &Metric| (m.q3 - m.q1) / m.value.abs().max(f64::MIN_POSITIVE);
    let noisy = spread(a).max(spread(b)) > bound;
    let overlap = b.q1 <= a.q3 && a.q1 <= b.q3;
    match (delta > bound, noisy && overlap) {
        (_, true) => Verdict::Unresolved,
        (true, false) => Verdict::Worse,
        (false, false) => Verdict::Ok,
    }
}

/// `name -> bound` of every end-to-end metric in `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let root: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    let Some(Value::Array(items)) = field(&root, "end_to_end") else {
        return Err("BENCHMARK.json has no `end_to_end` list".into());
    };
    items
        .iter()
        .map(|item| {
            let name = match field(item, "name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("an end_to_end entry has no name".to_string()),
            };
            if !matches!(field(item, "better"), Some(Value::Str(s)) if s == "lower") {
                return Err(format!(
                    "`{name}` is not lower-is-better; compare assumes it is"
                ));
            }
            let bound = match field(item, "bound") {
                Some(&Value::F64(v)) => v,
                Some(&Value::U64(v)) => v as f64,
                _ => return Err(format!("`{name}` has no bound")),
            };
            Ok((name, bound))
        })
        .collect()
}

fn failed_share(d: &Document) -> f64 {
    d.failed as f64 / d.attempted.max(1) as f64
}

/// Compares two run sets. Returns the report text and whether B passes.
pub fn compare(
    a: &RunSet,
    b: &RunSet,
    bounds: &BTreeMap<String, f64>,
) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut pass = true;
    let mut matched = 0usize;
    for da in &a.runs {
        let Some(db) = b
            .runs
            .iter()
            .find(|d| d.workload == da.workload && d.trace == da.trace)
        else {
            continue;
        };
        matched += 1;
        if (da.seed, da.passes, da.smoke) != (db.seed, db.passes, db.smoke) {
            return Err(format!(
                "{}: the two documents differ in seed, pass count or smoke flag \
                 ({}/{}/{} vs {}/{}/{}); they do not measure the same thing",
                da.workload, da.seed, da.passes, da.smoke, db.seed, db.passes, db.smoke
            ));
        }
        out += &format!(
            "== {} (trace {}, seed {}, {} passes{})\n",
            da.workload,
            u8::from(da.trace),
            da.seed,
            da.passes,
            if da.smoke { ", smoke" } else { "" }
        );
        for (side, d) in [("A", da), ("B", db)] {
            if !d.correct {
                pass = false;
                out += &format!("   {side} is not correct: ");
                let failed: Vec<&str> = d
                    .checks
                    .iter()
                    .filter(|c| !c.ok)
                    .map(|c| c.name.as_str())
                    .collect();
                out += &format!("{failed:?}\n");
            }
        }
        if failed_share(db) > failed_share(da) {
            pass = false;
            out += &format!(
                "   failed share rose: {}/{} -> {}/{}\n",
                da.failed, da.attempted, db.failed, db.attempted
            );
        }
        if !da.sim_digest.is_empty() || !db.sim_digest.is_empty() {
            let same = da.sim_digest == db.sim_digest;
            out += &format!(
                "   sim_digest {} {}  {}\n",
                da.sim_digest,
                db.sim_digest,
                if same {
                    "identical"
                } else {
                    "behaviour change"
                }
            );
        }
        out += &format!(
            "   {:<38} {:>14} {:>29} {:>14} {:>29} {:>8} {:>6}  verdict\n",
            "metric", "A median", "A q1..q3", "B median", "B q1..q3", "delta %", "bound"
        );
        for (name, ma) in &da.metrics {
            let Some(mb) = db.metrics.get(name) else {
                continue;
            };
            let delta = (mb.value - ma.value) / ma.value.abs().max(f64::MIN_POSITIVE) * 100.0;
            let (bound_text, verdict_text) = match bounds.get(name).filter(|_| !da.trace) {
                Some(&bound) => {
                    let v = verdict(ma, mb, bound);
                    pass &= v != Verdict::Worse;
                    (format!("{:.0}%", bound * 100.0), v.label())
                }
                None => ("-".to_string(), "-"),
            };
            out += &format!(
                "   {:<38} {:>14.4} {:>14.4}..{:<13.4} {:>14.4} {:>14.4}..{:<13.4} {:>+8.2} {:>6}  {}\n",
                name, ma.value, ma.q1, ma.q3, mb.value, mb.q1, mb.q3, delta, bound_text, verdict_text
            );
        }
    }
    if matched == 0 {
        return Err("the two files share no workload run in the same trace mode".into());
    }
    out += if pass {
        "compare: ok\n"
    } else {
        "compare: FAILED\n"
    };
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, q1: f64, q3: f64) -> Metric {
        Metric {
            value,
            unit: "ns".into(),
            q1,
            q3,
            n: 5,
        }
    }

    #[test]
    fn verdict_table() {
        let bound = 0.05;
        let a = metric(100.0, 99.0, 101.0);
        // (B, expected)
        let table = [
            (metric(100.0, 99.0, 101.0), Verdict::Ok),     // identical
            (metric(104.0, 103.0, 105.0), Verdict::Ok),    // worse, within the bound
            (metric(90.0, 89.0, 91.0), Verdict::Ok),       // better
            (metric(106.0, 105.5, 107.0), Verdict::Worse), // beyond the bound, tight runs
            (metric(106.0, 96.0, 116.0), Verdict::Unresolved), // beyond, but B's runs straddle A
            (metric(101.0, 92.0, 110.0), Verdict::Unresolved), // within, but too noisy to say so
            (metric(80.0, 74.0, 86.0), Verdict::Ok),       // noisy, yet every run of B beats A
            (metric(130.0, 122.0, 138.0), Verdict::Worse), // noisy, yet every run of B loses
        ];
        for (b, expected) in table {
            assert_eq!(verdict(&a, &b, bound), expected, "{b:?}");
        }
        // A noisy baseline also blocks a verdict when the ranges overlap.
        let noisy_a = metric(100.0, 90.0, 110.0);
        assert_eq!(
            verdict(&noisy_a, &metric(108.0, 107.0, 109.0), bound),
            Verdict::Unresolved
        );
    }

    fn document(value: f64, failed: u64, digest: &str) -> Document {
        Document {
            workload: "sim_wide".into(),
            seed: 42,
            passes: 5,
            smoke: false,
            trace: false,
            correct: true,
            attempted: 1000,
            failed,
            sim_digest: digest.into(),
            nproc: 2,
            wall_s: 1.0,
            checks: Vec::new(),
            metrics: [(
                "ns_per_req_das".to_string(),
                metric(value, value * 0.99, value * 1.01),
            )]
            .into_iter()
            .collect(),
        }
    }

    fn set(d: Document) -> RunSet {
        RunSet { runs: vec![d] }
    }

    #[test]
    fn compare_passes_fails_and_refuses() {
        let bounds: BTreeMap<String, f64> =
            [("ns_per_req_das".to_string(), 0.05)].into_iter().collect();
        let base = set(document(100.0, 0, "aa"));

        let (text, pass) = compare(&base, &set(document(101.0, 0, "aa")), &bounds).unwrap();
        assert!(
            pass && text.contains("identical") && text.contains(" ok"),
            "{text}"
        );

        let (text, pass) = compare(&base, &set(document(120.0, 0, "bb")), &bounds).unwrap();
        assert!(
            !pass && text.contains("worse") && text.contains("behaviour change"),
            "{text}"
        );

        // More failures fail the comparison even when every metric holds.
        let (_, pass) = compare(&base, &set(document(100.0, 3, "aa")), &bounds).unwrap();
        assert!(!pass);

        let mut incorrect = document(100.0, 0, "aa");
        incorrect.correct = false;
        assert!(!compare(&base, &set(incorrect), &bounds).unwrap().1);

        for change in [
            |d: &mut Document| d.seed = 7,
            |d: &mut Document| d.passes = 3,
            |d: &mut Document| d.smoke = true,
        ] {
            let mut other = document(100.0, 0, "aa");
            change(&mut other);
            assert!(compare(&base, &set(other), &bounds).is_err());
        }

        let mut elsewhere = document(100.0, 0, "aa");
        elsewhere.workload = "rt_closed".into();
        assert!(compare(&base, &set(elsewhere), &bounds).is_err());
    }

    #[test]
    fn bounds_come_from_the_committed_benchmark_json() {
        let text = std::fs::read_to_string(crate::doc::benchmark_json_path()).unwrap();
        let bounds = bounds(&text).unwrap();
        assert_eq!(bounds.len(), 9);
        assert!(bounds.values().all(|&b| b > 0.0 && b <= 0.25));
        let largest = bounds.values().copied().fold(0.0, f64::max);
        assert_eq!(bounds["setup_s"], largest);
    }
}
