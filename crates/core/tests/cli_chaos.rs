//! CLI smoke tests for the chaos-search surface of `das_experiment`:
//! `chaos` byte-determinism, replayable artifact output, the
//! `replay --faults/--overload` overrides, and `chaos-verify` verdicts —
//! plus the typed rejection of an invalid config (policy, workload,
//! network, partitioner, time-series bin) by every config-reading
//! subcommand.

// Integration tests unwrap freely: a panic is the failure report.
#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use das_chaos::{Reproducer, SearchSpace};
use das_core::chaos::write_artifacts;
use das_sim::rng::SeedFactory;

fn das_experiment(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_das_experiment"))
        .args(args)
        .output()
        .expect("spawn das_experiment")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch dir under the target-adjacent temp root, cleaned on entry.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("das_cli_chaos").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An artifact set for a synthetic reproducer (the verdict fields are
/// placeholders; these tests replay the config, they don't verify it).
fn write_sample_artifacts(dir: &Path) -> das_core::chaos::ArtifactPaths {
    let case = SearchSpace::default()
        .generate(&SeedFactory::new(77), 0)
        .unwrap();
    let r = Reproducer {
        slug: "case0000_smoke".into(),
        oracle: "das-regression".into(),
        policy: "pair".into(),
        detail: "smoke".into(),
        measure: 1.0,
        case,
    };
    write_artifacts(&r, dir).unwrap()
}

#[test]
fn chaos_search_is_byte_deterministic_across_invocations() {
    // The acceptance criterion from the issue: `das_experiment chaos
    // --seed S --budget N` produces identical findings byte-for-byte on
    // every invocation.
    let dir_a = scratch("det-a");
    let dir_b = scratch("det-b");
    for dir in [&dir_a, &dir_b] {
        let out = das_experiment(&[
            "chaos",
            "--seed",
            "3",
            "--budget",
            "2",
            "--shrink-budget",
            "10",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "chaos failed: {}", stderr(&out));
        assert!(
            stdout(&out).contains("# Chaos search report"),
            "{}",
            stdout(&out)
        );
    }
    let report_a = std::fs::read(dir_a.join("chaos_report.json")).unwrap();
    let report_b = std::fs::read(dir_b.join("chaos_report.json")).unwrap();
    assert!(!report_a.is_empty());
    assert_eq!(report_a, report_b, "chaos_report.json must be byte-stable");
    let md_a = std::fs::read(dir_a.join("chaos_report.md")).unwrap();
    let md_b = std::fs::read(dir_b.join("chaos_report.md")).unwrap();
    assert_eq!(md_a, md_b);
}

#[test]
fn chaos_rejects_bad_arguments() {
    let out = das_experiment(&["chaos", "--budget", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--budget"), "{}", stderr(&out));
    let out = das_experiment(&["chaos", "--oracles", "no-such-oracle"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("no-such-oracle"), "{}", stderr(&out));
    // The search space is not an input: the default one is always searched.
    for flag in ["--frobnicate", "--space"] {
        let out = das_experiment(&["chaos", flag, "space.json"]);
        assert!(!out.status.success());
        let err = stderr(&out);
        assert!(err.contains("unexpected argument"), "{err}");
    }
}

#[test]
fn replay_accepts_fault_and_overload_overrides() {
    let dir = scratch("replay-overrides");
    let paths = write_sample_artifacts(&dir);

    // Replaying the reproducer's config + workload is the documented
    // round-trip for a committed artifact.
    let out = das_experiment(&[
        "replay",
        paths.config.to_str().unwrap(),
        paths.workload.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "replay failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("FCFS") && text.contains("DAS"), "{text}");

    // The same replay with the fault and overload profiles grafted from
    // their split-out files must also run (identical composition here).
    let out = das_experiment(&[
        "replay",
        paths.config.to_str().unwrap(),
        paths.workload.to_str().unwrap(),
        "--faults",
        paths.faults.to_str().unwrap(),
        "--overload",
        paths.overload.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "override replay failed: {}", stderr(&out));
    assert!(stdout(&out).contains("FCFS"), "{}", stdout(&out));

    // A missing override file is a load error, not a silent default.
    let out = das_experiment(&[
        "replay",
        paths.config.to_str().unwrap(),
        paths.workload.to_str().unwrap(),
        "--faults",
        dir.join("nope.json").to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("nope.json"), "{}", stderr(&out));

    // An override that breaks a config invariant (loss without retries)
    // is rejected by validation before any simulation runs.
    let invalid = dir.join("invalid_faults.json");
    std::fs::write(
        &invalid,
        r#"{"request_faults": {"loss": 0.5}}"#,
    )
    .unwrap();
    let out = das_experiment(&[
        "replay",
        paths.config.to_str().unwrap(),
        paths.workload.to_str().unwrap(),
        "--faults",
        invalid.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "invalid override must be rejected");

    // `run` does not accept the overrides — they are replay-only.
    let out = das_experiment(&[
        "run",
        paths.config.to_str().unwrap(),
        "--faults",
        paths.faults.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unexpected argument"), "{}", stderr(&out));
}

#[test]
fn chaos_verify_flags_verdict_drift() {
    // A reproducer claiming a violation that cannot fire on its case must
    // fail verification loudly.
    let dir = scratch("verify-drift");
    let case = SearchSpace::default()
        .generate(&SeedFactory::new(77), 1)
        .unwrap();
    let bogus = Reproducer {
        slug: "case0001_bogus".into(),
        oracle: "exactly-once".into(),
        policy: "das".into(),
        detail: "cannot fire on an ordinary case".into(),
        measure: 2.0,
        case,
    };
    write_artifacts(&bogus, &dir).unwrap();
    let out = das_experiment(&["chaos-verify", dir.to_str().unwrap()]);
    assert!(!out.status.success(), "drifted verdict must fail");
    assert!(stdout(&out).contains("FAIL case0001_bogus"), "{}", stdout(&out));

    // An empty directory is an error, not a vacuous pass.
    let empty = scratch("verify-empty");
    let out = das_experiment(&["chaos-verify", empty.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("no *.case.json"), "{}", stderr(&out));
}

/// Writes `base_experiment` with `edit` applied and asserts that every
/// subcommand that reads a config exits 1 with `message` on an `error:`
/// line — no panic backtrace, nothing run.
fn assert_config_rejected(
    name: &str,
    edit: impl FnOnce(&mut das_core::ExperimentConfig),
    message: &str,
) {
    let dir = scratch(name);
    let mut config = das_core::scenarios::base_experiment(name.to_string(), 0.5);
    config.horizon_secs = 0.05;
    config.warmup_secs = 0.0;
    edit(&mut config);
    let path = dir.join("config.json");
    std::fs::write(&path, serde_json::to_string(&config).unwrap()).unwrap();
    let (path, out_path) = (path.to_str().unwrap(), dir.join("out.jsonl"));
    for args in [
        vec!["check", path],
        vec!["run", path],
        vec!["trace", path, out_path.to_str().unwrap()],
        vec!["replay", path, out_path.to_str().unwrap()],
    ] {
        let out = das_experiment(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.contains(&format!("error: {message}")),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn run_rejects_a_bad_policy_with_a_typed_error_not_a_panic() {
    let policy = das_sched::policy::PolicyKind::Das {
        config: das_sched::DasConfig {
            aging: -1.0,
            ..Default::default()
        },
    };
    assert_config_rejected(
        "bad-policy",
        |c| c.policies = vec![policy],
        "policy: das aging must be finite and >= 0, got -1",
    );
}

#[test]
fn a_removed_config_variant_is_a_parse_error_not_a_panic() {
    // A config naming a variant the schema does not have — the `rein_ml`
    // policy (like `edf`, `lrpt_last`, `random`), the `hash_mod` and
    // `range` partitioners, `deterministic` arrivals, `uniform` latency —
    // fails at the parser, before anything runs.
    let dir = scratch("removed-variant");
    let mut config = das_core::scenarios::base_experiment("removed", 0.5);
    config.policies = vec![das_sched::policy::PolicyKind::Fcfs];
    let json = serde_json::to_string(&config).unwrap();
    for (current, removed) in [
        (
            serde_json::to_string(&config.policies[0]).unwrap(),
            r#"{"kind":"rein_ml","levels":4}"#,
        ),
        (
            serde_json::to_string(&config.cluster.partitioner).unwrap(),
            r#"{"kind":"hash_mod"}"#,
        ),
        (
            serde_json::to_string(&config.cluster.partitioner).unwrap(),
            r#"{"kind":"range","n_keys":1000}"#,
        ),
        (
            serde_json::to_string(&config.workload.arrival).unwrap(),
            r#"{"kind":"deterministic","rate":1000}"#,
        ),
        (
            serde_json::to_string(&config.cluster.network.latency).unwrap(),
            r#"{"kind":"uniform","min_micros":10,"max_micros":90}"#,
        ),
    ] {
        assert_eq!(json.matches(&current).count(), 1, "{current}");
        let path = dir.join("config.json");
        std::fs::write(&path, json.replace(&current, removed)).unwrap();
        let out = das_experiment(&["run", path.to_str().unwrap()]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{removed}: {err}");
        assert!(err.contains("error: parsing "), "{removed}: {err}");
        assert!(err.contains("unknown variant"), "{removed}: {err}");
        let kind = removed.split('"').nth(3).unwrap();
        assert!(err.contains(kind), "{removed}: {err}");
        assert!(!err.contains("panicked"), "{removed}: {err}");
    }
}

#[test]
fn invalid_workload_is_a_typed_error_in_every_subcommand() {
    assert_config_rejected(
        "bad-workload",
        |c| c.workload.n_keys = 0,
        "workload: n_keys must be >= 1",
    );
}

#[test]
fn invalid_network_is_a_typed_error_in_every_subcommand() {
    assert_config_rejected(
        "bad-network",
        |c| {
            c.cluster.network.latency = das_net::latency::LatencyConfig::Lognormal {
                mean_micros: 50.0,
                sigma: -1.0,
            }
        },
        "network: latency sigma must be finite and >= 0",
    );
}

#[test]
fn invalid_partitioner_is_a_typed_error_in_every_subcommand() {
    assert_config_rejected(
        "bad-partitioner",
        |c| {
            c.cluster.partitioner =
                das_store::partition::PartitionerConfig::ConsistentHash { vnodes: 0 }
        },
        "partitioner: consistent_hash needs at least one vnode per server",
    );
}

#[test]
fn invalid_timeseries_bin_is_a_typed_error_in_every_subcommand() {
    assert_config_rejected(
        "bad-bin",
        |c| c.rct_timeseries_bin_secs = Some(0.0),
        "rct_timeseries_bin_secs must be finite and positive, got 0",
    );
}
