//! End-to-end pipeline tests: workload generation → engine → reporting,
//! plus the real-threaded prototype driven by the same workload machinery
//! (trace persistence → replay is `tests/record_replay.rs`).

// Integration tests unwrap freely: a panic is the failure report.
#![allow(clippy::unwrap_used)]

use bytes::Bytes;
use das_repro::core::prelude::*;
use das_repro::core::report;
use das_repro::core::scenarios;
use das_repro::rt::cluster::{RtCluster, RtConfig};
use das_repro::sched::policy::PolicyKind;

fn small_cluster() -> ClusterConfig {
    let mut c = scenarios::base_cluster();
    c.servers = 8;
    c
}

#[test]
fn report_rendering_is_complete() {
    let mut e = ExperimentConfig::new(
        "e2e",
        scenarios::base_workload(0.6, &small_cluster()),
        small_cluster(),
    );
    e.horizon_secs = 0.4;
    e.warmup_secs = 0.05;
    e.rct_timeseries_bin_secs = Some(0.1);
    e.policies = vec![PolicyKind::Fcfs, PolicyKind::ReinSbf, PolicyKind::das()];
    let result = e.run().unwrap();

    let md = report::render_experiment(&result);
    for policy in ["FCFS", "Rein-SBF", "DAS"] {
        assert!(md.contains(policy), "missing {policy} in report");
    }
    let overhead = report::overhead_table(&result);
    assert_eq!(overhead.rows().len(), 3);
    let fairness = report::fairness_table(&result);
    assert_eq!(fairness.rows().len(), 3);
    let ts = report::timeseries_table(&result, "t").unwrap();
    assert!(!ts.rows().is_empty());

    // Summaries serialize for persistence.
    for run in &result.runs {
        let s = PolicySummary::from_run(run);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains(&run.policy));
    }
}

#[test]
fn simulated_and_threaded_prototypes_agree_on_direction() {
    // Not a performance comparison — just that both stacks accept the same
    // policy set and serve identical data correctly.
    for policy in [PolicyKind::Fcfs, PolicyKind::das()] {
        let cluster = RtCluster::start(RtConfig {
            servers: 2,
            workers_per_server: 1,
            policy,
            per_op_nanos: 1_000,
            per_byte_nanos: 0.0,
        });
        for key in 0..64u64 {
            cluster.load(key, Bytes::from(vec![key as u8; 64]));
        }
        let result = cluster.multi_get(&(0..16u64).collect::<Vec<_>>());
        assert_eq!(result.values.len(), 16);
        for (k, v) in &result.values {
            assert_eq!(v.as_ref().unwrap()[0], *k as u8);
        }
        cluster.shutdown();
    }
}

#[test]
fn experiment_config_json_round_trips_through_disk_format() {
    let e = scenarios::base_experiment("persisted", 0.7);
    let json = serde_json::to_string_pretty(&e).unwrap();
    let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(e, back);
    // The JSON is human-auditable: policy names appear as tags.
    assert!(json.contains("\"kind\""));
}

#[test]
fn load_helpers_match_observed_utilization() {
    // offered_load() should predict the engine's measured utilization
    // reasonably well at stable load.
    let cluster = small_cluster();
    let workload = scenarios::base_workload(0.5, &cluster);
    let rate = workload.arrival.average_rate().unwrap();
    let predicted = das_repro::core::load::offered_load(rate, &workload, &cluster);
    // offered_load() deliberately ignores per-server coalescing (documented
    // over-estimate). Correct for it here: k keys over N servers hit about
    // N * (1 - (1 - 1/N)^k) distinct servers, shrinking the per-op
    // overhead term accordingly.
    let n = cluster.servers as f64;
    let k = workload.mean_fanout();
    let ops = n * (1.0 - (1.0 - 1.0 / n).powf(k));
    let overhead = cluster.per_op_overhead.as_secs_f64();
    let bytes_term = workload.mean_request_bytes() / cluster.base_rate_bytes_per_sec;
    let corrected = rate * (ops * overhead + bytes_term) / n;
    assert!(
        corrected <= predicted,
        "correction must shrink the estimate"
    );
    let mut e = ExperimentConfig::new("util", workload, cluster);
    e.horizon_secs = 1.0;
    e.warmup_secs = 0.0;
    e.policies = vec![PolicyKind::Fcfs];
    let result = e.run().unwrap();
    let observed = result.runs[0].mean_utilization;
    assert!(
        (observed - corrected).abs() / corrected < 0.25,
        "corrected prediction {corrected}, observed {observed}"
    );
}
