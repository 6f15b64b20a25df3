//! Cross-crate invariants that must hold for *every* scheduling policy:
//! completion, lower bounds, work conservation, determinism.

// Integration tests unwrap freely: a panic is the failure report.
#![allow(clippy::unwrap_used)]

use das_repro::core::prelude::*;
use das_repro::core::scenarios;
use das_repro::sched::policy::PolicyKind;

fn all_policies() -> Vec<PolicyKind> {
    let mut p = PolicyKind::standard_set();
    p.push(PolicyKind::oracle());
    p.extend(PolicyKind::ablation_set());
    p
}

fn small_experiment(policies: Vec<PolicyKind>) -> ExperimentConfig {
    let mut cluster = scenarios::base_cluster();
    cluster.servers = 10;
    let workload = scenarios::base_workload(0.6, &cluster);
    let mut e = ExperimentConfig::new("invariants", workload, cluster);
    e.horizon_secs = 0.5;
    e.warmup_secs = 0.05;
    e.policies = policies;
    e
}

#[test]
fn every_policy_completes_every_request() {
    let result = small_experiment(all_policies()).run().unwrap();
    let counts: Vec<u64> = result.runs.iter().map(|r| r.completed).collect();
    assert!(counts[0] > 100, "workload too small: {}", counts[0]);
    for (run, &count) in result.runs.iter().zip(&counts) {
        assert_eq!(
            count, counts[0],
            "{} completed {} vs {}",
            run.policy, count, counts[0]
        );
        assert_eq!(run.measured, run.rct.count());
    }
}

#[test]
fn mean_rct_never_beats_zero_queueing_bound() {
    let result = small_experiment(all_policies()).run().unwrap();
    for run in &result.runs {
        assert!(
            run.mean_rct() >= run.lower_bound_mean_rct * 0.999,
            "{}: {} < bound {}",
            run.policy,
            run.mean_rct(),
            run.lower_bound_mean_rct
        );
        // And percentiles are ordered.
        assert!(run.rct.p50() <= run.rct.p95() * (1.0 + 1e-9));
        assert!(run.rct.p95() <= run.rct.p99() * (1.0 + 1e-9));
    }
}

#[test]
fn work_conservation_across_policies() {
    // With a fixed workload and no performance events, the total service
    // work is identical no matter the order it is served in; utilizations
    // must therefore agree across policies (non-preemptive, no idling).
    let result = small_experiment(all_policies()).run().unwrap();
    let baseline = result.runs[0].mean_utilization;
    assert!(baseline > 0.3, "expected meaningful load, got {baseline}");
    for run in &result.runs {
        let rel = (run.mean_utilization - baseline).abs() / baseline;
        assert!(
            rel < 0.02,
            "{}: utilization {} vs baseline {}",
            run.policy,
            run.mean_utilization,
            baseline
        );
    }
}

#[test]
fn runs_are_bit_reproducible() {
    let e = small_experiment(vec![PolicyKind::das()]);
    let a = e.run().unwrap();
    let b = e.run().unwrap();
    let (ra, rb) = (&a.runs[0], &b.runs[0]);
    assert_eq!(ra.completed, rb.completed);
    assert_eq!(ra.mean_rct().to_bits(), rb.mean_rct().to_bits());
    assert_eq!(ra.rct.p99().to_bits(), rb.rct.p99().to_bits());
    assert_eq!(ra.traffic, rb.traffic);
    assert_eq!(ra.events_processed, rb.events_processed);
}

#[test]
fn different_seeds_differ_but_agree_statistically() {
    let mut e1 = small_experiment(vec![PolicyKind::Fcfs]);
    let mut e2 = small_experiment(vec![PolicyKind::Fcfs]);
    e1.seed = 1;
    e2.seed = 2;
    let a = e1.run().unwrap().runs.remove(0);
    let b = e2.run().unwrap().runs.remove(0);
    assert_ne!(a.mean_rct().to_bits(), b.mean_rct().to_bits());
    // Same workload distribution: means within a factor of two.
    let ratio = a.mean_rct() / b.mean_rct();
    assert!((0.5..2.0).contains(&ratio), "ratio = {ratio}");
}

#[test]
fn oracle_is_at_least_as_good_as_das() {
    let mut e = small_experiment(vec![PolicyKind::das(), PolicyKind::oracle()]);
    e.horizon_secs = 1.0;
    let result = e.run().unwrap();
    let das = result.mean_rct("DAS").unwrap();
    let oracle = result.mean_rct("Oracle").unwrap();
    // Allow a small tolerance: the oracle is a heuristic reference, not a
    // true optimum.
    assert!(
        oracle <= das * 1.05,
        "oracle {oracle} should not trail DAS {das} by >5%"
    );
}

#[test]
fn overhead_accounting_matches_policy_capabilities() {
    let result = small_experiment(vec![
        PolicyKind::Fcfs,
        PolicyKind::Sjf,
        PolicyKind::ReinSbf,
        PolicyKind::das(),
    ])
    .run()
    .unwrap();
    use das_repro::net::accounting::TrafficClass;
    let by_name = |n: &str| result.run(n).unwrap();
    // FCFS/SJF ship no scheduling metadata; Rein ships tags only; DAS
    // ships tags + piggyback + hints.
    assert_eq!(by_name("FCFS").traffic.overhead_bytes(), 0);
    assert_eq!(by_name("SJF").traffic.overhead_bytes(), 0);
    let rein = by_name("Rein-SBF").traffic;
    assert!(rein.bytes(TrafficClass::SchedulingMetadata) > 0);
    assert_eq!(rein.messages(TrafficClass::ProgressHint), 0);
    let das = by_name("DAS").traffic;
    assert!(das.bytes(TrafficClass::SchedulingMetadata) > 0);
    assert!(das.bytes(TrafficClass::PiggybackReport) > 0);
    assert!(das.messages(TrafficClass::ProgressHint) > 0);
    // Overhead is a sliver of payload traffic.
    assert!(das.overhead_bytes() * 10 < das.total_bytes());
}

#[test]
fn slowdown_classes_are_populated() {
    let result = small_experiment(vec![PolicyKind::das()]).run().unwrap();
    let run = &result.runs[0];
    let total: u64 = (0..run.slowdown.class_count())
        .map(|c| run.slowdown.class_stats(c).0)
        .sum();
    assert_eq!(total, run.measured);
    assert!(run.slowdown.overall_mean() >= 1.0);
}

#[test]
fn every_dequeue_decision_describes_the_queue_it_came_from() {
    use das_repro::sched::types::{HintUpdate, OpId, OpTag, QueuedOp, RequestId};
    use das_repro::sim::rng::SeedFactory;
    use das_repro::sim::time::{SimDuration, SimTime};
    use rand::RngCore;

    // A seeded random interleaving of enqueue / dequeue / on_hint / drain
    // against the bare scheduler of every policy.
    for (seed, policy) in all_policies().into_iter().enumerate() {
        let mut rng = SeedFactory::new(seed as u64).stream("decisions", 0);
        let mut s = policy.build();
        let (mut now, mut enqueued, mut served) = (SimTime::ZERO, 0u64, 0u64);
        for _ in 0..3_000 {
            now += SimDuration::from_micros(rng.next_u64() % 50);
            match rng.next_u64() % 32 {
                0..=14 => {
                    let local = SimDuration::from_micros(1 + rng.next_u64() % 500);
                    let bottleneck = local + SimDuration::from_micros(rng.next_u64() % 2_000);
                    let tag = OpTag {
                        op: OpId {
                            request: RequestId(enqueued / 2),
                            index: (enqueued % 2) as u32,
                        },
                        request_arrival: now,
                        fanout: 2,
                        local_estimate: local,
                        bottleneck_eta: now + bottleneck,
                        bottleneck_demand: bottleneck,
                    };
                    s.enqueue(
                        QueuedOp {
                            tag,
                            local_estimate: local,
                            enqueued_at: now,
                        },
                        now,
                    );
                    enqueued += 1;
                }
                15..=27 => {
                    let len = s.len();
                    match s.dequeue(now) {
                        Some((_, d)) => {
                            assert_eq!(d.queue_len as usize, len, "{}", s.name());
                            assert!(d.position < d.queue_len, "{}: {d:?}", s.name());
                            served += 1;
                        }
                        None => assert_eq!(len, 0, "{}", s.name()),
                    }
                }
                28..=30 => {
                    let update = HintUpdate {
                        bottleneck_eta: now,
                        remaining_demand: SimDuration::from_micros(rng.next_u64() % 300),
                    };
                    s.on_hint(RequestId(rng.next_u64() % (enqueued / 2 + 1)), update, now);
                }
                _ => {
                    served += s.drain(now).len() as u64;
                    assert!(s.is_empty(), "{}", s.name());
                    assert_eq!(s.queued_work(), SimDuration::ZERO, "{}", s.name());
                }
            }
        }
        served += s.drain(now).len() as u64;
        assert_eq!(served, enqueued, "{}", s.name());
        assert_eq!(s.queued_work(), SimDuration::ZERO, "{}", s.name());
    }
}
