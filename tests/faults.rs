//! Fault-injection invariants: under arbitrary crash/loss/duplication
//! schedules every accepted request resolves exactly once (completed or
//! aborted, never both, never lost), runs stay deterministic, and the
//! scheduling claims survive failures.

// Integration tests unwrap freely: a panic is the failure report.
#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;

use proptest::prelude::*;

use das_repro::core::prelude::*;
use das_repro::core::scenarios;
use das_repro::sched::policy::PolicyKind;
use das_repro::sim::fault::CrashWindow;
use das_repro::sim::time::SimTime;
use das_repro::store::engine::{run_simulation, KeyRead, StoreRequest};
use das_repro::store::SimulationConfig;
use das_repro::trace::{TraceConfig, TraceEvent};

fn fault_requests(n: u64, gap_us: u64) -> Vec<StoreRequest> {
    (0..n)
        .map(|i| StoreRequest {
            id: i,
            arrival: SimTime::from_micros(i * gap_us),
            reads: (0..=(i as usize % 4))
                .map(|k| {
                    let key = i.wrapping_mul(2654435761).wrapping_add(k as u64 * 97);
                    let bytes = 1024 + (i as u32 % 9000);
                    if (i + k as u64).is_multiple_of(7) {
                        KeyRead::write(key, bytes)
                    } else {
                        KeyRead::read(key, bytes)
                    }
                })
                .collect(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exactly-once resolution: with arbitrary crash windows, message loss,
    /// duplication (of requests *and* responses), extra delays, retries, and
    /// hedging all active at once, `accepted == completed + aborted`, every
    /// measured completion lands in exactly one RCT bucket (clean xor
    /// fault-exposed), every attempt is closed at most once, and the whole
    /// run is bit-deterministic.
    #[test]
    fn no_request_is_lost_or_double_completed(
        seed in any::<u64>(),
        servers in 4u32..=8,
        replication in 1u32..=3,
        crashes in proptest::collection::vec((0u32..8, 0u64..6_000, 500u64..4_000), 0..4),
        req_loss in 0.0f64..0.3,
        resp_loss in 0.0f64..0.3,
        dup in 0.0f64..0.5,
        req_dup in 0.0f64..0.5,
        delay_prob in 0.0f64..0.3,
        deadline_us in 2_000u64..20_000,
        max_attempts in 2u32..=6,
        jitter in 0.0f64..0.5,
        hedge_on in any::<bool>(),
        hedge_q in 0.5f64..0.99,
    ) {
        for policy in [PolicyKind::Fcfs, PolicyKind::das()] {
            let mut cfg = SimulationConfig::new(policy, 1.0);
            cfg.cluster.servers = servers;
            cfg.cluster.replication = replication.min(servers);
            cfg.warmup_secs = 0.0;
            cfg.seed = seed;
            let mut windows: Vec<CrashWindow> = crashes
                .iter()
                .map(|&(s, down_us, dur_us)| CrashWindow {
                    server: s % servers,
                    down_secs: down_us as f64 * 1e-6,
                    up_secs: (down_us + dur_us) as f64 * 1e-6,
                })
                .collect();
            // Overlapping windows on one server are rejected by config
            // validation; keep the earliest of each overlapping pair.
            windows.sort_by(|a, b| {
                a.server
                    .cmp(&b.server)
                    .then(a.down_secs.total_cmp(&b.down_secs))
            });
            for w in windows {
                let overlaps = cfg
                    .faults
                    .crashes
                    .crashes
                    .last()
                    .is_some_and(|p| p.server == w.server && w.down_secs < p.up_secs);
                if !overlaps {
                    cfg.faults.crashes.crashes.push(w);
                }
            }
            cfg.faults.request_faults.loss = req_loss;
            // Duplicated deliveries let one crash drop two copies of the
            // same attempt.
            cfg.faults.request_faults.duplication = req_dup;
            cfg.faults.request_faults.extra_delay_prob = delay_prob;
            cfg.faults.request_faults.extra_delay_micros = 150.0;
            cfg.faults.response_faults.loss = resp_loss;
            cfg.faults.response_faults.duplication = dup;
            cfg.faults.retry.deadline_secs = deadline_us as f64 * 1e-6;
            cfg.faults.retry.max_attempts = max_attempts;
            cfg.faults.retry.jitter = jitter;
            if hedge_on {
                cfg.faults.hedge.quantile = hedge_q;
                cfg.faults.hedge.min_samples = 10;
            }
            prop_assert_eq!(cfg.faults.validate(servers), Ok(()));
            cfg.trace = TraceConfig::enabled();

            let requests = fault_requests(150, 40);
            let a = run_simulation(&cfg, requests.clone()).unwrap();
            let r = &a.recovery;
            prop_assert_eq!(r.accepted, 150);
            prop_assert_eq!(
                r.accepted, r.completed + r.aborted,
                "exactly-once violated: {} accepted, {} completed, {} aborted",
                r.accepted, r.completed, r.aborted
            );
            prop_assert_eq!(r.completed, a.completed);
            prop_assert_eq!(
                r.rct_clean.count() + r.rct_fault_exposed.count(),
                a.measured
            );
            prop_assert!(r.availability() <= 1.0);
            prop_assert!(r.wasted_fraction() >= 0.0 && r.wasted_fraction() <= 1.0);

            // An attempt is closed at most once — by a crash, its deadline,
            // or an accepted response — so per op the closures never
            // outnumber the dispatches.
            let log = a.trace.as_ref().unwrap();
            prop_assert_eq!(log.dropped, 0);
            let mut per_op: BTreeMap<(u64, u32), (u32, u32)> = BTreeMap::new();
            for ev in &log.events {
                match *ev {
                    TraceEvent::OpDispatch { request, op, .. } => {
                        per_op.entry((request, op)).or_default().0 += 1;
                    }
                    TraceEvent::CrashDrop { request, op, .. }
                    | TraceEvent::OpTimeout { request, op, .. }
                    | TraceEvent::OpResponse { request, op, accepted: true, .. } => {
                        per_op.entry((request, op)).or_default().1 += 1;
                    }
                    _ => {}
                }
            }
            for (id, (dispatched, closed)) in per_op {
                prop_assert!(closed <= dispatched, "op {id:?}: {closed} closures of {dispatched} attempts");
            }

            let b = run_simulation(&cfg, requests).unwrap();
            prop_assert_eq!(a.mean_rct().to_bits(), b.mean_rct().to_bits());
            prop_assert_eq!(a.events_processed, b.events_processed);
            prop_assert_eq!(r.aborted, b.recovery.aborted);
            prop_assert_eq!(r.timeouts, b.recovery.timeouts);
            prop_assert_eq!(r.retries, b.recovery.retries);
            prop_assert_eq!(r.hedges, b.recovery.hedges);
            prop_assert_eq!(r.duplicate_responses, b.recovery.duplicate_responses);
        }
    }
}

/// Shrinks a fault scenario's horizon for test speed, rescaling the crash
/// windows with it so the outages stay inside the run.
fn shrink_faulty(mut e: ExperimentConfig, horizon: f64) -> ExperimentConfig {
    let scale = horizon / e.horizon_secs;
    e.horizon_secs = horizon;
    e.warmup_secs = (horizon * 0.1).min(0.5);
    for w in &mut e.faults.crashes.crashes {
        w.down_secs *= scale;
        if w.up_secs.is_finite() {
            w.up_secs *= scale;
        }
    }
    e
}

#[test]
fn das_beats_fcfs_under_faults() {
    let mut e = shrink_faulty(scenarios::fault_injection_experiment(0.7, 0.1), 1.5);
    e.policies = vec![PolicyKind::Fcfs, PolicyKind::das()];
    let result = e.run().unwrap();
    // Replicated reads (R=2) already spread load across replica pairs, so
    // the scheduling gap is narrower than in the R=1 claim tests; the run
    // is seeded, so a small positive margin is still a stable assertion.
    let reduction = result.reduction_vs("DAS", "FCFS").unwrap();
    assert!(
        reduction > 1.0,
        "with faults at rho=0.7, DAS reduction vs FCFS only {reduction:.1}%"
    );
    for run in &result.runs {
        let r = &run.recovery;
        assert!(r.crash_drops > 0, "{}: crashes never hit work", run.policy);
        assert!(r.retries > 0, "{}: drops never retried", run.policy);
        assert_eq!(r.accepted, r.completed + r.aborted);
        assert!(
            r.availability() > 0.98,
            "{}: availability {} too low for R=2 + retry",
            run.policy,
            r.availability()
        );
    }
}

#[test]
fn hedging_cuts_the_gray_failure_tail() {
    let off = shrink_faulty(scenarios::hedging_experiment(0.5, 0.0), 1.5);
    let on = shrink_faulty(scenarios::hedging_experiment(0.5, 0.95), 1.5);
    let policies = vec![PolicyKind::Fcfs];
    let mut off = off;
    off.policies = policies.clone();
    let mut on = on;
    on.policies = policies;
    let off_run = &off.run().unwrap().runs[0];
    let on_result = on.run().unwrap();
    let on_run = &on_result.runs[0];
    assert_eq!(off_run.recovery.hedges, 0);
    assert!(on_run.recovery.hedges > 0, "hedge timer never fired");
    let (off_p99, on_p99) = (off_run.p99_rct(), on_run.p99_rct());
    assert!(
        on_p99 < off_p99 * 0.9,
        "hedging should cut the gray-failure p99: off {off_p99} vs on {on_p99}"
    );
}
