//! Overload-control invariants: under arbitrary admission deadlines,
//! queue bounds, retry budgets, and batching knobs every offered request
//! resolves exactly once (completed, aborted, or shed — never lost,
//! never double-counted), shed requests never complete, critical paths
//! on shed-bearing traces still telescope exactly, and a profile with
//! every knob off reproduces the unarmed store bit-for-bit.

// Integration tests unwrap freely: a panic is the failure report.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use das_repro::core::scenarios;
use das_repro::sched::policy::PolicyKind;
use das_repro::sim::time::SimTime;
use das_repro::store::engine::{run_simulation, KeyRead, StoreRequest};
use das_repro::store::{OverloadProfile, SimulationConfig};
use das_repro::trace::{critical_paths, TraceEvent};

const BURST: u64 = 64;

/// `n` requests of 1–4 keys: the first [`BURST`] arrive together at time
/// zero, so queues form whatever `gap_us` the rest arrive at. Values stay
/// under 1 KiB, so even a four-key op is within
/// `BatchConfig::TINY_OP_BYTES` and every queued op is batchable.
fn requests(n: u64, gap_us: u64) -> Vec<StoreRequest> {
    (0..n)
        .map(|i| StoreRequest {
            id: i,
            arrival: SimTime::from_micros(i.saturating_sub(BURST) * gap_us),
            reads: (0..=(i as usize % 4))
                .map(|k| {
                    let key = i.wrapping_mul(2654435761).wrapping_add(k as u64 * 97);
                    let bytes = 256 + (i as u32 % 768);
                    if (i + k as u64).is_multiple_of(6) {
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

    /// Conservation under arbitrary overload knobs: every offered request
    /// is admitted or shed at admission; every admitted request completes,
    /// aborts, or is shed from a full queue — exactly once — and the whole
    /// run is bit-deterministic.
    #[test]
    fn no_offered_request_is_lost_or_double_counted(
        seed in any::<u64>(),
        servers in 4u32..=8,
        gap_us in 5u64..=80,
        deadline_us in 300u64..=8_000,
        queue_capacity in 2u32..=64,
        write_penalty in 1.0f64..8.0,
        budget_on in any::<bool>(),
        tokens_per_sec in 10.0f64..2_000.0,
        burst in 1.0f64..16.0,
        batch_max_ops in 0u32..=6,
        retry_on in any::<bool>(),
        retry_frac in 0.2f64..1.0,
    ) {
        for policy in [PolicyKind::Fcfs, PolicyKind::das()] {
            let mut cfg = SimulationConfig::new(policy, 1.0);
            cfg.cluster.servers = servers;
            cfg.warmup_secs = 0.0;
            cfg.seed = seed;
            cfg.overload.admission.deadline_secs = deadline_us as f64 * 1e-6;
            cfg.overload.admission.queue_capacity = queue_capacity;
            cfg.overload.admission.write_penalty = write_penalty;
            cfg.overload.backpressure.tokens_per_sec =
                if budget_on { tokens_per_sec } else { 0.0 };
            cfg.overload.backpressure.burst = burst;
            cfg.overload.batch.max_ops = batch_max_ops;
            if retry_on {
                // The validator requires the retry deadline to fit inside
                // the admission deadline.
                cfg.faults.retry.deadline_secs = cfg.overload.admission.deadline_secs * retry_frac;
                cfg.faults.retry.max_attempts = 3;
            }
            prop_assert_eq!(
                cfg.overload.validate(cfg.faults.retry.deadline_secs),
                Ok(())
            );

            let n = 400;
            let reqs = requests(n, gap_us);
            let a = run_simulation(&cfg, reqs.clone()).unwrap();
            let r = &a.recovery;
            prop_assert_eq!(r.offered(), n, "every request is offered exactly once");
            prop_assert_eq!(r.offered(), r.accepted + r.shed_admission);
            prop_assert_eq!(
                r.accepted, r.completed + r.aborted + r.shed_queue,
                "conservation violated: {} accepted, {} completed, {} aborted, {} queue-shed",
                r.accepted, r.completed, r.aborted, r.shed_queue
            );
            prop_assert_eq!(r.completed, a.completed);
            prop_assert!(r.shed_fraction() >= 0.0 && r.shed_fraction() <= 1.0);
            if !retry_on {
                prop_assert_eq!(r.aborted, 0);
                prop_assert_eq!(r.retries_denied, 0);
            }
            // The opening burst queues tiny ops: batching, when on, is
            // reached in every case.
            prop_assert_eq!(r.batching.batches > 0, batch_max_ops > 1);

            let b = run_simulation(&cfg, reqs).unwrap();
            prop_assert_eq!(a.mean_rct().to_bits(), b.mean_rct().to_bits());
            prop_assert_eq!(a.events_processed, b.events_processed);
            prop_assert_eq!(r.shed_admission, b.recovery.shed_admission);
            prop_assert_eq!(r.shed_queue, b.recovery.shed_queue);
            prop_assert_eq!(r.retries_denied, b.recovery.retries_denied);
            prop_assert_eq!(r.hedges_denied, b.recovery.hedges_denied);
            prop_assert_eq!(r.batching.batches, b.recovery.batching.batches);
        }
    }

    /// A profile whose every knob is off is indistinguishable — bit for
    /// bit — from the default unarmed store, on arbitrary seeds and loads.
    #[test]
    fn all_knobs_off_is_bitwise_inert(
        seed in any::<u64>(),
        gap_us in 10u64..=100,
    ) {
        for policy in [PolicyKind::Fcfs, PolicyKind::das()] {
            let mut base = SimulationConfig::new(policy, 1.0);
            base.cluster.servers = 6;
            base.warmup_secs = 0.0;
            base.seed = seed;
            let off = base.clone();
            prop_assert!(!off.overload.is_active());

            let reqs = requests(300, gap_us);
            let a = run_simulation(&base, reqs.clone()).unwrap();
            let b = run_simulation(&off, reqs).unwrap();
            prop_assert_eq!(a.mean_rct().to_bits(), b.mean_rct().to_bits());
            prop_assert_eq!(a.p99_rct().to_bits(), b.p99_rct().to_bits());
            prop_assert_eq!(a.events_processed, b.events_processed);
            prop_assert_eq!(a.recovery.shed(), 0);
            prop_assert_eq!(b.recovery.batching.batches, 0);
        }
    }
}

/// Shed requests leave a clean trace: exactly one terminal disposition
/// per offered request (complete xor abort xor shed), no completion ever
/// follows a shed, and the critical paths of the requests that *did*
/// complete still telescope exactly to their RCTs.
#[test]
fn shed_requests_terminate_exactly_once_in_traces() {
    let mut cfg = SimulationConfig::new(PolicyKind::das(), 1.0);
    cfg.cluster.servers = 6;
    cfg.warmup_secs = 0.0;
    cfg.overload.admission.deadline_secs = 0.002;
    cfg.overload.admission.queue_capacity = 8;
    cfg.trace.enabled = true;
    cfg.trace.sample = 1.0;
    cfg.trace.capacity = 1 << 20;

    let result = run_simulation(&cfg, requests(2_000, 3)).unwrap();
    let r = &result.recovery;
    assert!(r.shed() > 0, "overloaded run must shed");
    assert!(result.completed > 0, "overloaded run must still serve work");

    let log = result.trace.as_ref().unwrap();
    assert_eq!(log.dropped, 0, "ring must be large enough for the test");
    let mut completes = std::collections::BTreeMap::new();
    let mut aborts = std::collections::BTreeMap::new();
    let mut sheds = std::collections::BTreeMap::new();
    let mut arrivals = std::collections::BTreeSet::new();
    for ev in &log.events {
        match *ev {
            TraceEvent::RequestArrive { request, .. } => {
                arrivals.insert(request);
            }
            TraceEvent::RequestComplete { request, .. } => {
                *completes.entry(request).or_insert(0u32) += 1;
            }
            TraceEvent::RequestAbort { request, .. } => {
                *aborts.entry(request).or_insert(0u32) += 1;
            }
            TraceEvent::Shed { request, .. } => {
                *sheds.entry(request).or_insert(0u32) += 1;
            }
            _ => {}
        }
    }
    for &request in &arrivals {
        let c = completes.get(&request).copied().unwrap_or(0);
        let a = aborts.get(&request).copied().unwrap_or(0);
        let s = sheds.get(&request).copied().unwrap_or(0);
        assert_eq!(
            c + a + s,
            1,
            "request {request}: {c} completes + {a} aborts + {s} sheds"
        );
    }
    let traced_sheds: u64 = sheds.values().map(|&v| v as u64).sum();
    assert_eq!(traced_sheds, r.shed(), "every shed leaves one trace event");

    // Blame attribution must survive shedding: one path per completion,
    // telescoping exactly.
    let paths = critical_paths(log);
    assert_eq!(paths.len() as u64, result.completed);
    for p in &paths {
        assert_eq!(
            p.sum_ns(),
            p.rct_ns,
            "request {}: segments must sum exactly to the RCT",
            p.request
        );
    }
}

/// The fig. 24 scenario behaves as advertised end-to-end (shrunk for test
/// speed): past saturation the uncontrolled store's goodput collapses
/// while the controlled store keeps serving within the SLO.
#[test]
fn overload_control_degrades_gracefully_past_saturation() {
    let shrink = |mut e: das_repro::core::experiment::ExperimentConfig| {
        e.horizon_secs = 1.0;
        e.warmup_secs = 0.1;
        e.policies = vec![PolicyKind::Fcfs];
        e
    };
    let slo = scenarios::OVERLOAD_SLO_SECS;
    let goodput = |r: &das_repro::store::engine::RunResult| {
        r.rct.fraction_within(slo) * r.completed as f64 / r.recovery.offered() as f64
    };
    let un = shrink(scenarios::overload_experiment(1.3, false))
        .run()
        .unwrap();
    let ctl = shrink(scenarios::overload_experiment(1.3, true))
        .run()
        .unwrap();
    let (gu, gc) = (goodput(&un.runs[0]), goodput(&ctl.runs[0]));
    assert!(
        gu < 0.5,
        "uncontrolled store past saturation should collapse, goodput {gu:.2}"
    );
    assert!(
        gc > 0.75,
        "controlled store should degrade gracefully, goodput {gc:.2}"
    );
    assert!(
        un.runs[0].recovery.retries > ctl.runs[0].recovery.retries,
        "the token budget must cut the retry storm"
    );
}

/// The armed-but-inert profile leaves the calibrated base experiment
/// untouched (the defaults-off guarantee at the experiment level, where
/// the CI goldens live).
#[test]
fn inert_profile_reproduces_base_experiment() {
    let mut base = scenarios::base_experiment("golden", 0.7);
    base.horizon_secs = 0.8;
    base.warmup_secs = 0.1;
    base.policies = vec![PolicyKind::Fcfs, PolicyKind::das()];
    let mut armed = base.clone();
    armed.overload = OverloadProfile::none();
    let a = base.run().unwrap();
    let b = armed.run().unwrap();
    for (ra, rb) in a.runs.iter().zip(&b.runs) {
        assert_eq!(ra.mean_rct().to_bits(), rb.mean_rct().to_bits());
        assert_eq!(ra.events_processed, rb.events_processed);
    }
}
