use super::*;
use das_sched::policy::PolicyKind;

fn requests(n: u64, gap_us: u64, keys_per_req: usize) -> Vec<StoreRequest> {
    (0..n)
        .map(|i| StoreRequest {
            id: i,
            arrival: SimTime::from_micros(i * gap_us),
            reads: (0..keys_per_req)
                .map(|k| KeyRead::read(i * 37 + k as u64 * 101, 4096))
                .collect(),
        })
        .collect()
}

fn quick_config(policy: PolicyKind) -> SimulationConfig {
    let mut cfg = SimulationConfig::new(policy, 1.0);
    cfg.cluster.servers = 8;
    cfg.warmup_secs = 0.0;
    cfg
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // The whole point of the trace layer: enabling it must leave every
    // simulation result bit-identical, for every policy.
    for policy in PolicyKind::standard_set() {
        let plain = quick_config(policy);
        let mut traced = plain.clone();
        traced.trace = das_trace::TraceConfig::enabled();
        let a = run_simulation(&plain, requests(300, 80, 4)).unwrap();
        let b = run_simulation(&traced, requests(300, 80, 4)).unwrap();
        assert!(a.trace.is_none());
        assert!(b.trace.is_some(), "{}", b.policy);
        assert_eq!(
            a.mean_rct().to_bits(),
            b.mean_rct().to_bits(),
            "{}",
            b.policy
        );
        assert_eq!(a.p99_rct().to_bits(), b.p99_rct().to_bits(), "{}", b.policy);
        assert_eq!(a.events_processed, b.events_processed, "{}", b.policy);
        assert_eq!(a.traffic, b.traffic, "{}", b.policy);
    }
}

#[test]
fn trace_covers_every_request_at_full_sampling() {
    let mut cfg = quick_config(PolicyKind::das());
    cfg.trace = das_trace::TraceConfig::enabled();
    let n = 200;
    let result = run_simulation(&cfg, requests(n, 80, 4)).unwrap();
    let log = result.trace.unwrap();
    assert_eq!(log.dropped, 0);
    let arrivals = log
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::RequestArrive { .. }))
        .count() as u64;
    let completes = log
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::RequestComplete { .. }))
        .count() as u64;
    assert_eq!(arrivals, n);
    assert_eq!(completes, result.completed);
    // Every completed request reconstructs a full critical path whose
    // segments telescope exactly to its RCT.
    let paths = das_trace::critical_paths(&log);
    assert_eq!(paths.len() as u64, result.completed);
    for p in &paths {
        assert_eq!(p.sum_ns(), p.rct_ns, "request {}", p.request);
    }
}

#[test]
fn trace_sampling_subsets_the_request_space() {
    let mut cfg = quick_config(PolicyKind::Fcfs);
    cfg.trace = das_trace::TraceConfig::enabled();
    cfg.trace.sample = 0.25;
    let result = run_simulation(&cfg, requests(400, 80, 2)).unwrap();
    let log = result.trace.unwrap();
    let arrivals = log
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::RequestArrive { .. }))
        .count();
    assert!(arrivals > 0 && arrivals < 400, "arrivals = {arrivals}");
    // Sampling is per request: each traced request still has a full
    // event chain.
    for p in das_trace::critical_paths(&log) {
        assert_eq!(p.sum_ns(), p.rct_ns);
    }
}

#[test]
fn all_requests_complete() {
    let cfg = quick_config(PolicyKind::Fcfs);
    let result = run_simulation(&cfg, requests(500, 100, 4)).unwrap();
    assert_eq!(result.completed, 500);
    assert_eq!(result.measured, 500);
    assert_eq!(result.rct.count(), 500);
    assert!(result.mean_rct() > 0.0);
    assert!(result.events_processed > 500);
}

#[test]
fn rct_at_least_lower_bound() {
    for policy in PolicyKind::standard_set() {
        let cfg = quick_config(policy);
        let result = run_simulation(&cfg, requests(300, 50, 6)).unwrap();
        assert!(
            result.mean_rct() >= result.lower_bound_mean_rct * 0.999,
            "{}: mean {} < bound {}",
            result.policy,
            result.mean_rct(),
            result.lower_bound_mean_rct
        );
    }
}

#[test]
fn deterministic_given_seed() {
    let cfg = quick_config(PolicyKind::das());
    let a = run_simulation(&cfg, requests(200, 80, 4)).unwrap();
    let b = run_simulation(&cfg, requests(200, 80, 4)).unwrap();
    assert_eq!(a.mean_rct(), b.mean_rct());
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(a.events_processed, b.events_processed);
}

#[test]
fn warmup_excludes_early_requests() {
    let mut cfg = quick_config(PolicyKind::Fcfs);
    cfg.warmup_secs = 0.01;
    let result = run_simulation(&cfg, requests(300, 100, 2)).unwrap();
    assert_eq!(result.completed, 300);
    assert!(result.measured < 300);
    assert!(result.measured > 0);
}

#[test]
fn traffic_charged_per_policy() {
    let fcfs = run_simulation(&quick_config(PolicyKind::Fcfs), requests(100, 100, 4)).unwrap();
    assert_eq!(fcfs.traffic.overhead_bytes(), 0);
    let das = run_simulation(&quick_config(PolicyKind::das()), requests(100, 100, 4)).unwrap();
    assert!(das.traffic.overhead_bytes() > 0);
    assert!(das.traffic.bytes(TrafficClass::SchedulingMetadata) > 0);
    // Oracle coordination is free by definition.
    let oracle =
        run_simulation(&quick_config(PolicyKind::oracle()), requests(100, 100, 4)).unwrap();
    assert_eq!(oracle.traffic.overhead_bytes(), 0);
}

#[test]
fn single_key_requests_have_one_op() {
    let cfg = quick_config(PolicyKind::Fcfs);
    let result = run_simulation(&cfg, requests(50, 100, 1)).unwrap();
    assert_eq!(result.mean_ops_per_request, 1.0);
}

#[test]
fn coalescing_bounds_ops_by_cluster_size() {
    let mut cfg = quick_config(PolicyKind::Fcfs);
    cfg.cluster.servers = 4;
    // 64 keys over 4 servers: at most 4 ops per request.
    let result = run_simulation(&cfg, requests(50, 1000, 64)).unwrap();
    assert!(result.mean_ops_per_request <= 4.0);
    assert!(result.mean_ops_per_request > 1.0);
}

#[test]
fn timeseries_when_requested() {
    let mut cfg = quick_config(PolicyKind::Fcfs);
    cfg.rct_timeseries_bin_secs = Some(0.01);
    let result = run_simulation(&cfg, requests(200, 100, 2)).unwrap();
    let ts = result.rct_over_time.unwrap();
    assert!(!ts.bins().is_empty());
    assert_eq!(ts.bins().iter().map(|b| b.count).sum::<u64>(), 200);
}

#[test]
fn replication_spreads_reads() {
    let mut cfg = quick_config(PolicyKind::das());
    cfg.cluster.replication = 3;
    let result = run_simulation(&cfg, requests(200, 50, 4)).unwrap();
    assert_eq!(result.completed, 200);
}

#[test]
fn empty_workload_is_fine() {
    let cfg = quick_config(PolicyKind::Fcfs);
    let result = run_simulation(&cfg, Vec::<StoreRequest>::new()).unwrap();
    assert_eq!(result.completed, 0);
    assert_eq!(result.mean_rct(), 0.0);
}

#[test]
fn out_of_order_arrivals_rejected() {
    let cfg = quick_config(PolicyKind::Fcfs);
    let reqs = vec![
        StoreRequest {
            id: 0,
            arrival: SimTime::from_millis(10),
            reads: vec![KeyRead::read(1, 100)],
        },
        StoreRequest {
            id: 1,
            arrival: SimTime::from_millis(5),
            reads: vec![KeyRead::read(2, 100)],
        },
    ];
    assert!(run_simulation(&cfg, reqs).is_err());
}

#[test]
fn request_without_keys_is_rejected() {
    // Tracked with zero ops it could never complete: `accepted` would
    // outrun `completed` (and trip the teardown assert in debug builds).
    let cfg = quick_config(PolicyKind::Fcfs);
    let mut reqs = requests(3, 100, 2);
    reqs[1].reads.clear();
    let err = run_simulation(&cfg, reqs).unwrap_err();
    assert_eq!(err, "request 1 reads no keys");
}

#[test]
fn request_id_still_in_flight_is_rejected() {
    // The second request would overwrite the first one's progress record
    // while its ops are still out.
    let cfg = quick_config(PolicyKind::das());
    let mut reqs = requests(3, 1, 4);
    reqs[2].id = 0;
    let err = run_simulation(&cfg, reqs).unwrap_err();
    assert_eq!(err, "request id 0 is already in flight");
    // An id whose earlier request has long completed is free again.
    let mut spaced = requests(3, 100_000, 4);
    spaced[2].id = 0;
    assert_eq!(run_simulation(&cfg, spaced).unwrap().completed, 3);
}

#[test]
fn borrowed_and_owned_input_run_identically() {
    let cfg = quick_config(PolicyKind::das());
    let reqs = requests(300, 60, 5);
    let borrowed = run_simulation(&cfg, &reqs).unwrap();
    let owned = run_simulation(&cfg, reqs).unwrap();
    assert_eq!(borrowed.mean_rct().to_bits(), owned.mean_rct().to_bits());
    assert_eq!(borrowed.events_processed, owned.events_processed);
    assert_eq!(borrowed.traffic, owned.traffic);
}

#[test]
fn rejected_request_leaves_the_reused_buffers_usable() {
    // A penalised write is turned away at admission after `handle_request`
    // filled its placement buffers; the next request must not see them.
    let mut cfg = quick_config(PolicyKind::das());
    cfg.overload.admission.deadline_secs = 0.01;
    cfg.overload.admission.write_penalty = 100.0;
    let mut engine = Engine::new(&cfg);
    let rejected = StoreRequest {
        id: 0,
        arrival: SimTime::ZERO,
        reads: vec![KeyRead::read(1, 4096), KeyRead::write(3, 1_000_000)],
    };
    engine.handle_request(&rejected, SimTime::ZERO).unwrap();
    assert_eq!(engine.core.accepted, 0);
    assert!(
        engine.core.placement.per_server.capacity() > 0,
        "the buffers went back to the core on the early return"
    );
    let admitted = StoreRequest {
        id: 1,
        arrival: SimTime::ZERO,
        reads: vec![KeyRead::read(7, 4096)],
    };
    engine.handle_request(&admitted, SimTime::ZERO).unwrap();
    assert_eq!(engine.core.accepted, 1);
    assert_eq!(engine.core.placement.per_server.len(), 1);
    let state = engine
        .core
        .coord(RequestId(1))
        .request(RequestId(1))
        .unwrap();
    assert_eq!(state.ops.len(), 1, "one key, one op");
}

#[test]
fn shed_requests_leave_the_reused_buffers_usable() {
    // Whole requests are torn down at full queues between ordinary
    // completions. A stale placement entry would show up as a fan-out
    // above the key count, a stale `ops` entry as a request that can
    // never complete.
    let mut cfg = quick_config(PolicyKind::das());
    cfg.overload.admission.deadline_secs = 1.0;
    cfg.overload.admission.queue_capacity = 4;
    cfg.trace = das_trace::TraceConfig::enabled();
    let result = run_simulation(&cfg, requests(2000, 3, 3)).unwrap();
    let r = &result.recovery;
    assert!(r.shed_queue > 0 && result.completed > 0);
    assert_eq!(r.accepted, result.completed + r.shed_queue);
    for e in &result.trace.unwrap().events {
        if let TraceEvent::RequestArrive { keys, fanout, .. } = e {
            assert!(
                1 <= *fanout && fanout <= keys,
                "fanout {fanout} of {keys} keys"
            );
        }
    }
}

#[test]
fn requests_at_horizon_are_dropped() {
    let mut cfg = quick_config(PolicyKind::Fcfs);
    cfg.horizon_secs = 0.001;
    // Arrivals at 0us and 2000us; only the first is inside the horizon.
    let result = run_simulation(&cfg, requests(2, 2000, 1)).unwrap();
    assert_eq!(result.completed, 1);
}

#[test]
fn multiple_coordinators_still_complete_everything() {
    let mut cfg = quick_config(PolicyKind::das());
    cfg.cluster.coordinators = 8;
    let result = run_simulation(&cfg, requests(400, 60, 5)).unwrap();
    assert_eq!(result.completed, 400);
    assert!(result.mean_rct() >= result.lower_bound_mean_rct * 0.999);
    // And stays deterministic.
    let again = run_simulation(&cfg, requests(400, 60, 5)).unwrap();
    assert_eq!(result.mean_rct().to_bits(), again.mean_rct().to_bits());
}

#[test]
fn fragmented_coordinators_change_estimates_not_correctness() {
    let mut one = quick_config(PolicyKind::das());
    one.cluster.coordinators = 1;
    let mut many = one.clone();
    many.cluster.coordinators = 16;
    let a = run_simulation(&one, requests(500, 50, 5)).unwrap();
    let b = run_simulation(&many, requests(500, 50, 5)).unwrap();
    assert_eq!(a.completed, b.completed);
    // Different information quality -> different schedules.
    assert_ne!(a.mean_rct().to_bits(), b.mean_rct().to_bits());
}

#[test]
fn hint_loss_drops_hints_but_not_requests() {
    let mut cfg = quick_config(PolicyKind::das());
    cfg.cluster.hint_loss = 1.0; // every hint lost
    let result = run_simulation(&cfg, requests(300, 60, 5)).unwrap();
    assert_eq!(result.completed, 300);
    // Hints are still *charged* (they were sent), just never delivered;
    // correctness must not depend on them.
    assert!(result.traffic.messages(TrafficClass::ProgressHint) > 0);
}

#[test]
fn invalid_hint_loss_rejected() {
    let mut cfg = quick_config(PolicyKind::das());
    cfg.cluster.hint_loss = 1.5;
    assert!(run_simulation(&cfg, requests(1, 100, 1)).is_err());
    cfg.cluster.hint_loss = 0.5;
    cfg.cluster.coordinators = 0;
    assert!(run_simulation(&cfg, requests(1, 100, 1)).is_err());
}

#[test]
fn utilization_positive_under_load() {
    let cfg = quick_config(PolicyKind::Fcfs);
    let result = run_simulation(&cfg, requests(2000, 20, 4)).unwrap();
    assert!(result.mean_utilization > 0.0);
    assert!(result.max_utilization >= result.mean_utilization);
    assert!(result.max_utilization <= 1.5, "{}", result.max_utilization);
}

#[test]
fn fault_free_recovery_stats_are_benign() {
    let cfg = quick_config(PolicyKind::Fcfs);
    let result = run_simulation(&cfg, requests(100, 100, 4)).unwrap();
    let r = &result.recovery;
    assert_eq!(r.accepted, 100);
    assert_eq!(r.completed, 100);
    assert_eq!(r.aborted, 0);
    assert!(!r.any_faults_seen());
    assert_eq!(r.availability(), 1.0);
}

#[test]
fn generous_deadline_without_faults_changes_nothing() {
    // Retry machinery armed but never triggered: timeout events all
    // fire after their ops completed, so the measured RCT must be
    // bit-identical to the fault-free run.
    let plain = quick_config(PolicyKind::das());
    let mut armed = plain.clone();
    armed.faults.retry.deadline_secs = 10.0;
    let a = run_simulation(&plain, requests(300, 60, 4)).unwrap();
    let b = run_simulation(&armed, requests(300, 60, 4)).unwrap();
    assert_eq!(a.mean_rct().to_bits(), b.mean_rct().to_bits());
    assert_eq!(a.completed, b.completed);
    assert_eq!(b.recovery.timeouts, 0);
    assert_eq!(b.recovery.retries, 0);
    assert_eq!(b.recovery.aborted, 0);
}

#[test]
fn crash_with_retry_recovers() {
    use das_sim::fault::CrashWindow;
    let mut cfg = quick_config(PolicyKind::das());
    cfg.cluster.replication = 2;
    // Requests span [0, 0.1s); both crash windows sit inside that span.
    cfg.faults.crashes.crashes.push(CrashWindow {
        server: 0,
        down_secs: 0.02,
        up_secs: 0.05,
    });
    cfg.faults.crashes.crashes.push(CrashWindow {
        server: 3,
        down_secs: 0.04,
        up_secs: 0.08,
    });
    cfg.faults.retry.deadline_secs = 0.05;
    cfg.faults.retry.max_attempts = 4;
    let result = run_simulation(&cfg, requests(2000, 50, 4)).unwrap();
    let r = &result.recovery;
    assert_eq!(r.accepted, 2000);
    assert_eq!(r.accepted, r.completed + r.aborted, "exactly-once violated");
    assert!(r.crash_drops > 0, "crashes should drop work");
    assert!(r.retries > 0, "drops should trigger retries");
    assert!(
        r.availability() > 0.9,
        "availability = {}",
        r.availability()
    );
    // Completed-and-measured requests split between the clean and
    // fault-exposed RCT summaries.
    assert_eq!(
        r.rct_clean.count() + r.rct_fault_exposed.count(),
        result.measured
    );
    assert!(r.rct_fault_exposed.count() > 0);
}

#[test]
fn crash_without_retry_aborts_stranded_requests() {
    use das_sim::fault::CrashWindow;
    let mut cfg = quick_config(PolicyKind::Fcfs);
    cfg.faults.crashes.crashes.push(CrashWindow {
        server: 1,
        down_secs: 0.05,
        up_secs: f64::INFINITY,
    });
    let result = run_simulation(&cfg, requests(800, 100, 4)).unwrap();
    let r = &result.recovery;
    assert_eq!(r.accepted, r.completed + r.aborted);
    assert!(r.aborted > 0, "no retries: dropped ops must abort");
    assert!(r.availability() < 1.0);
    assert!(r.wasted_fraction() >= 0.0);
}

#[test]
fn loss_with_retries_still_completes_everything() {
    let mut cfg = quick_config(PolicyKind::das());
    cfg.faults.request_faults.loss = 0.05;
    cfg.faults.response_faults.loss = 0.05;
    cfg.faults.retry.deadline_secs = 0.05;
    cfg.faults.retry.max_attempts = 10;
    cfg.faults.retry.jitter = 0.3;
    let result = run_simulation(&cfg, requests(600, 100, 4)).unwrap();
    let r = &result.recovery;
    assert_eq!(r.accepted, r.completed + r.aborted);
    assert!(r.timeouts > 0, "lost messages must time out");
    assert!(r.retries > 0);
    // With a 10-attempt budget virtually everything survives 5% loss.
    assert!(
        r.availability() > 0.99,
        "availability = {}",
        r.availability()
    );
}

#[test]
fn duplication_is_detected_and_discarded() {
    let mut cfg = quick_config(PolicyKind::Fcfs);
    cfg.faults.response_faults.duplication = 1.0;
    let result = run_simulation(&cfg, requests(200, 200, 3)).unwrap();
    let r = &result.recovery;
    assert_eq!(r.completed, 200, "duplicates must not double-complete");
    assert!(r.duplicate_responses > 0);
    assert_eq!(r.aborted, 0);
}

#[test]
fn hedging_fires_on_slow_reads() {
    let mut cfg = quick_config(PolicyKind::das());
    cfg.cluster.replication = 3;
    // One gray server: up, but 50x slower — the case hedging exists for.
    cfg.cluster.perf_events.push(crate::config::PerfEvent {
        server: 2,
        start_secs: 0.0,
        end_secs: f64::INFINITY,
        multiplier: 0.02,
    });
    cfg.faults.hedge.quantile = 0.9;
    cfg.faults.hedge.min_samples = 20;
    cfg.faults.hedge.min_delay_secs = 1e-4;
    let result = run_simulation(&cfg, requests(1500, 60, 2)).unwrap();
    let r = &result.recovery;
    assert_eq!(r.accepted, r.completed + r.aborted);
    assert_eq!(r.aborted, 0, "hedging alone never aborts");
    assert!(r.hedges > 0, "gray server should trip the hedge timer");
    assert!(r.wasted_service_secs >= 0.0);
}

#[test]
fn overload_armed_but_inert_changes_nothing() {
    // A generous deadline and roomy queues with light load: the
    // overload layer is active but never fires, so every simulation
    // output must stay bit-identical to the defaults-off run.
    for policy in PolicyKind::standard_set() {
        let plain = quick_config(policy);
        let mut armed = plain.clone();
        armed.overload.admission.deadline_secs = 10.0;
        armed.overload.backpressure.tokens_per_sec = 100.0;
        let a = run_simulation(&plain, requests(300, 80, 4)).unwrap();
        let b = run_simulation(&armed, requests(300, 80, 4)).unwrap();
        assert_eq!(
            a.mean_rct().to_bits(),
            b.mean_rct().to_bits(),
            "{}",
            b.policy
        );
        assert_eq!(a.p99_rct().to_bits(), b.p99_rct().to_bits(), "{}", b.policy);
        assert_eq!(a.completed, b.completed, "{}", b.policy);
        assert_eq!(a.events_processed, b.events_processed, "{}", b.policy);
        assert_eq!(a.traffic, b.traffic, "{}", b.policy);
        assert!(!b.recovery.any_overload_seen(), "{}", b.policy);
    }
}

#[test]
fn admission_sheds_when_deadline_tight() {
    // Offered load well past saturation with a deadline the growing
    // backlog cannot meet: admission must start rejecting, and every
    // admitted request must still complete (no retry machinery here).
    let mut cfg = quick_config(PolicyKind::das());
    cfg.overload.admission.deadline_secs = 0.003;
    let result = run_simulation(&cfg, requests(3000, 3, 4)).unwrap();
    let r = &result.recovery;
    assert!(r.shed_admission > 0, "tight deadline must shed");
    assert_eq!(r.accepted, r.completed, "admitted requests all complete");
    assert_eq!(r.offered(), r.accepted + r.shed_admission);
    assert!(r.shed_fraction() > 0.0 && r.shed_fraction() < 1.0);
    assert!(r.completed > 0, "admission must not starve the system");
}

#[test]
fn write_penalty_prefers_shedding_writes() {
    let mixed: Vec<StoreRequest> = (0..100)
        .map(|i| {
            let mut reads = vec![KeyRead::read(i * 13 + 1, 4096)];
            if i % 2 == 0 {
                reads.push(KeyRead::write(i * 17 + 3, 1_000_000));
            }
            StoreRequest {
                id: i,
                arrival: SimTime::from_micros(i * 200),
                reads,
            }
        })
        .collect();
    let mut neutral = quick_config(PolicyKind::das());
    neutral.overload.admission.deadline_secs = 0.01;
    let mut penalized = neutral.clone();
    penalized.overload.admission.write_penalty = 100.0;
    let a = run_simulation(&neutral, mixed.clone()).unwrap();
    let b = run_simulation(&penalized, mixed).unwrap();
    // Light load: without the penalty everything fits the deadline;
    // with it, exactly the write-bearing half is rejected.
    assert_eq!(a.recovery.shed_admission, 0);
    assert_eq!(b.recovery.shed_admission, 50);
    assert_eq!(b.recovery.accepted, b.recovery.completed);
}

#[test]
fn bounded_queue_sheds_whole_requests() {
    let mut cfg = quick_config(PolicyKind::Fcfs);
    // Generous deadline: only the queue bound bites.
    cfg.overload.admission.deadline_secs = 1.0;
    cfg.overload.admission.queue_capacity = 4;
    let result = run_simulation(&cfg, requests(2000, 3, 4)).unwrap();
    let r = &result.recovery;
    assert!(r.shed_queue > 0, "full queues must shed");
    assert_eq!(r.accepted, r.completed + r.shed_queue);
    assert!(r.completed > 0);
    // Shed requests never record an RCT.
    assert_eq!(result.rct.count(), result.measured);
    assert_eq!(result.completed + r.shed_queue, r.accepted);
}

#[test]
fn batching_coalesces_tiny_ops_and_helps_under_overload() {
    let mut plain = quick_config(PolicyKind::Fcfs);
    plain.horizon_secs = 0.1;
    let mut batched = plain.clone();
    batched.overload.batch.max_ops = 8;
    // Saturation on 2048-byte values, so even an op coalescing two keys
    // is within `BatchConfig::TINY_OP_BYTES`: queues grow without help.
    let mut input = requests(3000, 3, 4);
    for read in input.iter_mut().flat_map(|r| &mut r.reads) {
        read.bytes = 2048;
    }
    let a = run_simulation(&plain, &input).unwrap();
    let b = run_simulation(&batched, &input).unwrap();
    let r = &b.recovery;
    assert!(r.batching.batches > 0, "queued tiny ops must coalesce");
    assert!(r.batching.mean_batch_size() > 1.0);
    assert!(r.batching.overhead_saved_secs > 0.0);
    assert_eq!(a.completed, b.completed);
    assert!(
        b.mean_rct() < a.mean_rct(),
        "amortized overhead must relieve the overload: {} !< {}",
        b.mean_rct(),
        a.mean_rct()
    );
}

#[test]
fn backpressure_denies_retries_past_budget() {
    use das_sim::fault::CrashWindow;
    let mut cfg = quick_config(PolicyKind::das());
    cfg.cluster.replication = 2;
    cfg.faults.crashes.crashes.push(CrashWindow {
        server: 0,
        down_secs: 0.02,
        up_secs: 0.05,
    });
    cfg.faults.crashes.crashes.push(CrashWindow {
        server: 3,
        down_secs: 0.04,
        up_secs: 0.08,
    });
    cfg.faults.retry.deadline_secs = 0.05;
    cfg.faults.retry.max_attempts = 4;
    // A near-empty budget: ~16 initial tokens, then 1/s refill over a
    // ~0.1s run — almost every retry wave is denied.
    cfg.overload.backpressure.tokens_per_sec = 1.0;
    let result = run_simulation(&cfg, requests(2000, 50, 4)).unwrap();
    let r = &result.recovery;
    assert!(r.retries_denied > 0, "the budget must deny retries");
    assert!(r.aborted > 0, "denied retries fail fast");
    assert_eq!(r.accepted, r.completed + r.aborted + r.shed_queue);
    assert!(r.retries <= 16 + r.crash_drops, "retry volume is bounded");
}

#[test]
fn hedges_draw_from_the_same_budget() {
    let mut cfg = quick_config(PolicyKind::das());
    cfg.cluster.replication = 3;
    cfg.cluster.perf_events.push(crate::config::PerfEvent {
        server: 2,
        start_secs: 0.0,
        end_secs: f64::INFINITY,
        multiplier: 0.02,
    });
    cfg.faults.hedge.quantile = 0.9;
    cfg.faults.hedge.min_samples = 20;
    cfg.faults.hedge.min_delay_secs = 1e-4;
    cfg.overload.backpressure.tokens_per_sec = 1.0;
    cfg.overload.backpressure.burst = 2.0;
    let result = run_simulation(&cfg, requests(1500, 60, 2)).unwrap();
    let r = &result.recovery;
    assert!(r.hedges_denied > 0, "the shared budget must deny hedges");
    assert_eq!(r.aborted, 0, "a denied hedge never aborts the request");
    assert_eq!(r.accepted, r.completed);
    assert!(r.hedges <= 2 + 1, "hedge volume is bounded by the bucket");
}

#[test]
fn overloaded_runs_are_deterministic() {
    use das_sim::fault::CrashWindow;
    let mut cfg = quick_config(PolicyKind::das());
    cfg.cluster.replication = 2;
    cfg.faults.crashes.crashes.push(CrashWindow {
        server: 2,
        down_secs: 0.01,
        up_secs: 0.04,
    });
    cfg.faults.retry.deadline_secs = 0.02;
    cfg.overload.admission.deadline_secs = 0.03;
    cfg.overload.admission.queue_capacity = 16;
    cfg.overload.backpressure.tokens_per_sec = 500.0;
    cfg.overload.backpressure.burst = 4.0;
    cfg.overload.batch.max_ops = 4;
    let a = run_simulation(&cfg, requests(2000, 5, 4)).unwrap();
    let b = run_simulation(&cfg, requests(2000, 5, 4)).unwrap();
    assert_eq!(a.mean_rct().to_bits(), b.mean_rct().to_bits());
    assert_eq!(a.recovery.shed_admission, b.recovery.shed_admission);
    assert_eq!(a.recovery.shed_queue, b.recovery.shed_queue);
    assert_eq!(a.recovery.retries_denied, b.recovery.retries_denied);
    assert_eq!(a.recovery.batching, b.recovery.batching);
    assert_eq!(a.events_processed, b.events_processed);
    assert!(a.recovery.any_overload_seen());
}

#[test]
fn shed_traces_carry_terminal_shed_events() {
    let mut cfg = quick_config(PolicyKind::Fcfs);
    cfg.overload.admission.deadline_secs = 1.0;
    cfg.overload.admission.queue_capacity = 4;
    cfg.trace = das_trace::TraceConfig::enabled();
    let result = run_simulation(&cfg, requests(2000, 3, 4)).unwrap();
    let log = result.trace.unwrap();
    let sheds = log
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Shed { .. }))
        .count() as u64;
    assert_eq!(sheds, result.recovery.shed_queue);
    // Shed requests have no RequestComplete, so the critical-path
    // reconstruction (which telescopes exactly) skips them cleanly.
    let paths = das_trace::critical_paths(&log);
    assert_eq!(paths.len() as u64, result.completed);
    for p in &paths {
        assert_eq!(p.sum_ns(), p.rct_ns, "request {}", p.request);
    }
}

#[test]
fn faulty_runs_are_deterministic() {
    use das_sim::fault::CrashWindow;
    let mut cfg = quick_config(PolicyKind::das());
    cfg.cluster.replication = 2;
    cfg.faults.crashes.crashes.push(CrashWindow {
        server: 2,
        down_secs: 0.1,
        up_secs: 0.5,
    });
    cfg.faults.request_faults.loss = 0.02;
    cfg.faults.response_faults.duplication = 0.05;
    cfg.faults.retry.deadline_secs = 0.05;
    cfg.faults.retry.jitter = 0.5;
    cfg.faults.hedge.quantile = 0.95;
    cfg.faults.hedge.min_samples = 50;
    let a = run_simulation(&cfg, requests(800, 80, 4)).unwrap();
    let b = run_simulation(&cfg, requests(800, 80, 4)).unwrap();
    assert_eq!(a.mean_rct().to_bits(), b.mean_rct().to_bits());
    assert_eq!(a.recovery.timeouts, b.recovery.timeouts);
    assert_eq!(a.recovery.retries, b.recovery.retries);
    assert_eq!(a.recovery.hedges, b.recovery.hedges);
    assert_eq!(a.recovery.aborted, b.recovery.aborted);
    assert_eq!(a.events_processed, b.events_processed);
}

#[test]
fn event_size_is_pinned() {
    // `sim_wide` sifts these through the heap. `OpArrival` carries the
    // 56-byte `OpTag` (the server builds the `QueuedOp` around it on
    // arrival) and sets the size; grouping the recovery stage's variants
    // behind `Event::Recovery` must not fatten the rest.
    assert_eq!(std::mem::size_of::<Event>(), 64);
    assert!(std::mem::size_of::<RecoveryEvent>() <= 24);
}
