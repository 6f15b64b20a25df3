//! Property-based tests on the streaming-telemetry fold and the N-way
//! policy-ladder diff: per-server busy + idle occupancy conserves exactly
//! to `workers × horizon`, epoch-bucketed event counts sum to the
//! engine's own recovery totals at full sampling, and ladder step deltas
//! both telescope exactly to the end-to-end diff and reproduce the
//! pairwise `diff_traces` results they generalize — all in integer
//! nanoseconds, on clean and fault-injected random configurations.

// Integration tests unwrap freely: a panic is the failure report.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use das_repro::sched::policy::PolicyKind;
use das_repro::sim::fault::CrashWindow;
use das_repro::sim::time::SimTime;
use das_repro::store::engine::{run_simulation, KeyRead, StoreRequest};
use das_repro::store::SimulationConfig;
use das_repro::trace::{
    diff_traces, ladder_diff, telemetry, TraceConfig, TraceEvent, TelemetryConfig,
};

/// `n` requests of up to `max_keys` keys: the first `burst` arrive
/// together at time zero, the rest `gap_us` apart. Values stay under
/// 640 B, so even an op coalescing six keys is within
/// `BatchConfig::TINY_OP_BYTES`.
fn requests(n: u64, burst: u64, gap_us: u64, max_keys: usize) -> Vec<StoreRequest> {
    (0..n)
        .map(|i| StoreRequest {
            id: i,
            arrival: SimTime::from_micros(i.saturating_sub(burst) * gap_us),
            reads: (0..=(i as usize % max_keys))
                .map(|k| {
                    let key = i.wrapping_mul(2654435761).wrapping_add(k as u64 * 97);
                    let bytes = 128 + (i as u32 % 512);
                    if (i + k as u64).is_multiple_of(5) {
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

    /// The occupancy conservation law: for every server, over every epoch,
    /// busy time never exceeds the worker capacity of the epoch, and
    /// total busy + total idle equals `workers × horizon` exactly —
    /// integer nanoseconds, no rounding residue.
    #[test]
    fn busy_plus_idle_conserves_worker_capacity(
        servers in 2u32..8,
        workers in 1u32..3,
        n_requests in 20u64..120,
        gap_us in 20u64..400,
        max_keys in 1usize..8,
        epoch_ms in 1u64..50,
        seed in 0u64..1_000,
    ) {
        for policy in [PolicyKind::Fcfs, PolicyKind::das()] {
            let mut cfg = SimulationConfig::new(policy, 5.0);
            cfg.cluster.servers = servers;
            cfg.cluster.workers_per_server = workers;
            cfg.warmup_secs = 0.0;
            cfg.seed = seed;
            cfg.trace = TraceConfig::enabled();
            let r = run_simulation(&cfg, requests(n_requests, 0, gap_us, max_keys)).unwrap();
            let log = r.trace.as_ref().unwrap();
            prop_assert_eq!(log.dropped, 0);
            let tcfg = TelemetryConfig {
                epoch_ns: epoch_ms * 1_000_000,
                workers,
            };
            let t = telemetry::fold(log, &tcfg);
            let capacity = t.capacity_ns();
            prop_assert_eq!(capacity, u64::from(workers) * t.horizon_ns());
            for s in t.servers.values() {
                for &busy in &s.busy_ns {
                    prop_assert!(
                        busy <= u64::from(workers) * tcfg.epoch_ns,
                        "server {}: epoch busy {} exceeds capacity",
                        s.server, busy
                    );
                }
                prop_assert_eq!(
                    s.total_busy_ns() + s.total_idle_ns(&tcfg),
                    capacity,
                    "server {}: busy + idle must equal workers x horizon exactly",
                    s.server
                );
            }
            // The fold is a pure function of the log: folding again is
            // bit-identical.
            prop_assert_eq!(telemetry::fold(log, &tcfg), t);
        }
    }

    /// At full sampling the epoch-bucketed rate counters are an exact
    /// re-binning of the engine's own recovery accounting: retries,
    /// hedges, sheds (admission + queue), and batch pulls (leader +
    /// followers) each sum across servers and epochs to the corresponding
    /// `RecoveryStats` total, and hint counts match the raw event stream.
    #[test]
    fn epoch_counts_sum_to_recovery_totals(
        servers in 3u32..8,
        seed in 0u64..500,
        crash_at_us in 1_000u64..5_000,
        crash_for_us in 500u64..4_000,
        req_loss in 0.0f64..0.2,
        deadline_us in 2_000u64..20_000,
        max_attempts in 2u32..=5,
        queue_capacity in 4u32..=64,
        batch_max_ops in 0u32..=6,
        epoch_ms in 1u64..20,
    ) {
        for policy in [PolicyKind::Fcfs, PolicyKind::das()] {
            let mut cfg = SimulationConfig::new(policy, 1.0);
            cfg.cluster.servers = servers;
            cfg.cluster.replication = 2;
            cfg.warmup_secs = 0.0;
            cfg.seed = seed;
            cfg.faults.crashes.crashes.push(CrashWindow {
                server: seed as u32 % servers,
                down_secs: crash_at_us as f64 * 1e-6,
                up_secs: (crash_at_us + crash_for_us) as f64 * 1e-6,
            });
            cfg.faults.request_faults.loss = req_loss;
            cfg.faults.retry.deadline_secs = deadline_us as f64 * 1e-6;
            cfg.faults.retry.max_attempts = max_attempts;
            // Arm the overload layer too, so shed and batch counters see
            // real traffic. The admission deadline must contain the retry
            // deadline to validate.
            cfg.overload.admission.deadline_secs = deadline_us as f64 * 2e-6;
            cfg.overload.admission.queue_capacity = queue_capacity;
            cfg.overload.batch.max_ops = batch_max_ops;
            prop_assert_eq!(
                cfg.overload.validate(cfg.faults.retry.deadline_secs),
                Ok(())
            );
            cfg.trace = TraceConfig::enabled();
            let r = run_simulation(&cfg, requests(200, 64, 30, 6)).unwrap();
            let log = r.trace.as_ref().unwrap();
            prop_assert_eq!(log.dropped, 0);
            let t = telemetry::fold(log, &TelemetryConfig {
                epoch_ns: epoch_ms * 1_000_000,
                workers: cfg.cluster.workers_per_server,
            });
            let sum = |f: fn(&telemetry::ServerSeries) -> u64| -> u64 {
                t.servers.values().map(f).sum()
            };
            let rec = &r.recovery;
            // The opening burst queues tiny ops: batching, when on, is
            // reached in every case.
            prop_assert_eq!(rec.batching.batches > 0, batch_max_ops > 1);
            prop_assert_eq!(
                sum(|s| telemetry::ServerSeries::total(&s.retries)),
                rec.retries
            );
            prop_assert_eq!(sum(|s| telemetry::ServerSeries::total(&s.hedges)), rec.hedges);
            prop_assert_eq!(
                sum(|s| telemetry::ServerSeries::total(&s.sheds)),
                rec.shed_admission + rec.shed_queue
            );
            // One `Batched` event per member, leader included: the total
            // is batches (leaders) + batched_ops (followers).
            prop_assert_eq!(
                sum(|s| telemetry::ServerSeries::total(&s.batched_ops)),
                rec.batching.batches + rec.batching.batched_ops
            );
            let hint_events = log
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::HintArrive { .. }))
                .count() as u64;
            prop_assert_eq!(sum(|s| telemetry::ServerSeries::total(&s.hints)), hint_events);
            let enqueue_events = log
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::OpEnqueue { .. }))
                .count() as u64;
            prop_assert_eq!(
                sum(|s| telemetry::ServerSeries::total(&s.enqueues)),
                enqueue_events
            );
        }
    }

    /// The ladder generalizes the pair without changing it: on a clean
    /// fully-sampled run every rung completes every request, so each
    /// ladder step reproduces the standalone pairwise `diff_traces`
    /// result exactly, and the per-request step deltas telescope — in
    /// integer nanoseconds — to the end-to-end diff, which itself equals
    /// the direct first-vs-last pairwise diff.
    #[test]
    fn ladder_steps_compose_exactly_from_pairwise_diffs(
        servers in 2u32..8,
        n_requests in 20u64..80,
        gap_us in 20u64..300,
        max_keys in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let mut logs = Vec::new();
        for policy in [PolicyKind::Fcfs, PolicyKind::ReinSbf, PolicyKind::das()] {
            let mut cfg = SimulationConfig::new(policy, 5.0);
            cfg.cluster.servers = servers;
            cfg.warmup_secs = 0.0;
            cfg.seed = seed;
            cfg.trace = TraceConfig::enabled();
            let r = run_simulation(&cfg, requests(n_requests, 0, gap_us, max_keys)).unwrap();
            prop_assert_eq!(r.completed, n_requests);
            logs.push(r.trace.unwrap());
        }
        let refs: Vec<&_> = logs.iter().collect();
        let ladder = ladder_diff(&refs).unwrap();
        prop_assert_eq!(ladder.matched, n_requests);
        prop_assert_eq!(ladder.steps.len(), 2);
        prop_assert_eq!(&ladder.only_in_rung, &vec![0, 0, 0]);

        // Each step is exactly the pairwise diff of its two rungs.
        let d01 = diff_traces(&logs[0], &logs[1]).unwrap();
        let d12 = diff_traces(&logs[1], &logs[2]).unwrap();
        prop_assert_eq!(&ladder.steps[0], &d01);
        prop_assert_eq!(&ladder.steps[1], &d12);
        // And the end-to-end diff is exactly first vs last.
        let d02 = diff_traces(&logs[0], &logs[2]).unwrap();
        prop_assert_eq!(&ladder.end_to_end, &d02);

        // Telescoping, per request: step deltas sum to the end-to-end
        // delta with zero residue.
        for (a, (b, e)) in ladder.steps[0]
            .deltas
            .iter()
            .zip(ladder.steps[1].deltas.iter().zip(&ladder.end_to_end.deltas))
        {
            prop_assert_eq!(a.request, b.request);
            prop_assert_eq!(a.request, e.request);
            prop_assert_eq!(a.rct_delta_ns + b.rct_delta_ns, e.rct_delta_ns);
            prop_assert_eq!(a.sum_ns() + b.sum_ns(), e.sum_ns());
        }
        // And per segment sum, across the whole population.
        for i in 0..5 {
            let step_total: i64 = ladder
                .steps
                .iter()
                .map(|d| d.sum_b_ns[i] as i64 - d.sum_a_ns[i] as i64)
                .sum();
            let end: i64 =
                ladder.end_to_end.sum_b_ns[i] as i64 - ladder.end_to_end.sum_a_ns[i] as i64;
            prop_assert_eq!(step_total, end);
        }
        // Per-server drill-down partitions the matched population.
        let grouped: u64 = ladder.servers.iter().map(|s| s.matched).sum();
        prop_assert_eq!(grouped, ladder.matched);
    }
}
