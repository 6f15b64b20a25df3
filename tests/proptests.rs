//! Property-based tests (proptest) on the core invariants: scheduler
//! conservation, event-queue ordering, partitioner correctness, histogram
//! bounds, and end-to-end engine sanity on random small configurations.

// Integration tests unwrap freely: a panic is the failure report.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use das_repro::metrics::histogram::LogHistogram;
use das_repro::sched::policy::PolicyKind;
use das_repro::sched::types::{OpId, OpTag, QueuedOp, RequestId};
use das_repro::sim::queue::EventQueue;
use das_repro::sim::time::{SimDuration, SimTime};
use das_repro::store::engine::{run_simulation, KeyRead, StoreRequest};
use das_repro::store::{PartitionerConfig, SimulationConfig};

fn arbitrary_op() -> impl Strategy<Value = (u64, u64, u64, u64)> {
    // (request, local_us, bottleneck_us, enqueue_us)
    (0u64..64, 1u64..5_000, 1u64..20_000, 0u64..1_000)
}

fn make_op(req: u64, local_us: u64, bottleneck_us: u64, enq_us: u64, index: u32) -> QueuedOp {
    QueuedOp {
        tag: OpTag {
            op: OpId {
                request: RequestId(req),
                index,
            },
            request_arrival: SimTime::from_micros(enq_us),
            fanout: 4,
            local_estimate: SimDuration::from_micros(local_us),
            bottleneck_eta: SimTime::from_micros(enq_us + bottleneck_us),
            bottleneck_demand: SimDuration::from_micros(bottleneck_us),
        },
        local_estimate: SimDuration::from_micros(local_us),
        enqueued_at: SimTime::from_micros(enq_us),
    }
}

fn all_policies() -> Vec<PolicyKind> {
    let mut p = PolicyKind::standard_set();
    p.extend(PolicyKind::ablation_set());
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every op enqueued into any scheduler comes out exactly once, and
    /// the queued-work gauge returns to zero.
    #[test]
    fn scheduler_conservation(ops in proptest::collection::vec(arbitrary_op(), 1..80)) {
        for policy in all_policies() {
            let mut sched = policy.build();
            let now = SimTime::from_millis(2);
            let mut expected: Vec<OpId> = Vec::new();
            for (i, &(req, local, bott, enq)) in ops.iter().enumerate() {
                let op = make_op(req, local, bott, enq, i as u32);
                expected.push(op.tag.op);
                sched.enqueue(op, now);
            }
            prop_assert_eq!(sched.len(), ops.len());
            let mut drained: Vec<OpId> = Vec::new();
            while let Some((op, _)) = sched.dequeue(now) {
                drained.push(op.tag.op);
            }
            prop_assert_eq!(sched.len(), 0);
            prop_assert_eq!(sched.queued_work(), SimDuration::ZERO);
            drained.sort();
            expected.sort();
            prop_assert_eq!(drained, expected);
        }
    }

    /// Interleaved enqueue/dequeue also conserves ops.
    #[test]
    fn scheduler_conservation_interleaved(
        ops in proptest::collection::vec(arbitrary_op(), 1..60),
        pop_pattern in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        for policy in all_policies() {
            let mut sched = policy.build();
            let now = SimTime::from_millis(2);
            let mut in_count = 0usize;
            let mut out_count = 0usize;
            let mut pat = pop_pattern.iter().cycle();
            for (i, &(req, local, bott, enq)) in ops.iter().enumerate() {
                sched.enqueue(make_op(req, local, bott, enq, i as u32), now);
                in_count += 1;
                if *pat.next().unwrap() && sched.dequeue(now).is_some() {
                    out_count += 1;
                }
            }
            while sched.dequeue(now).is_some() {
                out_count += 1;
            }
            prop_assert_eq!(in_count, out_count);
            prop_assert!(sched.is_empty());
        }
    }

    /// The event queue is a total order: pops are sorted by (time, seq).
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut last_seq_at_time = None::<u64>;
        while let Some(s) = q.pop() {
            prop_assert!(s.time >= last_time);
            if s.time == last_time {
                if let Some(prev) = last_seq_at_time {
                    prop_assert!(s.seq > prev, "FIFO violated on tie");
                }
            }
            last_time = s.time;
            last_seq_at_time = Some(s.seq);
        }
    }

    /// The ring maps every key to a valid server and replicas are
    /// distinct, from one vnode per server up.
    #[test]
    fn partitioner_validity(
        keys in proptest::collection::vec(any::<u64>(), 1..100),
        servers in 1u32..64,
        replicas in 1u32..6,
    ) {
        for vnodes in [1, 16, 128] {
            let p = PartitionerConfig::ConsistentHash { vnodes }.build(servers);
            for &k in &keys {
                let primary = p.primary(k);
                prop_assert!(primary.0 < servers);
                let reps = p.replicas(k, replicas);
                prop_assert_eq!(reps[0], primary);
                prop_assert_eq!(reps.len(), replicas.min(servers) as usize);
                let set: std::collections::HashSet<_> = reps.iter().collect();
                prop_assert_eq!(set.len(), reps.len());
            }
        }
    }

    /// Histogram quantiles stay within [min, max] and are monotone in q.
    #[test]
    fn histogram_quantile_bounds(values in proptest::collection::vec(1e-9f64..1e6, 1..300)) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0, f64::max);
        let mut last = 0.0f64;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= min * 0.99 && v <= max * 1.01, "q={q} v={v} range=[{min},{max}]");
            prop_assert!(v >= last * 0.999, "quantiles must be monotone");
            last = v;
        }
        prop_assert!((h.mean() - values.iter().sum::<f64>() / values.len() as f64).abs()
            < 1e-6 * values.len() as f64);
    }
}

proptest! {
    // End-to-end runs are costly; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random small clusters and workloads: the engine always completes
    /// everything, never beats the zero-queueing bound, and is
    /// deterministic.
    #[test]
    fn engine_sanity_on_random_configs(
        servers in 1u32..12,
        workers in 1u32..3,
        replication in 1u32..3,
        n_requests in 1u64..120,
        gap_us in 10u64..500,
        max_keys in 1usize..10,
        seed in 0u64..1_000,
    ) {
        let requests: Vec<StoreRequest> = (0..n_requests)
            .map(|i| StoreRequest {
                id: i,
                arrival: SimTime::from_micros(i * gap_us),
                reads: (0..=(i as usize % max_keys))
                    .map(|k| {
                        let key = i.wrapping_mul(2654435761).wrapping_add(k as u64 * 97);
                        let bytes = 1024 + (i as u32 % 9000);
                        // Mix in some writes.
                        if (i + k as u64).is_multiple_of(5) {
                            KeyRead::write(key, bytes)
                        } else {
                            KeyRead::read(key, bytes)
                        }
                    })
                    .collect(),
            })
            .collect();
        for policy in [PolicyKind::Fcfs, PolicyKind::das()] {
            let mut cfg = SimulationConfig::new(policy, 10.0);
            cfg.cluster.servers = servers;
            cfg.cluster.workers_per_server = workers;
            cfg.cluster.replication = replication;
            cfg.warmup_secs = 0.0;
            cfg.seed = seed;
            let a = run_simulation(&cfg, requests.clone()).unwrap();
            prop_assert_eq!(a.completed, n_requests);
            // The zero-queueing bound uses *mean* network delays, so it
            // holds in expectation: only check it once the sample is large
            // enough for the law of large numbers to bite.
            if a.measured >= 50 {
                prop_assert!(a.mean_rct() >= a.lower_bound_mean_rct * 0.95);
            }
            let b = run_simulation(&cfg, requests.clone()).unwrap();
            prop_assert_eq!(a.mean_rct().to_bits(), b.mean_rct().to_bits());
        }
    }
}
