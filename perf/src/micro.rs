//! Layer drivers that need no workload: each calls one public function of
//! one layer in a loop and reports the median cost per call over `REPS`
//! repetitions. They run in every traced run, so their numbers sit beside
//! the workload's on the same host at the same time.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use das_core::experiment::PolicySummary;
use das_core::scenarios;
use das_metrics::summary::LatencySummary;
use das_rt::server::{RtOp, RtServer};
use das_rt::store::InMemoryStore;
use das_sched::policy::PolicyKind;
use das_sched::types::{HintUpdate, OpId, OpTag, QueuedOp, RequestId};
use das_sim::discrete::{SampleDiscrete, Zipf};
use das_sim::dist::{BoundedPareto, Exponential, Sample};
use das_sim::queue::EventQueue;
use das_sim::rng::{splitmix64, SeedFactory};
use das_sim::time::{SimDuration, SimTime};
use das_store::engine::RunResult;
use das_store::partition::PartitionerConfig;
use das_workload::generator::{WorkloadGenerator, WorkloadSpec};
use das_workload::keyspace::KeySpace;
use rand::RngCore;

use crate::doc::Report;
use crate::sim::{experiment, policies, sim_config, Scale, SimKind};
use crate::span::Tracer;
use crate::stats::{summarize, Summary};

/// Repetitions behind every micro-driver median.
const REPS: usize = 5;

/// Cost per operation, in nanoseconds, of `REPS` runs of `f`, each of
/// which performs `ops` operations.
pub fn ns_per_op(ops: u64, mut f: impl FnMut()) -> Summary {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    summarize(&samples)
}

fn scaled(s: Summary, factor: f64) -> Summary {
    Summary {
        median: s.median * factor,
        q1: s.q1 * factor,
        q3: s.q3 * factor,
        n: s.n,
    }
}

/// A queued op whose demands are a fixed function of `i`, so every
/// repetition sorts the same values.
fn synthetic_op(i: u64, now: SimTime) -> QueuedOp {
    let h = splitmix64(i);
    let local = SimDuration::from_micros(100 + h % 4_900);
    let bottleneck = local + SimDuration::from_micros((h >> 32) % 5_000);
    QueuedOp {
        tag: OpTag {
            op: OpId {
                request: RequestId(i),
                index: 0,
            },
            request_arrival: now,
            fanout: 1 + (h % 8) as u32,
            local_estimate: local,
            bottleneck_eta: now + bottleneck,
            bottleneck_demand: bottleneck,
        },
        local_estimate: local,
        enqueued_at: now,
    }
}

/// Enqueue + dequeue pairs with the queue held at `depth` (it is
/// `depth` after each enqueue and `depth - 1` after each dequeue).
fn sched_pair(policy: PolicyKind, depth: usize, pairs: u64) -> Summary {
    let mut scheduler = policy.build();
    let mut now = SimTime::ZERO;
    let mut next = 0u64;
    for _ in 1..depth {
        scheduler.enqueue(synthetic_op(next, now), now);
        next += 1;
    }
    ns_per_op(pairs, || {
        for _ in 0..pairs {
            now += SimDuration::from_micros(1);
            scheduler.enqueue(synthetic_op(next, now), now);
            next += 1;
            black_box(scheduler.dequeue(now));
        }
    })
}

/// `on_hint` calls against a queue of `depth` ops.
fn sched_hint(policy: PolicyKind, depth: usize, hints: u64) -> Summary {
    let mut scheduler = policy.build();
    let now = SimTime::from_millis(1);
    for i in 0..depth as u64 {
        scheduler.enqueue(synthetic_op(i, now), now);
    }
    let mut i = 0u64;
    ns_per_op(hints, || {
        for _ in 0..hints {
            i += 1;
            let update = HintUpdate {
                bottleneck_eta: now + SimDuration::from_micros(100 + i % 1_000),
                remaining_demand: SimDuration::from_micros(100 + i % 1_000),
            };
            scheduler.on_hint(RequestId(i % depth as u64), update, now);
        }
    })
}

fn sched_drivers(report: &mut Report, scale: Scale) {
    for (label, policy) in policies() {
        for depth in [1usize, 16, 256, 4096] {
            // Fewer pairs where one DAS dequeue scans thousands of slots.
            let pairs = scale.count(if depth > 256 { 2_000 } else { 20_000 }, 200) as u64;
            report.put(
                &format!("sched.pair_ns.{label}.d{depth}"),
                sched_pair(policy, depth, pairs),
            );
        }
    }
    for depth in [16usize, 4096] {
        let hints = scale.count(if depth > 256 { 2_000 } else { 20_000 }, 200) as u64;
        report.put(
            &format!("sched.hint_ns.das.d{depth}"),
            sched_hint(PolicyKind::das(), depth, hints),
        );
    }
}

/// The classic hold model: pop the earliest event, schedule a new one,
/// with `live` events in the queue throughout and a 64-byte payload (the
/// engine's `Event` is about that big).
fn queue_hold(live: usize, holds: u64) -> Summary {
    let mut rng = SeedFactory::new(1).stream("perf-hold", live as u64);
    let mut queue: EventQueue<[u64; 8]> = EventQueue::with_capacity(live + 1);
    for i in 0..live as u64 {
        queue.schedule(SimTime::from_nanos(rng.next_u64() % 1_000_000_000), [i; 8]);
    }
    let exp = Exponential::with_mean(1e9);
    let steps: Vec<u64> = (0..4096).map(|_| exp.sample(&mut rng) as u64).collect();
    let mut i = 0usize;
    ns_per_op(holds, || {
        for _ in 0..holds {
            let head = queue.pop().expect("the hold model never drains");
            i = (i + 1) % steps.len();
            queue.schedule(head.time + SimDuration::from_nanos(steps[i]), head.event);
        }
    })
}

fn sim_drivers(report: &mut Report, scale: Scale) {
    let holds = scale.count(200_000, 2_000) as u64;
    for (label, live) in [("n1k", 1 << 10), ("n32k", 32 << 10), ("n256k", 256 << 10)] {
        report.put(
            &format!("sim.queue_hold_ns.{label}"),
            queue_hold(live, holds),
        );
    }
    let draws = scale.count(500_000, 5_000) as u64;
    let mut rng = SeedFactory::new(1).stream("perf-sample", 0);
    let exp = Exponential::with_mean(1.0);
    report.put(
        "sim.sample_ns.exp",
        ns_per_op(draws, || {
            for _ in 0..draws {
                black_box(exp.sample(&mut rng));
            }
        }),
    );
    let pareto = BoundedPareto::new(512.0, 262_144.0, 1.1);
    report.put(
        "sim.sample_ns.bounded_pareto",
        ns_per_op(draws, || {
            for _ in 0..draws {
                black_box(pareto.sample(&mut rng));
            }
        }),
    );
    let zipf = Zipf::new(32, 1.0);
    report.put(
        "sim.sample_ns.zipf",
        ns_per_op(draws, || {
            for _ in 0..draws {
                black_box(zipf.sample(&mut rng));
            }
        }),
    );
}

fn store_and_net_drivers(report: &mut Report, scale: Scale) {
    let lookups = scale.count(200_000, 2_000) as u64;
    for servers in [50u32, 1024] {
        let partitioner = PartitionerConfig::ConsistentHash { vnodes: 128 }.build(servers);
        report.put(
            &format!("store.partition_primary_ns.s{servers}"),
            ns_per_op(lookups, || {
                for key in 0..lookups {
                    black_box(partitioner.primary(splitmix64(key)));
                }
            }),
        );
        if servers == 50 {
            report.put(
                "store.partition_replicas_ns.s50",
                ns_per_op(lookups, || {
                    for key in 0..lookups {
                        black_box(partitioner.replicas(splitmix64(key), 3));
                    }
                }),
            );
        }
    }
    // Validation walks the cluster, fault and overload profiles; the
    // fault workload's config has all three populated.
    let e = experiment(SimKind::FaultsTraced, 1, scale);
    let config = sim_config(&e, PolicyKind::das(), e.trace);
    let calls = scale.count(2_000, 100) as u64;
    report.put(
        "store.validate_us",
        scaled(
            ns_per_op(calls, || {
                for _ in 0..calls {
                    black_box(config.validate()).expect("the workload config is valid");
                }
            }),
            1e-3,
        ),
    );
    let network = scenarios::base_cluster().network.build();
    let mut rng = SeedFactory::new(1).stream("perf-net", 0);
    let draws = scale.count(500_000, 5_000) as u64;
    report.put(
        "net.delay_ns",
        ns_per_op(draws, || {
            for i in 0..draws {
                black_box(network.delay(64 + i % 65_536, &mut rng));
            }
        }),
    );
}

fn metrics_drivers(report: &mut Report, scale: Scale) {
    let records = scale.count(1_000_000, 10_000) as u64;
    let mut summary = LatencySummary::new();
    report.put(
        "metrics.record_ns",
        ns_per_op(records, || {
            for i in 0..records {
                summary.record(1e-4 * (1 + splitmix64(i) % 10_000) as f64);
            }
        }),
    );
    let queries = scale.count(2_000, 100) as u64;
    report.put(
        "metrics.quantile_us",
        scaled(
            ns_per_op(queries, || {
                for i in 0..queries {
                    black_box(summary.quantile(0.5 + 0.49 * (i % 2) as f64));
                }
            }),
            1e-3,
        ),
    );
}

/// The pieces set-up is made of, on the workload's own spec.
fn setup_drivers(report: &mut Report, spec: &WorkloadSpec, das_run: &RunResult, scale: Scale) {
    let seeds = SeedFactory::new(1);
    report.put(
        "workload.keyspace_build_ms",
        scaled(
            ns_per_op(1, || {
                black_box(KeySpace::with_hot_key_cap(
                    spec.n_keys,
                    &spec.sizes,
                    &spec.popularity,
                    spec.hot_key_size_cap,
                    &seeds,
                ));
            }),
            1e-6,
        ),
    );
    let n = scale.count(20_000, 1_000);
    let mut generator = WorkloadGenerator::new(spec, &seeds);
    let mut trace = Vec::new();
    report.put(
        "workload.gen_ns_per_req",
        ns_per_op(n as u64, || {
            trace.clear();
            trace.extend((0..n).map_while(|_| generator.next_request()));
        }),
    );
    let mut jsonl = Vec::new();
    report.put(
        "workload.trace_write_ns_per_req",
        ns_per_op(trace.len() as u64, || {
            jsonl.clear();
            das_workload::trace::write_trace(&mut jsonl, &trace)
                .expect("a generated trace is valid");
        }),
    );
    report.put(
        "workload.trace_read_ns_per_req",
        ns_per_op(trace.len() as u64, || {
            black_box(das_workload::trace::read_trace(&jsonl[..]).expect("just written"));
        }),
    );
    report.put(
        "core.resolve_ns_per_req",
        ns_per_op(trace.len() as u64, || {
            black_box(das_core::adapter::trace_to_requests(&trace, spec, &seeds));
        }),
    );
    let calls = scale.count(2_000, 100) as u64;
    report.put(
        "core.summary_us",
        scaled(
            ns_per_op(calls, || {
                for _ in 0..calls {
                    black_box(PolicySummary::from_run(das_run));
                }
            }),
            1e-3,
        ),
    );
}

/// One thread pushes bursts of 256 ops into a single one-worker
/// `RtServer` and drains the replies: the real lock, the real queue depth,
/// two threads.
fn server_burst(policy: PolicyKind, bursts: u64) -> Summary {
    const BURST: u64 = 256;
    let server = RtServer::start(policy, 1, Instant::now());
    for key in 0..1024u64 {
        server.load(key, Bytes::from(vec![key as u8; 64]));
    }
    let (reply, replies) = das_sync::channel::bounded(BURST as usize);
    let mut next = 0u64;
    let result = ns_per_op(bursts * BURST, || {
        for _ in 0..bursts {
            for _ in 0..BURST {
                server.submit(RtOp {
                    queued: synthetic_op(next, server.now()),
                    keys: vec![next % 1024],
                    service_nanos: 0,
                    reply: reply.clone(),
                });
                next += 1;
            }
            for _ in 0..BURST {
                black_box(replies.recv().expect("the worker is alive"));
            }
        }
    });
    server.shutdown();
    result
}

fn rt_drivers(report: &mut Report, scale: Scale) {
    let keys = scale.count(100_000, 1_000) as u64;
    let store = InMemoryStore::new();
    for key in 0..keys {
        store.put(key, Bytes::from(vec![key as u8; 256]));
    }
    let gets = scale.count(500_000, 5_000) as u64;
    report.put(
        "rt.store_get_ns",
        ns_per_op(gets, || {
            for i in 0..gets {
                black_box(store.get(splitmix64(i) % keys));
            }
        }),
    );
    let bursts = scale.count(40, 2) as u64;
    for (label, policy) in [("fcfs", PolicyKind::Fcfs), ("das", PolicyKind::das())] {
        report.put(
            &format!("rt.server_burst_ns_per_op.{label}.d256"),
            server_burst(policy, bursts),
        );
    }
}

/// Runs every workload-independent driver. `spec` and `das_run` feed the
/// set-up drivers: the workload's own spec and one of its DAS results.
pub fn run(
    report: &mut Report,
    tracer: &mut Tracer,
    spec: &WorkloadSpec,
    das_run: &RunResult,
    scale: Scale,
) {
    tracer.span("layer.sched", |_| sched_drivers(report, scale));
    tracer.span("layer.sim", |_| sim_drivers(report, scale));
    tracer.span("layer.store_net", |_| store_and_net_drivers(report, scale));
    tracer.span("layer.metrics", |_| metrics_drivers(report, scale));
    tracer.span("layer.setup", |_| {
        setup_drivers(report, spec, das_run, scale)
    });
    tracer.span("layer.rt_micro", |_| rt_drivers(report, scale));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn held_depth_drivers_leave_the_queue_at_its_depth() {
        // The pair driver's invariant, checked directly on a scheduler.
        let mut s = PolicyKind::das().build();
        let now = SimTime::ZERO;
        for i in 0..15 {
            s.enqueue(synthetic_op(i, now), now);
        }
        for i in 15..40 {
            s.enqueue(synthetic_op(i, now), now);
            assert_eq!(s.len(), 16);
            assert!(s.dequeue(now).is_some());
            assert_eq!(s.len(), 15);
        }
        assert!(sched_pair(PolicyKind::Fcfs, 16, 100).median > 0.0);
        assert!(sched_hint(PolicyKind::das(), 16, 100).median > 0.0);
    }

    #[test]
    fn hold_model_keeps_its_live_set() {
        assert!(queue_hold(1 << 10, 1_000).median > 0.0);
    }

    #[test]
    fn burst_driver_gets_every_reply() {
        assert!(server_burst(PolicyKind::das(), 2).median > 0.0);
    }
}
