//! The `rt_closed` workload: `das-rt`'s real-threaded cluster under one
//! closed-loop client. No simulator code runs here; every time is wall
//! time.

use std::time::{Duration, Instant};

use bytes::Bytes;
use das_core::scenarios;
use das_metrics::summary::LatencySummary;
use das_rt::cluster::{run_closed_loop, RtCluster, RtConfig};
use das_sched::policy::PolicyKind;
use das_sim::rng::SeedFactory;
use rand::RngCore;

use crate::alloc;
use crate::host;
use crate::sim::{policies, Scale};
use crate::span::Tracer;

/// Sizes of an rt input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtSpec {
    pub servers: usize,
    pub workers_per_server: usize,
    /// Emulated service cost per op (a busy-wait inside the worker).
    pub per_op_nanos: u64,
    pub keys: u64,
    pub value_bytes: usize,
    pub multi_gets: usize,
    /// Closed-loop client threads. One: with two workers that is three
    /// spawned threads, none of which is ever runnable without work.
    pub clients: usize,
}

impl RtSpec {
    /// The `rt_closed` workload.
    pub fn workload(scale: Scale) -> Self {
        RtSpec {
            servers: 2,
            workers_per_server: 1,
            per_op_nanos: 5_000,
            keys: scale.count(100_000, 1_000) as u64,
            value_bytes: 256,
            multi_gets: scale.count(70_000, 500),
            clients: 1,
        }
    }

    /// The small cluster the rt layer drivers run on when the workload
    /// itself is a simulator one.
    pub fn probe(scale: Scale) -> Self {
        RtSpec {
            keys: scale.count(10_000, 1_000) as u64,
            multi_gets: scale.count(5_000, 500),
            ..Self::workload(scale)
        }
    }

    pub fn spawned_threads(&self) -> usize {
        self.servers * self.workers_per_server + self.clients
    }
}

/// The generated multi-gets. The program under test only ever sees these.
pub struct RtInput {
    pub spec: RtSpec,
    pub batches: Vec<Vec<u64>>,
}

/// Builds the key batches from `seed`: fan-out from the base scenario's
/// Zipf(32, 1.0), distinct uniform keys.
pub fn input(spec: RtSpec, seed: u64) -> RtInput {
    let mut rng = SeedFactory::new(seed).stream("perf-rt-keys", 0);
    let fanout = scenarios::base_fanout().build();
    let batches = (0..spec.multi_gets)
        .map(|_| {
            let want = fanout.sample(&mut rng).min(spec.keys as usize);
            let mut keys = Vec::with_capacity(want);
            while keys.len() < want {
                let key = rng.next_u64() % spec.keys;
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
            keys
        })
        .collect();
    RtInput { spec, batches }
}

/// The value stored under `key`: the key itself, then a key-dependent fill.
fn value_of(key: u64, len: usize) -> Vec<u8> {
    let mut v = vec![(key % 251) as u8; len];
    let head = key.to_le_bytes();
    let n = head.len().min(len);
    v[..n].copy_from_slice(&head[..n]);
    v
}

/// Whether `value` is what [`value_of`] builds, without building it (the
/// checked sweep is timed, and an allocation per key would show).
fn value_matches(key: u64, len: usize, value: &[u8]) -> bool {
    let head = key.to_le_bytes();
    let n = head.len().min(len);
    value.len() == len
        && value[..n] == head[..n]
        && value[n..].iter().all(|&b| b == (key % 251) as u8)
}

/// A started and loaded cluster with what starting and loading cost.
pub struct Loaded {
    pub cluster: RtCluster,
    pub start_ns: u64,
    pub load_ns: u64,
    /// Threads of the process right after `start` (main + workers).
    pub threads: Option<usize>,
}

pub fn start_loaded(spec: &RtSpec, policy: PolicyKind, tracer: &mut Tracer) -> Loaded {
    let t = Instant::now();
    let cluster = tracer.span("rt.start", |_| {
        RtCluster::start(RtConfig {
            servers: spec.servers,
            workers_per_server: spec.workers_per_server,
            policy,
            per_op_nanos: spec.per_op_nanos,
            per_byte_nanos: 0.0,
        })
    });
    let start_ns = t.elapsed().as_nanos() as u64;
    let threads = host::thread_count();
    let t = Instant::now();
    tracer.span("rt.load", |_| {
        for key in 0..spec.keys {
            cluster.load(key, Bytes::from(value_of(key, spec.value_bytes)));
        }
    });
    Loaded {
        cluster,
        start_ns,
        load_ns: t.elapsed().as_nanos() as u64,
        threads,
    }
}

/// What a checked sweep over every batch found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verified {
    pub multi_gets: u64,
    /// Multi-gets with a missing or wrong value, or that timed out.
    pub bad: u64,
    pub retries: u64,
    pub ops: u64,
}

/// Issues every batch through `try_multi_get` and compares every value
/// with what was loaded.
pub fn verify(
    cluster: &RtCluster,
    input: &RtInput,
    tracer: &mut Tracer,
) -> (Verified, LatencySummary) {
    tracer.span("rt.try_multi_get", |_| {
        let mut out = Verified::default();
        let mut rct = LatencySummary::new();
        for batch in &input.batches {
            out.multi_gets += 1;
            match cluster.try_multi_get(batch, Duration::from_secs(30), 1) {
                Ok(reply) => {
                    out.retries += u64::from(reply.retries);
                    out.ops += reply.ops as u64;
                    rct.record(reply.rct.as_secs_f64());
                    let all_equal = batch.iter().all(|key| {
                        reply
                            .values
                            .get(key)
                            .and_then(Option::as_deref)
                            .is_some_and(|v| value_matches(*key, input.spec.value_bytes, v))
                    });
                    if !all_equal || reply.values.len() != batch.len() {
                        out.bad += 1;
                    }
                }
                Err(_) => out.bad += 1,
            }
        }
        (out, rct)
    })
}

/// One policy's part of an rt pass.
pub struct RtPolicyRun {
    pub label: &'static str,
    pub start_ns: u64,
    pub load_ns: u64,
    pub threads: Option<usize>,
    /// Wall time of the closed loop (or of the checked sweep).
    pub ns: u64,
    pub allocs: u64,
    pub peak_bytes: u64,
    pub rct: LatencySummary,
    /// Present when the pass was a checked sweep.
    pub verified: Option<Verified>,
}

/// One pass: per policy, start and load a cluster, drive every batch
/// through it, shut it down. A `checked` pass uses `try_multi_get` and
/// compares values; a timed pass uses `run_closed_loop`, which is what the
/// end-to-end numbers measure.
pub fn pass(input: &RtInput, checked: bool, tracer: &mut Tracer) -> Vec<RtPolicyRun> {
    policies()
        .into_iter()
        .map(|(label, policy)| {
            let loaded = start_loaded(&input.spec, policy, tracer);
            alloc::reset_peak();
            let allocs = alloc::allocs();
            let t = Instant::now();
            let (rct, verified) = if checked {
                let (v, rct) = verify(&loaded.cluster, input, tracer);
                (rct, Some(v))
            } else {
                let rct = tracer.span("rt.run_closed_loop", |_| {
                    run_closed_loop(&loaded.cluster, input.spec.clients, &input.batches)
                });
                (rct, None)
            };
            let ns = t.elapsed().as_nanos() as u64;
            let allocs = alloc::allocs() - allocs;
            let peak_bytes = alloc::peak_bytes();
            tracer.span("rt.shutdown", |_| loaded.cluster.shutdown());
            RtPolicyRun {
                label,
                start_ns: loaded.start_ns,
                load_ns: loaded.load_ns,
                threads: loaded.threads,
                ns,
                allocs,
                peak_bytes,
                rct,
                verified,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_seeded_distinct_and_in_range() {
        let spec = RtSpec::workload(Scale::SMOKE);
        let a = input(spec, 42);
        let b = input(spec, 42);
        let c = input(spec, 7);
        assert_eq!(a.batches, b.batches);
        assert_ne!(a.batches, c.batches);
        assert_eq!(a.batches.len(), spec.multi_gets);
        for batch in &a.batches {
            assert!((1..=32).contains(&batch.len()));
            assert!(batch.iter().all(|&k| k < spec.keys));
            let mut sorted = batch.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), batch.len());
        }
    }

    #[test]
    fn a_checked_pass_reads_back_exactly_what_was_loaded() {
        let spec = RtSpec {
            multi_gets: 200,
            ..RtSpec::probe(Scale::SMOKE)
        };
        let input = input(spec, 42);
        let runs = pass(&input, true, &mut Tracer::new(false));
        assert_eq!(runs.len(), 3);
        for run in &runs {
            let v = run.verified.unwrap();
            assert_eq!((v.multi_gets, v.bad, v.retries), (200, 0, 0));
            assert_eq!(run.rct.count(), 200);
        }
    }

    #[test]
    fn values_differ_between_keys() {
        assert_ne!(value_of(1, 256), value_of(2, 256));
        assert_eq!(value_of(300, 4), 300u64.to_le_bytes()[..4].to_vec());
        assert!(value_matches(300, 256, &value_of(300, 256)));
        assert!(!value_matches(300, 256, &value_of(301, 256)));
        assert!(!value_matches(300, 256, &value_of(300, 255)));
    }
}
