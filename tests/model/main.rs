//! Model-checked invariants of the real-threaded engine.
//!
//! Compiled only under `RUSTFLAGS="--cfg das_model"`, where the das-sync
//! facade routes every lock, channel, atomic, and spawn in `das-rt`
//! through the das-check deterministic scheduler. Each test explores a
//! bounded set of thread interleavings of the *real* server/cluster code
//! and fails with a replayable schedule if any interleaving panics,
//! races, deadlocks, or loses a wakeup.
//!
//! Scenarios use `PolicyKind::Fcfs` and zero service cost: FCFS dequeue
//! order is wall-clock independent, so the explored state space is
//! deterministic across runs (the DAS policy ranks by wall-time waits,
//! which the model cannot control).

#![cfg(das_model)]
#![allow(clippy::unwrap_used)]

use std::time::{Duration, Instant};

use bytes::Bytes;
use das_check::{explore, Config, Strategy};
use das_rt::cluster::{RtCluster, RtConfig};
use das_rt::server::{OpReply, RtOp, RtServer};
use das_sched::policy::PolicyKind;
use das_sched::types::{OpId, OpTag, QueuedOp, RequestId};
use das_sim::time::{SimDuration, SimTime};
use das_sync::channel::{unbounded, Sender};

/// Bounded-DFS configuration shared by the invariant tests: at least the
/// 10k-schedule budget the acceptance criteria call for.
fn dfs_10k() -> Config {
    Config {
        strategy: Strategy::Dfs,
        max_schedules: 10_000,
        ..Config::default()
    }
}

fn op(req: u64, keys: Vec<u64>, reply: Sender<OpReply>) -> RtOp {
    let tag = OpTag {
        op: OpId {
            request: RequestId(req),
            index: 0,
        },
        request_arrival: SimTime::ZERO,
        fanout: 1,
        local_estimate: SimDuration::from_micros(10),
        bottleneck_eta: SimTime::from_micros(10),
        bottleneck_demand: SimDuration::from_micros(10),
    };
    RtOp {
        queued: QueuedOp {
            tag,
            local_estimate: tag.local_estimate,
            enqueued_at: SimTime::ZERO,
        },
        keys,
        service_nanos: 0, // keep the model's state space wall-clock free
        reply,
    }
}

/// Invariant: no op is ever dequeued twice. The server's payload table is
/// removed exactly once per op; a double dequeue panics the worker
/// (`expect("payload for queued op")`), which the checker reports with
/// the schedule that produced it.
#[test]
fn model_no_op_dequeued_twice() {
    let stats = explore(&dfs_10k(), || {
        let server = RtServer::start(PolicyKind::Fcfs, 2, Instant::now());
        server.load(1, Bytes::from_static(b"x"));
        let (tx, rx) = unbounded();
        server.submit(op(1, vec![1], tx.clone()));
        server.submit(op(2, vec![1], tx));
        let a = rx.recv().expect("first reply");
        let b = rx.recv().expect("second reply");
        assert_ne!(a.op.request, b.op.request, "each op served exactly once");
        server.shutdown();
    })
    .unwrap_or_else(|f| panic!("{f}"));
    // Either the bounded space was fully exhausted (stronger) or the full
    // 10k-schedule budget was spent without a failure.
    assert!(
        stats.exhausted || stats.schedules >= 10_000,
        "explored only {} schedules without exhausting",
        stats.schedules
    );
}

/// Invariant: a retry never kills a worker. The client resubmits an op id
/// whose first copy may be queued, in service, or already answered; in
/// every interleaving each queued copy finds its payload (a copy that is
/// still queued absorbs the retry), at least one reply arrives, and
/// `shutdown()` re-raises no worker panic.
#[test]
fn model_resubmitted_op_never_panics_a_worker() {
    let stats = explore(&dfs_10k(), || {
        let server = RtServer::start(PolicyKind::Fcfs, 1, Instant::now());
        let (tx, rx) = unbounded();
        server.submit(op(7, vec![1], tx.clone()));
        server.submit(op(7, vec![1], tx));
        rx.recv().expect("the op is answered");
        server.shutdown();
    })
    .unwrap_or_else(|f| panic!("{f}"));
    // Either the bounded space was fully exhausted (stronger) or the full
    // 10k-schedule budget was spent without a failure.
    assert!(
        stats.exhausted || stats.schedules >= 10_000,
        "explored only {} schedules without exhausting",
        stats.schedules
    );
}

/// Invariant: shutdown with a non-empty queue neither deadlocks nor loses
/// the wakeup — every worker parked on the queue condvar observes the
/// flag and exits, and `shutdown()` joins them all, in every schedule.
#[test]
fn model_shutdown_drains_without_deadlock() {
    let stats = explore(&dfs_10k(), || {
        let server = RtServer::start(PolicyKind::Fcfs, 2, Instant::now());
        let (tx, rx) = unbounded();
        server.submit(op(1, vec![9], tx));
        // Shut down while the op may still be queued, in flight, or done:
        // every one of those interleavings must terminate.
        server.shutdown();
        drop(rx);
    })
    .unwrap_or_else(|f| panic!("{f}"));
    // Either the bounded space was fully exhausted (stronger) or the full
    // 10k-schedule budget was spent without a failure.
    assert!(
        stats.exhausted || stats.schedules >= 10_000,
        "explored only {} schedules without exhausting",
        stats.schedules
    );
}

/// Invariant: `ops_served` is conserved — after `n` replies have been
/// received, the counter reads exactly `n` (each service increments it
/// exactly once, before the reply is sent).
#[test]
fn model_ops_served_conservation() {
    let stats = explore(&dfs_10k(), || {
        let server = RtServer::start(PolicyKind::Fcfs, 2, Instant::now());
        let (tx, rx) = unbounded();
        let n = 3u64;
        for i in 0..n {
            server.submit(op(i, vec![i], tx.clone()));
        }
        for _ in 0..n {
            rx.recv().expect("reply");
        }
        assert_eq!(server.ops_served(), n, "served counter must equal replies");
        server.shutdown();
    })
    .unwrap_or_else(|f| panic!("{f}"));
    // Either the bounded space was fully exhausted (stronger) or the full
    // 10k-schedule budget was spent without a failure.
    assert!(
        stats.exhausted || stats.schedules >= 10_000,
        "explored only {} schedules without exhausting",
        stats.schedules
    );
}

/// Invariant: the multi-get reply channel always terminates the client —
/// across a 2-server fan-out, every interleaving of worker replies
/// completes the request with the right values (no hang, no lost reply).
#[test]
fn model_multi_get_reply_channel_terminates() {
    let stats = explore(&dfs_10k(), || {
        let cluster = RtCluster::start(RtConfig {
            servers: 2,
            workers_per_server: 1,
            policy: PolicyKind::Fcfs,
            per_op_nanos: 0,
            per_byte_nanos: 0.0,
        });
        // Two keys on different servers => fanout 2 (placement is a pure
        // hash, deterministic across schedules).
        let (a, b) = (0u64, 6u64);
        assert_ne!(cluster.owner_of(a), cluster.owner_of(b));
        cluster.load(a, Bytes::from_static(b"aa"));
        cluster.load(b, Bytes::from_static(b"bb"));
        let r = cluster.multi_get(&[a, b]);
        assert_eq!(r.ops, 2);
        assert_eq!(r.values[&a].as_deref(), Some(&b"aa"[..]));
        assert_eq!(r.values[&b].as_deref(), Some(&b"bb"[..]));
        cluster.shutdown();
    })
    .unwrap_or_else(|f| panic!("{f}"));
    // Either the bounded space was fully exhausted (stronger) or the full
    // 10k-schedule budget was spent without a failure.
    assert!(
        stats.exhausted || stats.schedules >= 10_000,
        "explored only {} schedules without exhausting",
        stats.schedules
    );
}

/// Invariant: halting a server is observable — `wait_workers_stopped`
/// (the condition wait the real tests rely on) returns in every
/// interleaving of halt vs. a parked worker, and a subsequent submit is
/// silently dropped rather than deadlocking anything.
#[test]
fn model_halt_then_wait_never_hangs() {
    let stats = explore(&dfs_10k(), || {
        let server = RtServer::start(PolicyKind::Fcfs, 1, Instant::now());
        server.halt();
        server.wait_workers_stopped();
        let (tx, rx) = unbounded();
        server.submit(op(1, vec![1], tx));
        let err = rx
            .recv_timeout(Duration::from_millis(10))
            .expect_err("halted server must not serve");
        assert_eq!(err, das_sync::channel::RecvTimeoutError::Timeout);
        assert_eq!(server.ops_served(), 0);
        server.shutdown();
    })
    .unwrap_or_else(|f| panic!("{f}"));
    // Either the bounded space was fully exhausted (stronger) or the full
    // 10k-schedule budget was spent without a failure.
    assert!(
        stats.exhausted || stats.schedules >= 10_000,
        "explored only {} schedules without exhausting",
        stats.schedules
    );
}
