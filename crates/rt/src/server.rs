//! One real-threaded storage server: worker threads draining a
//! scheduler-ordered queue of get operations against the in-memory store.
//!
//! All synchronization goes through the `das-sync` facade, so under
//! `cfg(das_model)` the whole server runs inside the `das-check` model
//! scheduler (see `tests/model/` at the workspace root).

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use das_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use das_sync::channel::Sender;
use das_sync::{Condvar, Mutex};

use das_sched::policy::PolicyKind;
use das_sched::scheduler::Scheduler;
use das_sched::types::{HintUpdate, OpId, QueuedOp, RequestId};
use das_sim::time::SimTime;

use crate::store::InMemoryStore;

/// The reply a server sends when an op completes.
#[derive(Debug)]
pub struct OpReply {
    /// Which op completed.
    pub op: OpId,
    /// The values read (key order as submitted for this server).
    pub values: Vec<Option<Bytes>>,
    /// Server-side queue length right after dequeue (a cheap load signal).
    pub queue_len: usize,
}

/// An operation submitted to a server.
#[derive(Debug)]
pub struct RtOp {
    /// Scheduling view of the op.
    pub queued: QueuedOp,
    /// The keys this op reads on this server.
    pub keys: Vec<u64>,
    /// Emulated service cost in nanoseconds (busy-wait), standing in for
    /// the serialization/IO work a real server would do.
    pub service_nanos: u64,
    /// Where to send the reply.
    pub reply: Sender<OpReply>,
}

struct Inner {
    scheduler: Mutex<SchedState>,
    cv: Condvar,
    /// Signaled on every dequeue and worker exit; waited on by the
    /// condition-based test synchronization helpers.
    progress: Condvar,
    shutdown: AtomicBool,
    store: InMemoryStore,
    epoch: Instant,
    ops_served: AtomicU64,
    worker_count: usize,
}

struct SchedState {
    scheduler: Box<dyn Scheduler>,
    /// Payload side-table keyed by op id (the scheduler only orders
    /// [`QueuedOp`]s).
    payloads: HashMap<OpId, (Vec<u64>, u64, Sender<OpReply>)>,
    /// Ops handed to workers so far (monotonic; drives [`RtServer::wait_dequeued`]).
    dequeued: u64,
    /// Worker threads that have exited, cleanly or by panic (drives
    /// [`RtServer::wait_workers_stopped`]).
    exited: usize,
}

/// A running server with its worker threads.
pub struct RtServer {
    inner: Arc<Inner>,
    workers: Vec<das_sync::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for RtServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtServer")
            .field("workers", &self.workers.len())
            // das-lint: allow(ordering-relaxed): debug snapshot of a monotonic counter
            .field("ops_served", &self.inner.ops_served.load(Ordering::Relaxed))
            .finish()
    }
}

impl RtServer {
    /// Starts a server with `workers` threads, a fresh `policy` queue, and
    /// an epoch shared with the cluster (wall time maps to [`SimTime`]
    /// relative to it).
    pub fn start(policy: PolicyKind, workers: usize, epoch: Instant) -> Self {
        assert!(workers >= 1);
        let inner = Arc::new(Inner {
            scheduler: Mutex::new(SchedState {
                scheduler: policy.build(),
                payloads: HashMap::new(),
                dequeued: 0,
                exited: 0,
            }),
            cv: Condvar::new(),
            progress: Condvar::new(),
            shutdown: AtomicBool::new(false),
            store: InMemoryStore::new(),
            epoch,
            ops_served: AtomicU64::new(0),
            worker_count: workers,
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                das_sync::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        RtServer {
            inner,
            workers: handles,
        }
    }

    /// Loads a key/value pair (setup path, bypasses scheduling).
    pub fn load(&self, key: u64, value: Bytes) {
        self.inner.store.put(key, value);
    }

    /// Submits an operation; workers will serve it in scheduler order.
    /// Resubmitting an op whose earlier copy is still queued (a client
    /// retry after its window expired) is a no-op: the queued copy answers
    /// on the same reply channel, and one payload entry per queued op is
    /// what the worker's dequeue relies on.
    pub fn submit(&self, op: RtOp) {
        let mut st = self.inner.scheduler.lock();
        match st.payloads.entry(op.queued.tag.op) {
            Entry::Occupied(_) => return,
            Entry::Vacant(slot) => slot.insert((op.keys, op.service_nanos, op.reply)),
        };
        let now = self.now();
        st.scheduler.enqueue(op.queued, now);
        drop(st);
        self.inner.cv.notify_one();
    }

    /// Delivers a progress hint.
    pub fn hint(&self, request: RequestId, update: HintUpdate) {
        let mut st = self.inner.scheduler.lock();
        let now = self.now();
        st.scheduler.on_hint(request, update, now);
    }

    /// Whether this server's policy consumes hints.
    pub fn wants_hints(&self) -> bool {
        self.inner.scheduler.lock().scheduler.wants_hints()
    }

    /// Total ops served so far.
    pub fn ops_served(&self) -> u64 {
        // das-lint: allow(ordering-relaxed): monotonic counter read for reporting only
        self.inner.ops_served.load(Ordering::Relaxed)
    }

    /// Wall time as [`SimTime`] since the cluster epoch.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.inner.epoch.elapsed().as_nanos() as u64)
    }

    /// Blocks until workers have dequeued at least `n` ops since start.
    /// Condition-based test synchronization: replaces sleep-and-hope
    /// handshakes, so tests hold under any schedule (and under the model
    /// checker, where sleeping is meaningless).
    pub fn wait_dequeued(&self, n: u64) {
        let mut st = self.inner.scheduler.lock();
        while st.dequeued < n {
            self.inner.progress.wait(&mut st);
        }
    }

    /// Blocks until every worker thread has exited (clean return after
    /// [`halt`]/[`shutdown`], or a panic unwind). Does not join or
    /// consume the server; pair with [`shutdown`] to reap the threads.
    ///
    /// [`halt`]: RtServer::halt
    /// [`shutdown`]: RtServer::shutdown
    pub fn wait_workers_stopped(&self) {
        let mut st = self.inner.scheduler.lock();
        while st.exited < self.inner.worker_count {
            self.inner.progress.wait(&mut st);
        }
    }

    /// Simulates server death (crash-stop): workers stop serving and exit,
    /// queued ops are never answered, but the process keeps running —
    /// clients see the silence, not an error. Unlike [`shutdown`], `halt`
    /// does not join the workers, so it can be called through a shared
    /// reference mid-benchmark. A halted server still accepts submissions
    /// (into the void), like a dead host behind a still-open TCP window.
    ///
    /// [`shutdown`]: RtServer::shutdown
    pub fn halt(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
    }

    /// Stops the workers and joins them. If a worker thread panicked, the
    /// panic is re-raised here instead of being swallowed.
    pub fn shutdown(self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
        for h in self.workers {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// Increments `exited` when the worker leaves `worker_loop` for any
/// reason — clean return or panic unwind — so waiters see dead workers.
struct ExitGuard<'a> {
    inner: &'a Inner,
}

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.inner.scheduler.lock();
        st.exited += 1;
        drop(st);
        self.inner.progress.notify_all();
    }
}

fn worker_loop(inner: &Inner) {
    let _exit = ExitGuard { inner };
    loop {
        let (queued, payload) = {
            let mut st = inner.scheduler.lock();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let now = SimTime::from_nanos(inner.epoch.elapsed().as_nanos() as u64);
                if let Some((q, _)) = st.scheduler.dequeue(now) {
                    let payload = st
                        .payloads
                        .remove(&q.tag.op)
                        .expect("payload for queued op");
                    st.dequeued += 1;
                    inner.progress.notify_all();
                    break (q, payload);
                }
                inner.cv.wait(&mut st);
            }
        };
        let (keys, service_nanos, reply) = payload;
        let values: Vec<Option<Bytes>> = keys.iter().map(|&k| inner.store.get(k)).collect();
        busy_wait(service_nanos);
        // das-lint: allow(ordering-relaxed): monotonic served counter, reporting only
        inner.ops_served.fetch_add(1, Ordering::Relaxed);
        let queue_len = inner.scheduler.lock().scheduler.len();
        // The request side may have given up (e.g. on shutdown); a closed
        // channel is fine.
        let _ = reply.send(OpReply {
            op: queued.tag.op,
            values,
            queue_len,
        });
    }
}

/// Emulates CPU-bound service time. Spins rather than sleeping: sleep
/// granularity on most OSes is far coarser than microsecond-scale service
/// times. Invisible to the model checker (no sync operations), so model
/// tests use `service_nanos: 0`.
fn busy_wait(nanos: u64) {
    if nanos == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < nanos {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_sched::types::OpTag;
    use das_sim::time::SimDuration;
    use das_sync::channel::unbounded;

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
            service_nanos: 1_000,
            reply,
        }
    }

    #[test]
    fn serves_submitted_ops() {
        let server = RtServer::start(PolicyKind::Fcfs, 2, Instant::now());
        server.load(1, Bytes::from_static(b"one"));
        server.load(2, Bytes::from_static(b"two"));
        let (tx, rx) = unbounded();
        for i in 0..10 {
            server.submit(op(i, vec![1, 2, 99], tx.clone()));
        }
        for _ in 0..10 {
            let reply = rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("worker did not reply within 5s");
            assert_eq!(reply.values[0], Some(Bytes::from_static(b"one")));
            assert_eq!(reply.values[1], Some(Bytes::from_static(b"two")));
            assert_eq!(reply.values[2], None);
        }
        assert_eq!(server.ops_served(), 10);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_clean_with_empty_queue() {
        let server = RtServer::start(PolicyKind::das(), 4, Instant::now());
        assert!(server.wants_hints());
        server.shutdown();
    }

    #[test]
    fn hints_are_accepted() {
        let server = RtServer::start(PolicyKind::das(), 1, Instant::now());
        server.hint(
            RequestId(1),
            HintUpdate {
                bottleneck_eta: SimTime::from_micros(5),
                remaining_demand: SimDuration::from_micros(5),
            },
        );
        server.shutdown();
    }

    #[test]
    fn scheduler_order_applies_under_backlog() {
        // One worker, kept busy by a long op while we queue competitors:
        // the SBF policy must then serve the small-bottleneck request
        // first even though it was submitted last.
        let server = RtServer::start(PolicyKind::ReinSbf, 1, Instant::now());
        server.load(1, Bytes::from_static(b"x"));
        let (tx, rx) = unbounded();

        // Occupy the worker (~20ms of spin).
        let mut blocker = op(100, vec![1], tx.clone());
        blocker.service_nanos = 20_000_000;
        server.submit(blocker);
        // Wait for the worker to actually hold the blocker, so both
        // competitors are enqueued while it spins.
        server.wait_dequeued(1);

        // While it spins, enqueue big-bottleneck then small-bottleneck.
        let mk = |req: u64, bottleneck_us: u64| {
            let tag = OpTag {
                op: OpId {
                    request: RequestId(req),
                    index: 0,
                },
                request_arrival: SimTime::ZERO,
                fanout: 2,
                local_estimate: SimDuration::from_micros(10),
                bottleneck_eta: SimTime::from_micros(bottleneck_us),
                bottleneck_demand: SimDuration::from_micros(bottleneck_us),
            };
            RtOp {
                queued: QueuedOp {
                    tag,
                    local_estimate: tag.local_estimate,
                    enqueued_at: SimTime::ZERO,
                },
                keys: vec![1],
                service_nanos: 1_000,
                reply: tx.clone(),
            }
        };
        server.submit(mk(1, 50_000)); // big bottleneck, submitted first
        server.submit(mk(2, 10)); // small bottleneck, submitted second

        let timeout = std::time::Duration::from_secs(5);
        let first = rx
            .recv_timeout(timeout)
            .expect("blocker op did not finish within 5s");
        assert_eq!(first.op.request, RequestId(100), "blocker finishes first");
        let second = rx
            .recv_timeout(timeout)
            .expect("second reply did not arrive within 5s");
        assert_eq!(
            second.op.request,
            RequestId(2),
            "SBF must serve the small bottleneck first"
        );
        let third = rx
            .recv_timeout(timeout)
            .expect("third reply did not arrive within 5s");
        assert_eq!(third.op.request, RequestId(1));
        server.shutdown();
    }

    #[test]
    fn halted_server_goes_silent() {
        let server = RtServer::start(PolicyKind::Fcfs, 1, Instant::now());
        server.load(1, Bytes::from_static(b"x"));
        server.halt();
        // Wait for the worker to observe the flag and exit — a condition,
        // not a sleep, so this holds under any schedule.
        server.wait_workers_stopped();
        let (tx, rx) = unbounded();
        server.submit(op(1, vec![1], tx));
        // Submission is accepted but never served: the client's only signal
        // is the timeout.
        assert!(rx
            .recv_timeout(std::time::Duration::from_millis(100))
            .is_err());
        assert_eq!(server.ops_served(), 0);
        server.shutdown();
    }

    #[test]
    fn resubmitting_a_queued_op_is_a_no_op() {
        let server = RtServer::start(PolicyKind::Fcfs, 1, Instant::now());
        let (tx, rx) = unbounded();
        // Pin the single worker so the retry arrives while the first copy
        // of op 7 is still queued; op 8 queues behind both.
        let mut blocker = op(100, vec![1], tx.clone());
        blocker.service_nanos = 20_000_000;
        server.submit(blocker);
        server.wait_dequeued(1);
        server.submit(op(7, vec![1], tx.clone()));
        server.submit(op(7, vec![1], tx.clone()));
        server.submit(op(8, vec![1], tx));
        // FCFS: the blocker, op 7 once, then op 8 — which a worker that
        // died on a second copy of op 7 would never reach.
        for expected in [100, 7, 8] {
            let reply = rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("worker did not reply within 5s");
            assert_eq!(reply.op.request, RequestId(expected));
        }
        assert_eq!(server.ops_served(), 3);
        // Joins the worker and would re-raise its panic.
        server.shutdown();
        assert!(rx.try_recv().is_err(), "op 7 was answered exactly once");
    }

    #[test]
    fn worker_panics_surface_on_shutdown() {
        let server = RtServer::start(PolicyKind::Fcfs, 1, Instant::now());
        let (tx, _rx) = unbounded();
        // Break the worker's invariant behind `submit`'s back: an op in the
        // scheduler with no payload entry panics the dequeue that finds it.
        let now = server.now();
        server
            .inner
            .scheduler
            .lock()
            .scheduler
            .enqueue(op(7, vec![1], tx).queued, now);
        server.inner.cv.notify_one();
        // Wait for the thread to actually die (the exit guard fires on
        // panic unwind too) before shutting down, or the shutdown flag can
        // win the race and let the worker exit cleanly.
        server.wait_workers_stopped();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || server.shutdown()));
        assert!(result.is_err(), "worker panic must propagate via shutdown");
    }

    #[test]
    fn busy_wait_spins_roughly_right() {
        let t = Instant::now();
        busy_wait(2_000_000); // 2ms
        let elapsed = t.elapsed().as_nanos() as u64;
        assert!(elapsed >= 2_000_000, "elapsed = {elapsed}");
        busy_wait(0); // no-op
    }
}
