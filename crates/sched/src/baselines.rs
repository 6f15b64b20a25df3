//! Baseline disciplines: FCFS (the default every key-value store ships)
//! and SJF.

use std::collections::VecDeque;

use das_sim::time::{SimDuration, SimTime};

use crate::scheduler::{DequeueDecision, KeyedQueue, Scheduler};
use crate::types::QueuedOp;

/// First-come-first-served: the default discipline of production key-value
/// stores and the paper's primary baseline.
#[derive(Debug, Default)]
pub struct Fcfs {
    queue: VecDeque<QueuedOp>,
    queued_work: SimDuration,
}

impl Fcfs {
    /// An empty FCFS queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Fcfs {
    fn name(&self) -> &'static str {
        "FCFS"
    }
    fn enqueue(&mut self, op: QueuedOp, _now: SimTime) {
        self.queued_work += op.local_estimate;
        self.queue.push_back(op);
    }
    fn dequeue(&mut self, _now: SimTime) -> Option<(QueuedOp, DequeueDecision)> {
        let queue_len = self.queue.len();
        let op = self.queue.pop_front()?;
        self.queued_work = self.queued_work.saturating_sub(op.local_estimate);
        Some((op, DequeueDecision::policy_order(queue_len)))
    }
    fn len(&self) -> usize {
        self.queue.len()
    }
    fn queued_work(&self) -> SimDuration {
        self.queued_work
    }
}

/// Shortest job first on the *local* operation's expected service time.
/// Oblivious to the multi-get structure: a small op of a huge multi-get
/// jumps the queue even though its request cannot finish soon.
#[derive(Debug, Default)]
pub struct Sjf {
    queue: KeyedQueue,
}

impl Sjf {
    /// An empty SJF queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Sjf {
    fn name(&self) -> &'static str {
        "SJF"
    }
    fn enqueue(&mut self, op: QueuedOp, _now: SimTime) {
        self.queue.push(op.local_estimate.as_nanos(), op);
    }
    fn dequeue(&mut self, _now: SimTime) -> Option<(QueuedOp, DequeueDecision)> {
        self.queue.pop()
    }
    fn len(&self) -> usize {
        self.queue.len()
    }
    fn queued_work(&self) -> SimDuration {
        self.queue.queued_work()
    }
}

/// Wire-size constants mirrored from `das-net` (kept local so `das-sched`
/// does not depend on the network crate).
pub(crate) mod das_net_tag_bytes {
    /// Request id + one 4-byte scalar.
    pub const SMALL_TAG: u64 = 12;
    /// The full DAS tag (ids, bottleneck eta, demand, fanout, timestamp).
    pub const DAS_TAG: u64 = 22;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{OpId, OpTag, RequestId};

    fn op(req: u64, est_us: u64, eta_us: u64, arrival_us: u64) -> QueuedOp {
        QueuedOp {
            tag: OpTag {
                op: OpId {
                    request: RequestId(req),
                    index: 0,
                },
                request_arrival: SimTime::from_micros(arrival_us),
                fanout: 2,
                local_estimate: SimDuration::from_micros(est_us),
                bottleneck_eta: SimTime::from_micros(eta_us),
                bottleneck_demand: SimDuration::from_micros(est_us),
            },
            local_estimate: SimDuration::from_micros(est_us),
            enqueued_at: SimTime::from_micros(arrival_us),
        }
    }

    #[test]
    fn fcfs_preserves_order() {
        let mut s = Fcfs::new();
        let now = SimTime::ZERO;
        s.enqueue(op(1, 100, 0, 0), now);
        s.enqueue(op(2, 1, 0, 0), now);
        s.enqueue(op(3, 50, 0, 0), now);
        assert_eq!(s.name(), "FCFS");
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.queued_work(), SimDuration::from_micros(151));
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(now))
            .map(|(o, _)| o.tag.op.request.0)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(s.queued_work(), SimDuration::ZERO);
    }

    #[test]
    fn sjf_orders_by_local_estimate() {
        let mut s = Sjf::new();
        let now = SimTime::ZERO;
        s.enqueue(op(1, 100, 0, 0), now);
        s.enqueue(op(2, 1, 0, 0), now);
        s.enqueue(op(3, 50, 0, 0), now);
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(now))
            .map(|(o, _)| o.tag.op.request.0)
            .collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn metadata_sizes() {
        assert_eq!(Fcfs::new().metadata_bytes(), 0);
        assert_eq!(Sjf::new().metadata_bytes(), 0);
    }
}
