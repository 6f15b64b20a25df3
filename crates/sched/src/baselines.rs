//! Baseline disciplines: FCFS (the default every key-value store ships),
//! SJF, EDF, and LRPT-last-only.

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

/// Earliest (virtual) deadline first: deadline = request arrival + the
/// request's bottleneck service demand. Requests that *could* finish soon
/// are served first; unlike DAS the deadline never adapts after dispatch.
#[derive(Debug, Default)]
pub struct Edf {
    queue: KeyedQueue,
}

impl Edf {
    /// An empty EDF queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Edf {
    fn name(&self) -> &'static str {
        "EDF"
    }
    fn enqueue(&mut self, op: QueuedOp, _now: SimTime) {
        let deadline = op.tag.request_arrival + op.tag.bottleneck_demand;
        self.queue.push(deadline.as_nanos(), op);
    }
    fn dequeue(&mut self, _now: SimTime) -> Option<(QueuedOp, DequeueDecision)> {
        self.queue.pop()
    }
    fn len(&self) -> usize {
        self.queue.len()
    }
    fn metadata_bytes(&self) -> u64 {
        das_net_tag_bytes::SMALL_TAG
    }
    fn queued_work(&self) -> SimDuration {
        self.queue.queued_work()
    }
}

/// The LRPT-last component of DAS in isolation: ops whose request still has
/// a lot of remaining bottleneck work elsewhere are postponed; ties (and
/// requests whose bottleneck has notionally passed) are FCFS. There is no
/// SRPT-across-requests term and no aging.
#[derive(Debug, Default)]
pub struct LrptLast {
    queue: Vec<QueuedOp>,
    queued_work: SimDuration,
}

impl LrptLast {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for LrptLast {
    fn name(&self) -> &'static str {
        "LRPT-last"
    }
    fn enqueue(&mut self, op: QueuedOp, _now: SimTime) {
        self.queued_work += op.local_estimate;
        self.queue.push(op);
    }
    fn dequeue(&mut self, now: SimTime) -> Option<(QueuedOp, DequeueDecision)> {
        let queue_len = self.queue.len();
        // Serve the op whose request has the *least* remaining bottleneck
        // time (postponing the largest remaining = LRPT-last); break ties
        // by arrival order (stable because Vec preserves insertion order).
        let best = self
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(i, op)| (op.tag.remaining_at(now).as_nanos(), *i))
            .map(|(i, _)| i)?;
        let op = self.queue.remove(best);
        self.queued_work = self.queued_work.saturating_sub(op.local_estimate);
        Some((op, DequeueDecision::policy_order(queue_len)))
    }
    fn len(&self) -> usize {
        self.queue.len()
    }
    fn on_hint(
        &mut self,
        request: crate::types::RequestId,
        update: crate::types::HintUpdate,
        _now: SimTime,
    ) {
        for op in &mut self.queue {
            if op.tag.op.request == request {
                op.tag.bottleneck_eta = update.bottleneck_eta;
                op.tag.bottleneck_demand = update.remaining_demand;
            }
        }
    }
    fn wants_hints(&self) -> bool {
        true
    }
    fn wants_piggyback(&self) -> bool {
        true
    }
    fn metadata_bytes(&self) -> u64 {
        das_net_tag_bytes::DAS_TAG
    }
    fn queued_work(&self) -> SimDuration {
        self.queued_work
    }
}

/// Serves a uniformly random queued op. A control baseline: any policy
/// claiming to help must beat both FCFS *and* random order.
#[derive(Debug)]
pub struct RandomOrder {
    queue: Vec<QueuedOp>,
    queued_work: SimDuration,
    /// xorshift64* state — self-contained so the policy needs no external
    /// RNG plumbing and stays deterministic per seed.
    state: u64,
}

impl RandomOrder {
    /// A random-order queue with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomOrder {
            queue: Vec::new(),
            queued_work: SimDuration::ZERO,
            state: seed | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

impl Default for RandomOrder {
    fn default() -> Self {
        Self::new(0x9e37_79b9)
    }
}

impl Scheduler for RandomOrder {
    fn name(&self) -> &'static str {
        "Random"
    }
    fn enqueue(&mut self, op: QueuedOp, _now: SimTime) {
        self.queued_work += op.local_estimate;
        self.queue.push(op);
    }
    fn dequeue(&mut self, _now: SimTime) -> Option<(QueuedOp, DequeueDecision)> {
        let queue_len = self.queue.len();
        if queue_len == 0 {
            return None;
        }
        let idx = (self.next_u64() % queue_len as u64) as usize;
        let op = self.queue.swap_remove(idx);
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
    fn edf_orders_by_arrival_plus_bottleneck() {
        let mut s = Edf::new();
        let now = SimTime::ZERO;
        // Deadlines: r1 = 0+100, r2 = 30+1 = 31, r3 = 10+50 = 60.
        s.enqueue(op(1, 100, 0, 0), now);
        s.enqueue(op(2, 1, 0, 30), now);
        s.enqueue(op(3, 50, 0, 10), now);
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(now))
            .map(|(o, _)| o.tag.op.request.0)
            .collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn lrpt_serves_least_remaining_first() {
        let mut s = LrptLast::new();
        let now = SimTime::from_micros(100);
        s.enqueue(op(1, 10, 500, 0), now); // remaining 400us
        s.enqueue(op(2, 10, 150, 0), now); // remaining 50us
        s.enqueue(op(3, 10, 2000, 0), now); // remaining 1900us -> last
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(now))
            .map(|(o, _)| o.tag.op.request.0)
            .collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn lrpt_hint_reorders() {
        let mut s = LrptLast::new();
        let now = SimTime::from_micros(100);
        s.enqueue(op(1, 10, 500, 0), now);
        s.enqueue(op(2, 10, 900, 0), now);
        // A hint says request 2's bottleneck finished much earlier.
        s.on_hint(
            RequestId(2),
            crate::types::HintUpdate {
                bottleneck_eta: SimTime::from_micros(110),
                remaining_demand: SimDuration::from_micros(10),
            },
            now,
        );
        assert_eq!(s.dequeue(now).unwrap().0.tag.op.request, RequestId(2));
        assert!(s.wants_hints());
        assert!(s.wants_piggyback());
    }

    #[test]
    fn lrpt_ties_are_fcfs() {
        let mut s = LrptLast::new();
        // Both requests' bottlenecks have passed: remaining == 0 for both.
        let now = SimTime::from_micros(10_000);
        s.enqueue(op(7, 10, 100, 0), now);
        s.enqueue(op(8, 10, 200, 0), now);
        assert_eq!(s.dequeue(now).unwrap().0.tag.op.request, RequestId(7));
        assert_eq!(s.dequeue(now).unwrap().0.tag.op.request, RequestId(8));
    }

    #[test]
    fn random_order_conserves_and_randomizes() {
        let mut s = RandomOrder::default();
        let now = SimTime::ZERO;
        for i in 0..50 {
            s.enqueue(op(i, 10, 10, 0), now);
        }
        assert_eq!(s.len(), 50);
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(now))
            .map(|(o, _)| o.tag.op.request.0)
            .collect();
        assert_eq!(order.len(), 50);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // Overwhelmingly unlikely to be FCFS order.
        assert_ne!(order, (0..50).collect::<Vec<_>>());
        assert_eq!(s.queued_work(), SimDuration::ZERO);
    }

    #[test]
    fn random_order_deterministic_per_seed() {
        let drain = |seed| {
            let mut s = RandomOrder::new(seed);
            let now = SimTime::ZERO;
            for i in 0..20 {
                s.enqueue(op(i, 10, 10, 0), now);
            }
            std::iter::from_fn(move || s.dequeue(now))
                .map(|(o, _)| o.tag.op.request.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(drain(7), drain(7));
        assert_ne!(drain(7), drain(8));
    }

    #[test]
    fn metadata_sizes() {
        assert_eq!(Fcfs::new().metadata_bytes(), 0);
        assert_eq!(Sjf::new().metadata_bytes(), 0);
        assert!(Edf::new().metadata_bytes() > 0);
        assert!(LrptLast::new().metadata_bytes() > 0);
    }
}
