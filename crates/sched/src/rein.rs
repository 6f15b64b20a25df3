//! Reimplementation of Rein's multi-get-aware heuristics (Reda et al.,
//! EuroSys 2017) — the state-of-the-art baseline the DAS paper compares
//! against.
//!
//! * [`ReinSbf`] — *Shortest Bottleneck First*: an op's priority is its
//!   request's bottleneck service demand (the largest expected op service
//!   time across the request). Static after dispatch: it does not react to
//!   queue buildup, server slowdowns, or sibling completions.
//! * [`Rein2L`] — the practical two-priority-level approximation: ops whose
//!   bottleneck demand falls below an adaptive threshold go to the high
//!   queue, the rest to the low queue; each queue is FIFO. O(1) per
//!   decision.

use std::collections::VecDeque;

use das_sim::stats::Ewma;
use das_sim::time::{SimDuration, SimTime};

use crate::baselines::das_net_tag_bytes;
use crate::scheduler::{DequeueDecision, KeyedQueue, Scheduler};
use crate::types::QueuedOp;

/// Exact Shortest-Bottleneck-First (Rein-SBF).
#[derive(Debug, Default)]
pub struct ReinSbf {
    queue: KeyedQueue,
}

impl ReinSbf {
    /// An empty SBF queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for ReinSbf {
    fn name(&self) -> &'static str {
        "Rein-SBF"
    }
    fn enqueue(&mut self, op: QueuedOp, _now: SimTime) {
        self.queue.push(op.tag.bottleneck_demand.as_nanos(), op);
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

/// Two-priority-level approximation of SBF with an adaptive threshold.
///
/// The threshold tracks the EWMA mean of observed bottleneck demands, so
/// roughly the smaller-than-average half of requests gets the fast lane.
#[derive(Debug)]
pub struct Rein2L {
    high: VecDeque<QueuedOp>,
    low: VecDeque<QueuedOp>,
    threshold: Ewma,
    queued_work: SimDuration,
}

impl Default for Rein2L {
    fn default() -> Self {
        Self::new()
    }
}

impl Rein2L {
    /// An empty two-level queue with the default adaptation speed.
    pub fn new() -> Self {
        Rein2L {
            high: VecDeque::new(),
            low: VecDeque::new(),
            threshold: Ewma::new(0.05),
            queued_work: SimDuration::ZERO,
        }
    }

    /// Current threshold in seconds (for tests/introspection).
    pub fn threshold_secs(&self) -> Option<f64> {
        self.threshold.value()
    }
}

impl Scheduler for Rein2L {
    fn name(&self) -> &'static str {
        "Rein-2L"
    }
    fn enqueue(&mut self, op: QueuedOp, _now: SimTime) {
        let demand = op.tag.bottleneck_demand.as_secs_f64();
        let thresh = self.threshold.value_or(demand);
        self.threshold.record(demand);
        self.queued_work += op.local_estimate;
        if demand <= thresh {
            self.high.push_back(op);
        } else {
            self.low.push_back(op);
        }
    }
    fn dequeue(&mut self, _now: SimTime) -> Option<(QueuedOp, DequeueDecision)> {
        let queue_len = self.len();
        let op = self.high.pop_front().or_else(|| self.low.pop_front())?;
        self.queued_work = self.queued_work.saturating_sub(op.local_estimate);
        Some((op, DequeueDecision::policy_order(queue_len)))
    }
    fn len(&self) -> usize {
        self.high.len() + self.low.len()
    }
    fn metadata_bytes(&self) -> u64 {
        das_net_tag_bytes::SMALL_TAG
    }
    fn queued_work(&self) -> SimDuration {
        self.queued_work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{OpId, OpTag, RequestId};

    fn op(req: u64, local_us: u64, bottleneck_us: u64) -> QueuedOp {
        QueuedOp {
            tag: OpTag {
                op: OpId {
                    request: RequestId(req),
                    index: 0,
                },
                request_arrival: SimTime::ZERO,
                fanout: 2,
                local_estimate: SimDuration::from_micros(local_us),
                bottleneck_eta: SimTime::from_micros(bottleneck_us),
                bottleneck_demand: SimDuration::from_micros(bottleneck_us),
            },
            local_estimate: SimDuration::from_micros(local_us),
            enqueued_at: SimTime::ZERO,
        }
    }

    #[test]
    fn sbf_orders_by_bottleneck_not_local() {
        let mut s = ReinSbf::new();
        let now = SimTime::ZERO;
        // Request 1 has a tiny local op but a huge bottleneck elsewhere.
        s.enqueue(op(1, 1, 10_000), now);
        s.enqueue(op(2, 500, 500), now);
        assert_eq!(s.dequeue(now).unwrap().0.tag.op.request, RequestId(2));
        assert_eq!(s.dequeue(now).unwrap().0.tag.op.request, RequestId(1));
    }

    #[test]
    fn sbf_ties_fcfs() {
        let mut s = ReinSbf::new();
        let now = SimTime::ZERO;
        s.enqueue(op(1, 10, 100), now);
        s.enqueue(op(2, 10, 100), now);
        assert_eq!(s.dequeue(now).unwrap().0.tag.op.request, RequestId(1));
    }

    #[test]
    fn two_level_prioritizes_small_bottlenecks() {
        let mut s = Rein2L::new();
        let now = SimTime::ZERO;
        // Warm the threshold with a mid-size op.
        s.enqueue(op(0, 10, 1000), now);
        s.dequeue(now);
        // A big request then a small one: the small one should be served
        // first despite arriving later.
        s.enqueue(op(1, 10, 100_000), now);
        s.enqueue(op(2, 10, 10), now);
        assert_eq!(s.dequeue(now).unwrap().0.tag.op.request, RequestId(2));
        assert_eq!(s.dequeue(now).unwrap().0.tag.op.request, RequestId(1));
        assert!(s.threshold_secs().unwrap() > 0.0);
    }

    #[test]
    fn two_level_within_level_is_fcfs() {
        let mut s = Rein2L::new();
        let now = SimTime::ZERO;
        s.enqueue(op(1, 10, 100), now);
        s.enqueue(op(2, 10, 100), now);
        s.enqueue(op(3, 10, 100), now);
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(now))
            .map(|(o, _)| o.tag.op.request.0)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn queue_lengths_and_work() {
        let mut s = Rein2L::new();
        let now = SimTime::ZERO;
        assert!(s.is_empty());
        s.enqueue(op(1, 100, 10), now);
        s.enqueue(op(2, 200, 1_000_000), now);
        assert_eq!(s.len(), 2);
        assert_eq!(s.queued_work(), SimDuration::from_micros(300));
        s.dequeue(now);
        s.dequeue(now);
        assert_eq!(s.queued_work(), SimDuration::ZERO);
        assert!(s.dequeue(now).is_none());
    }
}
