//! The [`Scheduler`] trait: a per-server queue discipline.
//!
//! A scheduler owns the server's wait queue. The simulated (or real) server
//! calls [`Scheduler::enqueue`] when an operation arrives and
//! [`Scheduler::dequeue`] whenever a worker frees up; every dequeue returns
//! the op together with the [`DequeueDecision`] that chose it. Schedulers
//! are strictly local: the only remote information available is what
//! arrives in each op's [`OpTag`](crate::types::OpTag) and, for hint-driven
//! policies, through [`Scheduler::on_hint`].

use das_sim::time::{SimDuration, SimTime};

use crate::types::{HintUpdate, QueuedOp, RequestId};

/// Which selection rule produced a dequeue decision.
///
/// Tells the tracing layer *why* a scheduler picked the op it did.
/// Disciplines that always serve their own head-of-queue report
/// [`DequeueRule::PolicyOrder`]; DAS distinguishes its three rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DequeueRule {
    /// The policy served the head of its own ordering (FCFS, SJF, Rein-SBF, …).
    PolicyOrder,
    /// DAS: queue at or below the FCFS-fallback threshold, oldest op served.
    FcfsFallback,
    /// DAS: the oldest op exceeded the starvation guard and was promoted.
    StarvationGuard,
    /// DAS: minimum remaining-demand-minus-aging rank won the scan.
    MinRank,
}

impl DequeueRule {
    /// Short machine-readable name (used as the trace `rule` field).
    pub fn as_str(&self) -> &'static str {
        match self {
            DequeueRule::PolicyOrder => "policy-order",
            DequeueRule::FcfsFallback => "fcfs-fallback",
            DequeueRule::StarvationGuard => "starvation-guard",
            DequeueRule::MinRank => "min-rank",
        }
    }
}

/// Why and from where a dequeue picked its op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DequeueDecision {
    /// The rule that fired.
    pub rule: DequeueRule,
    /// Arrival-order position of the picked op before removal (0 = the
    /// oldest waiting op; > 0 means the policy reordered the queue).
    pub position: u32,
    /// Queue length before the removal.
    pub queue_len: u32,
}

impl DequeueDecision {
    /// The decision of a discipline that served the head of its own
    /// ordering out of `queue_len` waiting ops. Such disciplines do not
    /// track arrival positions and report 0.
    pub fn policy_order(queue_len: usize) -> Self {
        DequeueDecision {
            rule: DequeueRule::PolicyOrder,
            position: 0,
            queue_len: queue_len as u32,
        }
    }
}

/// A per-server, non-preemptive queue discipline.
pub trait Scheduler: Send {
    /// Stable machine-readable name (used as the row label in every table).
    fn name(&self) -> &'static str;

    /// Adds an operation to the wait queue.
    fn enqueue(&mut self, op: QueuedOp, now: SimTime);

    /// Removes and returns the next operation to serve together with the
    /// rule and arrival position that chose it, or `None` if the queue is
    /// empty.
    fn dequeue(&mut self, now: SimTime) -> Option<(QueuedOp, DequeueDecision)>;

    /// Number of queued operations.
    fn len(&self) -> usize;

    /// True when no operations are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Delivers a progress hint: the owning request's bottleneck estimates
    /// changed (see [`HintUpdate`]). Only called when
    /// [`Scheduler::wants_hints`] is true.
    fn on_hint(&mut self, _request: RequestId, _update: HintUpdate, _now: SimTime) {}

    /// Extra metadata bytes this policy attaches to each dispatched op
    /// (charged to the overhead accounting).
    fn metadata_bytes(&self) -> u64 {
        0
    }

    /// Whether the coordinator should send progress hints to this policy.
    fn wants_hints(&self) -> bool {
        false
    }

    /// Whether this policy benefits from piggybacked server reports (the
    /// coordinator maintains load/rate estimates only when some policy
    /// wants them).
    fn wants_piggyback(&self) -> bool {
        false
    }

    /// Sum of `local_estimate` over all queued ops — the backlog the server
    /// advertises in its piggybacked reports.
    fn queued_work(&self) -> SimDuration;

    /// Removes and returns *every* queued op (in dequeue order). Used when
    /// a server crash-stops: the engine hands the drained ops back to the
    /// coordinator so retry/abort bookkeeping stays exact. The default
    /// repeatedly dequeues, which is correct for any discipline.
    fn drain(&mut self, now: SimTime) -> Vec<QueuedOp> {
        let mut out = Vec::with_capacity(self.len());
        while let Some((op, _)) = self.dequeue(now) {
            out.push(op);
        }
        out
    }
}

/// A FIFO-stable priority queue keyed once at enqueue time: the workhorse
/// behind SJF and Rein-SBF.
///
/// Lower keys dequeue first; equal keys dequeue in arrival order.
#[derive(Debug)]
pub struct KeyedQueue {
    heap: std::collections::BinaryHeap<Entry>,
    seq: u64,
    queued_work: SimDuration,
}

#[derive(Debug)]
struct Entry {
    key: u64,
    seq: u64,
    op: QueuedOp,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on (key, seq).
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl Default for KeyedQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyedQueue {
    /// An empty queue.
    pub fn new() -> Self {
        KeyedQueue {
            heap: std::collections::BinaryHeap::new(),
            seq: 0,
            queued_work: SimDuration::ZERO,
        }
    }

    /// Inserts `op` with priority `key` (lower dequeues first).
    pub fn push(&mut self, key: u64, op: QueuedOp) {
        let seq = self.seq;
        self.seq += 1;
        self.queued_work += op.local_estimate;
        self.heap.push(Entry { key, seq, op });
    }

    /// Removes the lowest-key (oldest on ties) operation: the head of the
    /// keyed order, so the decision is [`DequeueDecision::policy_order`].
    pub fn pop(&mut self) -> Option<(QueuedOp, DequeueDecision)> {
        let queue_len = self.heap.len();
        let e = self.heap.pop()?;
        self.queued_work = self.queued_work.saturating_sub(e.op.local_estimate);
        Some((e.op, DequeueDecision::policy_order(queue_len)))
    }

    /// Number of queued ops.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total estimated work queued.
    pub fn queued_work(&self) -> SimDuration {
        self.queued_work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{OpId, OpTag};

    pub(crate) fn op(req: u64, idx: u32, est_us: u64, now: SimTime) -> QueuedOp {
        QueuedOp {
            tag: OpTag {
                op: OpId {
                    request: RequestId(req),
                    index: idx,
                },
                request_arrival: now,
                fanout: 1,
                local_estimate: SimDuration::from_micros(est_us),
                bottleneck_eta: now + SimDuration::from_micros(est_us),
                bottleneck_demand: SimDuration::from_micros(est_us),
            },
            local_estimate: SimDuration::from_micros(est_us),
            enqueued_at: now,
        }
    }

    #[test]
    fn keyed_queue_orders_by_key_then_fifo() {
        let mut q = KeyedQueue::new();
        let t = SimTime::ZERO;
        q.push(5, op(1, 0, 10, t));
        q.push(3, op(2, 0, 10, t));
        q.push(5, op(3, 0, 10, t));
        assert_eq!(q.pop().unwrap().0.tag.op.request, RequestId(2));
        assert_eq!(q.pop().unwrap().0.tag.op.request, RequestId(1));
        assert_eq!(q.pop().unwrap().0.tag.op.request, RequestId(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn drain_empties_every_policy() {
        let mut policies = crate::policy::PolicyKind::standard_set();
        policies.push(crate::policy::PolicyKind::oracle());
        for policy in policies {
            let mut s = policy.build();
            let t = SimTime::ZERO;
            for i in 0..5 {
                s.enqueue(op(i, 0, 10 * (i + 1), t), t);
            }
            let drained = s.drain(t);
            assert_eq!(drained.len(), 5, "{}", s.name());
            assert!(s.is_empty(), "{}", s.name());
            assert_eq!(s.queued_work(), SimDuration::ZERO, "{}", s.name());
            assert!(s.drain(t).is_empty());
        }
    }

    #[test]
    fn keyed_queue_tracks_work() {
        let mut q = KeyedQueue::new();
        let t = SimTime::ZERO;
        q.push(1, op(1, 0, 100, t));
        q.push(2, op(2, 0, 200, t));
        assert_eq!(q.queued_work(), SimDuration::from_micros(300));
        q.pop();
        assert_eq!(q.queued_work(), SimDuration::from_micros(200));
        q.pop();
        assert_eq!(q.queued_work(), SimDuration::ZERO);
        assert!(q.is_empty());
    }
}
