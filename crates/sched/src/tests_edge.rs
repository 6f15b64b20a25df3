//! Cross-policy edge-case tests that don't belong to a single module:
//! empty queues, unknown-request hints, threshold drift, and tie rules.

#![cfg(test)]

use das_sim::time::{SimDuration, SimTime};

use crate::policy::PolicyKind;
use crate::rein::Rein2L;
use crate::scheduler::Scheduler;
use crate::types::{HintUpdate, OpId, OpTag, QueuedOp, RequestId};

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

fn all_policies() -> Vec<PolicyKind> {
    let mut p = PolicyKind::standard_set();
    p.push(PolicyKind::oracle());
    p.extend(PolicyKind::ablation_set());
    p
}

#[test]
fn empty_dequeue_returns_none_for_every_policy() {
    let now = SimTime::from_millis(1);
    for policy in all_policies() {
        let mut s = policy.build();
        assert!(s.dequeue(now).is_none(), "{}", s.name());
        assert!(s.is_empty());
        assert_eq!(s.queued_work(), SimDuration::ZERO);
    }
}

#[test]
fn hint_for_unknown_request_is_harmless() {
    let now = SimTime::from_millis(1);
    let update = HintUpdate {
        bottleneck_eta: now,
        remaining_demand: SimDuration::from_micros(1),
    };
    for policy in all_policies() {
        let mut s = policy.build();
        s.enqueue(op(1, 100, 200), now);
        s.on_hint(RequestId(999), update, now);
        assert_eq!(s.len(), 1, "{}", s.name());
        assert_eq!(s.dequeue(now).unwrap().0.tag.op.request, RequestId(1));
    }
}

#[test]
fn single_op_always_served_immediately() {
    let now = SimTime::from_millis(1);
    for policy in all_policies() {
        let mut s = policy.build();
        s.enqueue(op(7, 500, 5_000), now);
        let (got, _) = s.dequeue(now).expect("single op must come out");
        assert_eq!(got.tag.op.request, RequestId(7), "{}", s.name());
    }
}

#[test]
fn rein_2l_threshold_tracks_demand_drift() {
    let now = SimTime::ZERO;
    let mut s = Rein2L::new();
    // Feed small bottlenecks: threshold settles low.
    for i in 0..200 {
        s.enqueue(op(i, 10, 100), now);
        s.dequeue(now);
    }
    let low = s.threshold_secs().unwrap();
    // Demand regime shifts 100x up: the threshold follows.
    for i in 200..600 {
        s.enqueue(op(i, 10, 10_000), now);
        s.dequeue(now);
    }
    let high = s.threshold_secs().unwrap();
    assert!(high > low * 10.0, "threshold should adapt: {low} -> {high}");
}

#[test]
fn policies_disagree_on_order_given_conflicting_signals() {
    // One op with small local/large bottleneck, one the other way round:
    // SJF and Rein-SBF must pick opposite winners — this guards against
    // accidentally wiring both to the same key.
    let now = SimTime::ZERO;
    let a = op(1, 10, 10_000); // tiny local, giant bottleneck
    let b = op(2, 500, 600); // big local, small bottleneck

    let mut sjf = PolicyKind::Sjf.build();
    sjf.enqueue(a, now);
    sjf.enqueue(b, now);
    assert_eq!(sjf.dequeue(now).unwrap().0.tag.op.request, RequestId(1));

    let mut sbf = PolicyKind::ReinSbf.build();
    sbf.enqueue(a, now);
    sbf.enqueue(b, now);
    assert_eq!(sbf.dequeue(now).unwrap().0.tag.op.request, RequestId(2));
}

#[test]
fn das_oracle_and_das_share_ranking_logic() {
    // Oracle differs only in information quality, not in ranking: with
    // identical tags both pick the same op.
    let now = SimTime::ZERO;
    let ops = [op(1, 10, 5_000), op(2, 20, 100), op(3, 30, 900)];
    let mut das = PolicyKind::das().build();
    let mut oracle = PolicyKind::oracle().build();
    for o in ops {
        das.enqueue(o, now);
        oracle.enqueue(o, now);
    }
    for _ in 0..3 {
        assert_eq!(
            das.dequeue(now).unwrap().0.tag.op,
            oracle.dequeue(now).unwrap().0.tag.op
        );
    }
}

#[test]
fn queued_work_is_sum_of_estimates_for_every_policy() {
    let now = SimTime::ZERO;
    for policy in all_policies() {
        let mut s = policy.build();
        s.enqueue(op(1, 100, 200), now);
        s.enqueue(op(2, 250, 400), now);
        s.enqueue(op(3, 50, 60), now);
        assert_eq!(
            s.queued_work(),
            SimDuration::from_micros(400),
            "{}",
            s.name()
        );
    }
}
