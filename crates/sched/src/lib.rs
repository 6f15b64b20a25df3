//! # das-sched — multi-get scheduling disciplines
//!
//! The core contribution of the reproduced paper: per-server, non-preemptive
//! queue disciplines for key-value operations belonging to multi-get
//! requests, where the request only completes when its **last** operation
//! completes.
//!
//! * [`types`] — ids, the per-op metadata tag, server reports;
//! * [`scheduler`] — the [`Scheduler`] trait every policy implements;
//! * [`baselines`] — FCFS, SJF;
//! * [`rein`] — Rein-SBF and its two-level practical variant (EuroSys '17,
//!   the state-of-the-art baseline);
//! * [`das`] — the **Distributed Adaptive Scheduler** (see its module docs
//!   for the ranking rule and how it combines SRPT-first with LRPT-last);
//! * [`policy`] — serde-friendly policy selection for experiment configs.
//!
//! ```
//! use das_sched::prelude::*;
//! use das_sim::time::{SimDuration, SimTime};
//!
//! let mut sched = PolicyKind::das().build();
//! let now = SimTime::ZERO;
//! let op = QueuedOp {
//!     tag: OpTag {
//!         op: OpId { request: RequestId(1), index: 0 },
//!         request_arrival: now,
//!         fanout: 4,
//!         local_estimate: SimDuration::from_micros(80),
//!         bottleneck_eta: now + SimDuration::from_micros(400),
//!         bottleneck_demand: SimDuration::from_micros(400),
//!     },
//!     local_estimate: SimDuration::from_micros(80),
//!     enqueued_at: now,
//! };
//! sched.enqueue(op, now);
//! // Every dequeue returns the op and the decision that chose it.
//! let (served, decision) = sched.dequeue(now).unwrap();
//! assert_eq!(served.tag.op.request, RequestId(1));
//! assert_eq!((decision.position, decision.queue_len), (0, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Test code asserts on exact deterministic outputs and unwraps freely;
// the machine-checked rules apply to shipped library paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
#![warn(missing_debug_implementations)]

pub mod baselines;
pub mod das;
pub mod policy;
pub mod rein;
pub mod scheduler;
#[cfg(test)]
mod tests_edge;
pub mod types;

pub use das::{Das, DasConfig};
pub use policy::PolicyKind;
pub use scheduler::Scheduler;
pub use types::{OpId, OpTag, QueuedOp, RequestId, ServerId, ServerReport};

/// Frequently used items in one import.
pub mod prelude {
    pub use crate::das::{Das, DasConfig};
    pub use crate::policy::PolicyKind;
    pub use crate::scheduler::Scheduler;
    pub use crate::types::{OpId, OpTag, QueuedOp, RequestId, ServerId, ServerReport};
}
