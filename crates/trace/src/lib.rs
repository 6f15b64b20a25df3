//! # das-trace — structured event tracing with critical-path attribution
//!
//! A zero-default-overhead flight recorder for the DAS simulator. When
//! enabled, the engine emits one [`TraceEvent`] per interesting lifecycle
//! transition (request arrival/fan-out, per-op dispatch/enqueue/dequeue/
//! completion, scheduler reorder decisions with the rule that fired,
//! retry/hedge/abort events from the recovery layer, and per-server
//! queue-depth samples) into a bounded ring buffer.
//!
//! On top of the raw log this crate ships:
//!
//! * [`analysis::critical_paths`] — reconstructs, for every completed
//!   request, which op finished last and where its time went (coordinator
//!   stall from retries/backoff, request-side network, queue wait, service,
//!   response-side network). The five segments sum *exactly* to the
//!   request's RCT in integer nanoseconds.
//! * [`analysis::BlameBreakdown`] — aggregates the per-request paths into
//!   the per-policy blame table behind `das_bench table7_rct_breakdown`.
//! * [`diff::diff_traces`] — pairs two traces of the same seeded workload
//!   (matching requests by id, refusing mismatched arrival timestamps) and
//!   attributes the per-request RCT *delta* to the same five segments; the
//!   signed deltas telescope exactly too, so "policy B is 24 % faster"
//!   decomposes without residue into per-segment gains and losses.
//! * [`diff::ladder_diff`] — generalizes the pair to an N-way policy
//!   ladder (FCFS → Rein-SBF → DAS → DAS-tuned) over one common request
//!   population, so the per-segment step deltas telescope exactly across
//!   every rung, with per-server drill-down.
//! * [`telemetry::fold`] — folds the event stream into deterministic,
//!   integer-ns, epoch-bucketed per-server time series (queue depth,
//!   busy/idle occupancy with exact busy + idle == horizon conservation,
//!   outstanding bottleneck demand, reorder/shed/retry/hedge/batch/hint
//!   rates).
//! * [`export`] — JSONL (one event per line, with [`export::read_jsonl`]
//!   as the inverse) and Chrome `trace_event` JSON loadable in Perfetto /
//!   `chrome://tracing`, including per-server counter tracks from the
//!   folded telemetry.
//!
//! ## Determinism
//!
//! Recording never draws from a simulation RNG stream and never schedules
//! simulator events: sampling decisions are a pure hash
//! ([`das_sim::rng::splitmix64`]) of the master seed and the request id, so
//! a traced run and an untraced run of the same config are bit-identical in
//! every simulation output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Test code asserts on exact deterministic outputs and unwraps freely;
// the machine-checked rules apply to shipped library paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

pub mod analysis;
pub mod diff;
pub mod event;
pub mod export;
pub mod present;
pub mod recorder;
pub mod telemetry;

pub use analysis::{critical_paths, request_outcomes, BlameBreakdown, CriticalPath};
pub use diff::{
    diff_traces, ladder_diff, DiffError, DiffSummary, LadderDiff, LadderSummary, RequestDelta,
    Segment, ServerLadder, ServerLadderSummary, TraceDiff,
};
pub use event::{DispatchKind, ShedReason, TraceEvent};
pub use recorder::{TraceConfig, TraceLog, TraceRecorder};
pub use telemetry::{min_workers, ServerSeries, Telemetry, TelemetryConfig};
