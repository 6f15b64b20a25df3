//! The overload stage: deadline-aware admission, bounded per-server
//! queues, the retry/hedge token budget and tiny-op batch coalescing.
//! Exists only when an overload-control knob is active; every entry point
//! is reached from `mod.rs` through `if let Some(overload)` (or, for the
//! token draw, from the recovery stage's retry and hedge handlers).

use std::collections::BTreeSet;

use das_metrics::batch::BatchingStats;
use das_metrics::recovery::RecoveryStats;
use das_sched::types::{OpId, RequestId, ServerId};
use das_sim::time::{SimDuration, SimTime};
use das_trace::{DispatchKind, ShedReason, TraceEvent};

use super::recovery::Recovery;
use super::{Core, Event};
use crate::config::{BatchConfig, OverloadProfile, SimulationConfig};

/// Everything the engine tracks only when the overload layer is active.
pub(super) struct Overload {
    /// Retry/hedge token budget. Refilled purely from elapsed simulation
    /// time, so the bucket is deterministic and draws no randomness.
    tokens: f64,
    last_refill: SimTime,
    /// Requests shed at a full server queue. Their remaining deliveries
    /// and responses are dropped at the door instead of tripping the
    /// untracked-request assertions.
    shed_requests: BTreeSet<RequestId>,
    shed_admission: u64,
    shed_queue: u64,
    retries_denied: u64,
    hedges_denied: u64,
    batching: BatchingStats,
    /// Without the recovery stage only: service-seconds behind accepted
    /// responses. (With it, `Recovery` already splits goodput/wasted.)
    goodput_service_secs: f64,
    /// Without the recovery stage only: service-seconds of responses
    /// discarded because their request had been shed.
    wasted_service_secs: f64,
}

impl Overload {
    pub(super) fn new(profile: &OverloadProfile) -> Self {
        Overload {
            tokens: profile.backpressure.burst,
            last_refill: SimTime::ZERO,
            shed_requests: BTreeSet::new(),
            shed_admission: 0,
            shed_queue: 0,
            retries_denied: 0,
            hedges_denied: 0,
            batching: BatchingStats::new(),
            goodput_service_secs: 0.0,
            wasted_service_secs: 0.0,
        }
    }

    /// Adds this stage's counters to the run's `stats`.
    pub(super) fn finish(self, stats: &mut RecoveryStats, fault_free: bool) {
        stats.shed_admission = self.shed_admission;
        stats.shed_queue = self.shed_queue;
        stats.retries_denied = self.retries_denied;
        stats.hedges_denied = self.hedges_denied;
        stats.batching = self.batching;
        if fault_free {
            stats.goodput_service_secs = self.goodput_service_secs;
            stats.wasted_service_secs = self.wasted_service_secs;
        }
    }

    /// True when the backpressure budget (if armed) grants one token for
    /// a retry or hedge dispatch at `now`; a denial is counted against
    /// `kind`. Refills from simulated elapsed time and takes a token only
    /// if a whole one is available.
    pub(super) fn take_token(
        &mut self,
        config: &SimulationConfig,
        kind: DispatchKind,
        now: SimTime,
    ) -> bool {
        let cfg = &config.overload.backpressure;
        if !cfg.enabled() {
            return true;
        }
        let elapsed = now.saturating_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * cfg.tokens_per_sec).min(cfg.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return true;
        }
        if kind == DispatchKind::Hedge {
            self.hedges_denied += 1;
        } else {
            self.retries_denied += 1;
        }
        false
    }

    /// True when `request` was shed at a full queue earlier in the run.
    pub(super) fn is_shed(&self, request: RequestId) -> bool {
        self.shed_requests.contains(&request)
    }

    /// Deadline-aware admission: sheds the request up front (returning
    /// false) when even the optimistic completion estimate cannot meet
    /// its deadline. `written` bytes are inflated by the configured
    /// penalty, so under pressure large writes are preferentially
    /// rejected — they are the cheapest requests to lose (their response
    /// is a small ack and they occupy the most service time per key).
    /// `etas` holds each op's `(server, service estimate, eta)`.
    pub(super) fn admit(
        &mut self,
        core: &mut Core,
        request: RequestId,
        written: u64,
        etas: &[(ServerId, f64, SimTime)],
        bottleneck_eta: SimTime,
        now: SimTime,
    ) -> bool {
        let adm = &core.config.overload.admission;
        if !adm.enabled() {
            return true;
        }
        let penalty_secs = (adm.write_penalty - 1.0) * written as f64
            / core.config.cluster.base_rate_bytes_per_sec;
        let projected = bottleneck_eta + SimDuration::from_secs_f64(penalty_secs);
        let deadline_at = now + SimDuration::from_secs_f64(adm.deadline_secs);
        if projected > deadline_at {
            self.shed_admission += 1;
            core.trace.emit(request, || TraceEvent::Shed {
                t_ns: now.as_nanos(),
                request: request.0,
                reason: ShedReason::Admission,
                server: etas
                    .iter()
                    .max_by(|a, b| a.2.cmp(&b.2))
                    .map_or(0, |&(s, _, _)| s.0),
            });
            return false;
        }
        core.trace.emit(request, || TraceEvent::Admitted {
            t_ns: now.as_nanos(),
            request: request.0,
            slack_ns: deadline_at.saturating_since(projected).as_nanos(),
        });
        true
    }

    /// True when the bounded-queue knob is armed and `server`'s queue is
    /// at capacity.
    pub(super) fn queue_full(&self, core: &Core, server: ServerId) -> bool {
        let adm = &core.config.overload.admission;
        adm.enabled() && core.servers[server.0 as usize].queue_len() as u32 >= adm.queue_capacity
    }

    /// A full queue rejected one delivery of `op`: the whole request is
    /// shed (a partially answered multi-get is useless). Like an abort,
    /// the coordinator state leaves the table and open charges are
    /// released — but the loss is accounted as `shed_queue`, and the
    /// request id is remembered so late sibling deliveries and responses
    /// are dropped quietly.
    pub(super) fn shed_at_queue(
        &mut self,
        core: &mut Core,
        recovery: Option<&mut Recovery>,
        op: OpId,
        server: ServerId,
        now: SimTime,
    ) {
        let request = op.request;
        core.op_bytes.remove(op);
        let Some(state) = core.coord_mut(request).finish(request) else {
            // The request already completed or aborted (e.g. a duplicated
            // late delivery hit the full queue): nothing left to shed.
            return;
        };
        self.shed_queue += 1;
        self.shed_requests.insert(request);
        core.trace.emit(request, || TraceEvent::Shed {
            t_ns: now.as_nanos(),
            request: request.0,
            reason: ShedReason::QueueFull,
            server: server.0,
        });
        match recovery {
            Some(r) => r.teardown(core, request, state.ops.len()),
            None => {
                for p in state.ops.iter().filter(|p| !p.done) {
                    core.release(request, p.server, p.demand_est.as_secs_f64());
                }
            }
        }
    }

    /// Accounts the service behind one response. True (and the response
    /// is dropped) when it answers a request shed at a queue: real
    /// service, discarded. With the recovery stage on, `Recovery` already
    /// splits goodput from waste; without it (`fault_free`) that happens
    /// here.
    pub(super) fn discards_response(
        &mut self,
        core: &mut Core,
        op: OpId,
        service: SimDuration,
        fault_free: bool,
    ) -> bool {
        let shed = self.is_shed(op.request);
        if shed {
            core.op_bytes.remove(op);
        }
        if fault_free {
            if shed {
                self.wasted_service_secs += service.as_secs_f64();
            } else {
                self.goodput_service_secs += service.as_secs_f64();
            }
        }
        shed
    }

    /// Value-size-aware coalescing: when the op that just started service
    /// is tiny, drain up to `max_ops - 1` further queued ops into the
    /// same worker visit, in scheduler order. Tiny followers pay only a
    /// fraction of the per-op overhead (the visit's setup cost is
    /// amortized); the first non-tiny follower still joins the visit at
    /// full cost but terminates the pull. Follower service slices are
    /// strictly increasing, so completion events stay totally ordered
    /// and the run deterministic.
    pub(super) fn maybe_batch(
        &mut self,
        core: &mut Core,
        server: ServerId,
        leader: OpId,
        leader_bytes: u64,
        leader_end: SimTime,
        now: SimTime,
    ) {
        let batch = &core.config.overload.batch;
        if !batch.enabled() || leader_bytes > BatchConfig::TINY_OP_BYTES {
            return;
        }
        let rate = core.service_rate(server, now);
        let full_overhead = core.config.cluster.per_op_overhead.as_secs_f64();
        let incarnation = core.servers[server.0 as usize].incarnation();
        let mut prev_end = leader_end;
        let mut overhead_saved = 0.0f64;
        let mut members: Vec<OpId> = vec![leader];
        while (members.len() as u32) < batch.max_ops {
            let Some(fop) = core.servers[server.0 as usize].dequeue_batch_follower(now) else {
                break;
            };
            let fid = fop.tag.op;
            let fbytes = core.op_bytes.get(fid).copied().unwrap_or_default();
            let tiny = fbytes.service <= BatchConfig::TINY_OP_BYTES;
            let overhead = if tiny {
                batch.overhead_fraction * full_overhead
            } else {
                full_overhead
            };
            let mut slice = SimDuration::from_secs_f64(overhead + fbytes.service as f64 / rate);
            if prev_end + slice <= prev_end {
                // Degenerate zero-length slice (zero overhead and zero
                // bytes): keep completion order strict anyway.
                slice = SimDuration::from_secs_f64(1e-9);
            }
            let fend = prev_end + slice;
            core.servers[server.0 as usize].attach_batch_follower(fid, prev_end, fend);
            core.queue.schedule(
                fend,
                Event::ServiceDone {
                    server,
                    op: fid,
                    bytes: fbytes.response,
                    service: slice,
                    incarnation,
                },
            );
            if tiny {
                overhead_saved += (1.0 - batch.overhead_fraction) * full_overhead;
            }
            members.push(fid);
            prev_end = fend;
            if !tiny {
                break;
            }
        }
        if members.len() > 1 {
            let size = members.len() as u32;
            self.batching.record(size, overhead_saved);
            for id in members {
                core.trace.emit(id.request, || TraceEvent::Batched {
                    t_ns: now.as_nanos(),
                    request: id.request.0,
                    op: id.index,
                    server: server.0,
                    size,
                });
            }
        }
    }
}
