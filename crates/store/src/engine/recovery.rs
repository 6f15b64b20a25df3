//! The recovery stage: crash-stop servers, link faults, per-attempt
//! deadlines, backed-off retries and hedged reads. Exists only when a
//! fault knob is active; every entry point is reached from `mod.rs`
//! through `if let Some(recovery)` (or, for request teardown, from the
//! overload stage's queue shed).

use std::collections::{BTreeMap, BTreeSet};

use das_metrics::quantile::P2Quantile;
use das_metrics::recovery::RecoveryStats;
use das_net::faults::{LinkFaults, MessageFate};
use das_sched::types::{OpId, OpTag, RequestId, ServerId};
use das_sim::rng::{SeedFactory, SimRng};
use das_sim::time::{SimDuration, SimTime};
use das_trace::{DispatchKind, TraceEvent};

use super::overload::Overload;
use super::{Core, Dispatch, Event};
use crate::config::RetryConfig;

/// The events only this stage schedules and handles.
#[derive(Debug)]
pub(super) enum RecoveryEvent {
    /// Crash-stop of one server.
    ServerCrash { server: ServerId },
    /// Recovery (empty) of one crashed server.
    ServerRecover { server: ServerId },
    /// Per-attempt deadline expiry at the coordinator.
    OpTimeout { op: OpId, attempt: u32 },
    /// Hedge timer: speculatively duplicate a still-pending read.
    HedgeFire { op: OpId },
    /// Backoff expired: re-dispatch a failed op.
    RetryDispatch { op: OpId },
}

/// Per target server of the request being placed, the servers that hold
/// *every* key coalesced onto it — the viable retry/hedge targets.
pub(super) type CandidateSets = Vec<(ServerId, Vec<ServerId>)>;

/// Narrows `server`'s candidate set to the servers that also hold a key
/// with these `replicas` (copied only when they open a new set).
pub(super) fn narrow_candidates(sets: &mut CandidateSets, server: ServerId, replicas: &[ServerId]) {
    match sets.iter_mut().find(|(s, _)| *s == server) {
        Some((_, set)) => set.retain(|s| replicas.contains(s)),
        None => sets.push((server, replicas.to_vec())),
    }
}

/// One dispatched attempt of one op, as the coordinator tracks it.
#[derive(Debug)]
struct Attempt {
    server: ServerId,
    /// Outstanding-work charge to release when the attempt resolves.
    estimate: f64,
    dispatched: SimTime,
    /// True until a response is accepted, the deadline expires, or the
    /// server crashes. Responses for closed attempts are discarded.
    open: bool,
}

/// Recovery state for one in-flight op.
#[derive(Debug)]
struct OpRuntime {
    /// Servers that can serve every key of this op (retry/hedge targets).
    candidates: Vec<ServerId>,
    /// Wire size of one dispatch of this op.
    req_bytes: u64,
    attempts: Vec<Attempt>,
    /// Sequential (non-hedge) dispatches so far, bounded by
    /// `retry.max_attempts`.
    seq_attempts: u32,
    /// A `RetryDispatch` is already queued.
    retry_pending: bool,
}

impl OpRuntime {
    fn open_attempts(&self) -> usize {
        self.attempts.iter().filter(|a| a.open).count()
    }
}

/// Why an attempt closed without an accepted response.
#[derive(Clone, Copy)]
enum Failure {
    /// Its server crashed under it, or was down when it arrived.
    Crash(ServerId),
    /// The deadline of the attempt with this index expired.
    Timeout(u32),
}

/// Everything the engine tracks only when the fault layer is active.
pub(super) struct Recovery {
    /// Dedicated stream: fault randomness never perturbs the net/noise
    /// streams.
    rng: SimRng,
    ops: BTreeMap<OpId, OpRuntime>,
    /// Requests that saw at least one timeout/retry/hedge/crash/duplicate.
    exposed: BTreeSet<RequestId>,
    /// Online op-latency quantile that sets the hedge delay.
    latency: P2Quantile,
    stats: RecoveryStats,
    /// Server-seconds of service performed (including partial service cut
    /// short by crashes). `wasted = total - goodput` at the end of the run.
    total_service_secs: f64,
    goodput_service_secs: f64,
}

impl Recovery {
    /// Also schedules the configured crash/recovery transitions, ahead of
    /// everything else in the queue.
    pub(super) fn new(core: &mut Core, seeds: &SeedFactory) -> Self {
        let faults = &core.config.faults;
        for (t_secs, server, goes_down) in faults.crashes.transitions() {
            let server = ServerId(server);
            let event = if goes_down {
                RecoveryEvent::ServerCrash { server }
            } else {
                RecoveryEvent::ServerRecover { server }
            };
            core.queue
                .schedule(SimTime::from_secs_f64(t_secs), Event::Recovery(event));
        }
        Recovery {
            rng: seeds.stream("engine-fault", 0),
            ops: BTreeMap::new(),
            exposed: BTreeSet::new(),
            latency: P2Quantile::new(if faults.hedge.enabled() {
                faults.hedge.quantile
            } else {
                0.5
            }),
            stats: RecoveryStats::new(),
            total_service_secs: 0.0,
            goodput_service_secs: 0.0,
        }
    }

    /// Rolls the fate of one message on `link` from the fault stream.
    pub(super) fn decide(&mut self, link: &LinkFaults) -> MessageFate {
        link.decide(&mut self.rng)
    }

    /// A service of this length ran to completion on some server.
    pub(super) fn note_service(&mut self, service: SimDuration) {
        self.total_service_secs += service.as_secs_f64();
    }

    /// A request completed with this RCT: file it as clean or
    /// fault-exposed.
    pub(super) fn note_completion(&mut self, request: RequestId, measured: bool, rct: f64) {
        let exposed = self.exposed.remove(&request);
        if measured {
            if exposed {
                self.stats.rct_fault_exposed.record(rct);
            } else {
                self.stats.rct_clean.record(rct);
            }
        }
    }

    /// The run's recovery counters (the caller fills in what the core and
    /// the overload stage counted).
    pub(super) fn finish(self) -> RecoveryStats {
        debug_assert!(self.ops.is_empty(), "op runtimes leaked past the run");
        RecoveryStats {
            goodput_service_secs: self.goodput_service_secs,
            wasted_service_secs: (self.total_service_secs - self.goodput_service_secs).max(0.0),
            ..self.stats
        }
    }

    /// Bookkeeping for the initial dispatch of one op (already sent by
    /// `handle_request`): attempt tracking, deadline, and (for hedgeable
    /// reads) the hedge timer.
    pub(super) fn track_first_attempt(
        &mut self,
        core: &mut Core,
        sets: &mut CandidateSets,
        op: OpId,
        sent: Dispatch,
        is_read: bool,
        now: SimTime,
    ) {
        // Each op has its own target server, so its set is read only here.
        let candidates = sets
            .iter_mut()
            .find(|(s, _)| *s == sent.server)
            .map(|(_, set)| std::mem::take(set))
            .filter(|set| !set.is_empty())
            .unwrap_or_else(|| vec![sent.server]);
        let rt = OpRuntime {
            candidates,
            req_bytes: sent.req_bytes,
            attempts: vec![Attempt {
                server: sent.server,
                estimate: sent.service_est,
                dispatched: now,
                open: true,
            }],
            seq_attempts: 1,
            retry_pending: false,
        };
        arm_timeout(core, op, 0, now);
        let hedge = &core.config.faults.hedge;
        if hedge.enabled()
            && is_read
            && rt.candidates.len() >= 2
            && self.latency.count() as u64 >= hedge.min_samples
        {
            if let Some(q) = self.latency.estimate() {
                let delay = q.max(hedge.min_delay_secs);
                core.queue.schedule(
                    now + SimDuration::from_secs_f64(delay),
                    Event::Recovery(RecoveryEvent::HedgeFire { op }),
                );
            }
        }
        self.ops.insert(op, rt);
    }

    /// Re-dispatch (retry) or speculative duplicate (hedge) of one op to
    /// `server`: recomputes estimates, refreshes the coordinator's per-op
    /// view, opens the attempt and sends it down the core's dispatch path.
    fn dispatch_attempt(
        &mut self,
        core: &mut Core,
        op: OpId,
        server: ServerId,
        kind: DispatchKind,
        now: SimTime,
    ) {
        let request = op.request;
        let bytes = core.op_bytes.get(op).map_or(0, |b| b.service);
        let service_est = core.estimate_service(request, server, bytes, now);
        let wait_est = core.estimate_wait(request, server, now);
        let eta = now + SimDuration::from_secs_f64(core.net_mean_secs + wait_est + service_est);
        // Refresh the coordinator's per-op record so later hints reflect
        // the new placement and estimate.
        let state = core
            .coord_mut(request)
            .request_mut(request)
            // das-lint: allow(unwrap-lib): request state lives until its last op completes
            .expect("attempt dispatched for a live request");
        let local_estimate = SimDuration::from_secs_f64(service_est);
        let p = &mut state.ops[op.index as usize];
        p.server = server;
        p.eta = eta;
        p.demand_est = local_estimate;
        let tag = OpTag {
            op,
            request_arrival: state.arrival,
            fanout: state.ops.len() as u32,
            local_estimate,
            bottleneck_eta: state.bottleneck_eta,
            bottleneck_demand: state.bottleneck_demand,
        };
        // das-lint: allow(unwrap-lib): op runtime is created at dispatch and outlives the attempt
        let rt = self.ops.get_mut(&op).expect("dispatch for live op");
        rt.attempts.push(Attempt {
            server,
            estimate: service_est,
            dispatched: now,
            open: true,
        });
        if kind == DispatchKind::Retry {
            rt.seq_attempts += 1;
        }
        let attempt = (rt.attempts.len() - 1) as u32;
        let sent = Dispatch {
            server,
            service_est,
            req_bytes: rt.req_bytes,
        };
        let fate = self.decide(&core.config.faults.request_faults);
        core.dispatch(tag, sent, attempt, kind, fate, now);
        arm_timeout(core, op, attempt, now);
    }

    /// Fault-mode response filter: accepts the response iff its op is
    /// still live and it answers an open attempt at `server`. Closes the
    /// winning attempt (plus any losing hedge attempts), releases the
    /// outstanding charges, and feeds the hedge latency estimator.
    pub(super) fn accept_response(
        &mut self,
        core: &mut Core,
        op: OpId,
        server: ServerId,
        service: SimDuration,
        now: SimTime,
    ) -> bool {
        let Some(rt) = self.ops.get_mut(&op) else {
            // The op already completed or its request aborted: a duplicate
            // delivery or a straggler past its closure. Real service,
            // wasted.
            self.stats.duplicate_responses += 1;
            return false;
        };
        let Some(a) = rt
            .attempts
            .iter_mut()
            .find(|a| a.open && a.server == server)
        else {
            // The attempt was closed (timeout or crash) before this
            // response arrived, or a duplicated message answered twice.
            self.stats.duplicate_responses += 1;
            self.exposed.insert(op.request);
            return false;
        };
        a.open = false;
        let est = a.estimate;
        self.latency
            .record(now.saturating_since(a.dispatched).as_secs_f64());
        self.goodput_service_secs += service.as_secs_f64();
        core.release(op.request, server, est);
        // The losing attempts (hedges, straggling retries) close with the
        // op: any response they still produce is discarded above.
        self.release_op(core, op);
        true
    }

    /// Forgets `op`, releasing the charge of every attempt still open.
    fn release_op(&mut self, core: &mut Core, op: OpId) {
        if let Some(rt) = self.ops.remove(&op) {
            for a in rt.attempts.iter().filter(|a| a.open) {
                core.release(op.request, a.server, a.estimate);
            }
        }
    }

    /// Request teardown: the request leaves the stage's books — every op
    /// runtime removed (so late responses and pending timers become
    /// no-ops), every open attempt's charge released.
    pub(super) fn teardown(&mut self, core: &mut Core, request: RequestId, ops: usize) {
        self.exposed.remove(&request);
        for index in 0..ops as u32 {
            self.release_op(core, OpId { request, index });
        }
    }

    /// Attempt closure: marks one open attempt of `op` failed, counts and
    /// traces the cause, and releases its charge. False when the op is
    /// gone or that attempt is already closed (only the first closure
    /// counts); on true the caller follows up with `resolve_op_failure`.
    fn close_attempt(&mut self, core: &mut Core, op: OpId, cause: Failure, now: SimTime) -> bool {
        let Some(rt) = self.ops.get_mut(&op) else {
            return false;
        };
        let found = match cause {
            Failure::Crash(server) => rt
                .attempts
                .iter_mut()
                .find(|a| a.open && a.server == server),
            Failure::Timeout(attempt) => rt.attempts.get_mut(attempt as usize).filter(|a| a.open),
        };
        let Some(a) = found else {
            return false;
        };
        a.open = false;
        let (server, est) = (a.server, a.estimate);
        match cause {
            Failure::Crash(_) => self.stats.crash_drops += 1,
            Failure::Timeout(_) => self.stats.timeouts += 1,
        }
        self.exposed.insert(op.request);
        core.trace.emit(op.request, || {
            let (t_ns, request, op) = (now.as_nanos(), op.request.0, op.index);
            match cause {
                Failure::Crash(server) => TraceEvent::CrashDrop {
                    t_ns,
                    request,
                    op,
                    server: server.0,
                },
                Failure::Timeout(attempt) => TraceEvent::OpTimeout {
                    t_ns,
                    request,
                    op,
                    attempt,
                },
            }
        });
        core.release(op.request, server, est);
        true
    }

    /// An op arrived at a crash-stopped server: the (ideal) failure
    /// detector closes the attempt immediately and the retry machinery
    /// takes over.
    pub(super) fn fail_attempt_at(
        &mut self,
        core: &mut Core,
        overload: Option<&mut Overload>,
        op: OpId,
        server: ServerId,
        now: SimTime,
    ) {
        if self.close_attempt(core, op, Failure::Crash(server), now) {
            self.resolve_op_failure(core, overload, op, now);
        }
    }

    /// Handles one of this stage's own events.
    pub(super) fn handle(
        &mut self,
        core: &mut Core,
        mut overload: Option<&mut Overload>,
        event: RecoveryEvent,
        now: SimTime,
    ) {
        match event {
            RecoveryEvent::ServerCrash { server } => {
                core.trace.emit_unsampled(TraceEvent::ServerCrash {
                    t_ns: now.as_nanos(),
                    server: server.0,
                });
                // Drained and cut-short ops are handed back to the
                // coordinator, which instantly closes the affected
                // attempts (ideal failure detection) and retries or aborts.
                let (queued, in_service) = core.servers[server.0 as usize].crash(now);
                for e in &in_service {
                    // Partial service performed before the crash was spent
                    // for nothing.
                    self.total_service_secs += now.saturating_since(e.started).as_secs_f64();
                }
                // Close every affected attempt before resolving any: a
                // resolve can abort a request and remove sibling runtimes,
                // whose drops would then go uncounted. Duplicated
                // deliveries can drop two copies of one attempt; the
                // second closure finds it closed.
                let dropped = queued
                    .iter()
                    .map(|q| q.tag.op)
                    .chain(in_service.iter().map(|e| e.op));
                let affected: Vec<OpId> = dropped
                    .filter(|&op| self.close_attempt(core, op, Failure::Crash(server), now))
                    .collect();
                for op in affected {
                    self.resolve_op_failure(core, overload.as_deref_mut(), op, now);
                }
            }
            RecoveryEvent::ServerRecover { server } => {
                core.trace.emit_unsampled(TraceEvent::ServerRecover {
                    t_ns: now.as_nanos(),
                    server: server.0,
                });
                core.servers[server.0 as usize].recover();
            }
            RecoveryEvent::OpTimeout { op, attempt } => {
                if self.close_attempt(core, op, Failure::Timeout(attempt), now) {
                    self.resolve_op_failure(core, overload, op, now);
                }
            }
            RecoveryEvent::HedgeFire { op } => self.handle_hedge_fire(core, overload, op, now),
            RecoveryEvent::RetryDispatch { op } => self.handle_retry_dispatch(core, op, now),
        }
    }

    /// Called when an attempt just closed unsuccessfully: schedules a
    /// backed-off retry if budget remains, else aborts the whole request.
    fn resolve_op_failure(
        &mut self,
        core: &mut Core,
        overload: Option<&mut Overload>,
        op: OpId,
        now: SimTime,
    ) {
        let retry = &core.config.faults.retry;
        let Some(rt) = self.ops.get_mut(&op) else {
            return;
        };
        if rt.open_attempts() > 0 || rt.retry_pending {
            return;
        }
        // A dry backpressure budget denies the retry: retrying now would
        // feed the overload that caused the failure. Fail fast instead of
        // retry-storming past saturation.
        if retry.enabled()
            && rt.seq_attempts < retry.max_attempts
            && overload.is_none_or(|ov| ov.take_token(core.config, DispatchKind::Retry, now))
        {
            let mut backoff = RetryConfig::backoff_secs(rt.seq_attempts + 1);
            if retry.jitter > 0.0 {
                backoff *= 1.0 + retry.jitter * das_sim::rng::open_unit(&mut self.rng);
            }
            rt.retry_pending = true;
            core.queue.schedule(
                now + SimDuration::from_secs_f64(backoff),
                Event::Recovery(RecoveryEvent::RetryDispatch { op }),
            );
        } else {
            self.abort_request(core, op.request, now);
        }
    }

    /// Abandons a request after an op exhausted its attempts: the request
    /// leaves the coordinator's table and the stage's books.
    fn abort_request(&mut self, core: &mut Core, request: RequestId, now: SimTime) {
        let Some(state) = core.coord_mut(request).finish(request) else {
            return;
        };
        self.stats.aborted += 1;
        core.trace.emit(request, || TraceEvent::RequestAbort {
            t_ns: now.as_nanos(),
            request: request.0,
        });
        self.teardown(core, request, state.ops.len());
    }

    /// Backoff expired: re-dispatch the op to the best live candidate.
    fn handle_retry_dispatch(&mut self, core: &mut Core, op: OpId, now: SimTime) {
        // Gone when the request completed or aborted while the backoff ran.
        let Some(rt) = self.ops.get_mut(&op) else {
            return;
        };
        rt.retry_pending = false;
        debug_assert_eq!(rt.open_attempts(), 0);
        let bytes = core.op_bytes.get(op).map_or(0, |b| b.service);
        if let Some(server) = core.pick_target(&rt.candidates, &[], op.request, bytes, now) {
            self.stats.retries += 1;
            self.exposed.insert(op.request);
            self.dispatch_attempt(core, op, server, DispatchKind::Retry, now);
        }
    }

    /// Hedge timer fired: if the op is still waiting on an open attempt,
    /// speculatively duplicate it to its best other replica.
    fn handle_hedge_fire(
        &mut self,
        core: &mut Core,
        overload: Option<&mut Overload>,
        op: OpId,
        now: SimTime,
    ) {
        // Already answered, or mid-retry (no open attempt to hedge).
        let Some(rt) = self.ops.get(&op).filter(|rt| rt.open_attempts() > 0) else {
            return;
        };
        let exclude: Vec<ServerId> = rt
            .attempts
            .iter()
            .filter(|a| a.open)
            .map(|a| a.server)
            .collect();
        let bytes = core.op_bytes.get(op).map_or(0, |b| b.service);
        let Some(server) = core.pick_target(&rt.candidates, &exclude, op.request, bytes, now)
        else {
            return;
        };
        // With the budget dry the speculation is suppressed quietly — the
        // primary attempt keeps running and can still win.
        if overload.is_none_or(|ov| ov.take_token(core.config, DispatchKind::Hedge, now)) {
            self.stats.hedges += 1;
            self.exposed.insert(op.request);
            self.dispatch_attempt(core, op, server, DispatchKind::Hedge, now);
        }
    }
}

/// Arms the per-attempt deadline, when retries are on.
fn arm_timeout(core: &mut Core, op: OpId, attempt: u32, now: SimTime) {
    let retry = &core.config.faults.retry;
    if retry.enabled() {
        core.queue.schedule(
            now + SimDuration::from_secs_f64(retry.deadline_secs),
            Event::Recovery(RecoveryEvent::OpTimeout { op, attempt }),
        );
    }
}
