//! The discrete-event simulation engine: coordinator, network, and servers
//! wired together.
//!
//! One run simulates a single logical coordinator (the client tier) issuing
//! multi-get requests against `N` servers. Per-key reads are coalesced into
//! one operation per target server, as real multi-get RPCs are. The engine
//! is fully deterministic given the configuration seed.
//!
//! # Layout
//!
//! This file is the clean path, top to bottom: the event loop in
//! `Engine::run`, then `handle_request` → `Core::dispatch` →
//! `handle_op_arrival` → `kick` → `send_response` →
//! `handle_op_done`. `Core` owns everything that path touches. The two
//! optional stages live beside it:
//!
//! * `recovery` — crash-stop servers, link faults, per-attempt deadlines,
//!   retries and hedged reads;
//! * `overload` — deadline-aware admission, bounded queues, the
//!   retry/hedge budget and tiny-op batching.
//!
//! `Engine::new` decides once whether each stage exists. The code in this
//! file reaches a stage only through `if let Some(stage)` on
//! `Engine::recovery` / `Engine::overload`, and a stage works on the core
//! through the `&mut Core` it is handed, so a run with both stages off
//! executes nothing defined outside this file and stays bit-identical to
//! a build without them.

mod overload;
mod recovery;
#[cfg(test)]
mod tests;

use std::borrow::Borrow;

use das_metrics::batch::BatchMeans;
use das_metrics::recovery::RecoveryStats;
use das_metrics::slowdown::SlowdownTracker;
use das_metrics::summary::LatencySummary;
use das_metrics::timeseries::TimeSeries;
use das_net::accounting::{wire, TrafficAccounting, TrafficClass};
use das_net::faults::{LinkFaults, MessageFate};
use das_net::latency::NetworkModel;
use das_sched::types::{HintUpdate, OpId, OpTag, QueuedOp, RequestId, ServerId, ServerReport};
use das_sim::dist::{Lognormal, Sample};
use das_sim::queue::EventQueue;
use das_sim::rng::{SeedFactory, SimRng};
use das_sim::stats::OnlineStats;
use das_sim::time::{SimDuration, SimTime};
use das_trace::{DispatchKind, TraceEvent, TraceLog, TraceRecorder};

use crate::config::SimulationConfig;
use crate::coordinator::{Coordinator, PendingOp, RequestState};
use crate::partition::Partitioner;
use crate::server::Server;
use crate::table::IdTable;

use overload::Overload;
use recovery::{Recovery, RecoveryEvent};

/// One multi-get request as the store sees it: keys with resolved value
/// sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreRequest {
    /// Request id (unique, increasing).
    pub id: u64,
    /// Arrival instant at the coordinator.
    pub arrival: SimTime,
    /// The keys to read and their value sizes.
    pub reads: Vec<KeyRead>,
}

/// One key access within a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRead {
    /// The key.
    pub key: u64,
    /// Its value size in bytes.
    pub bytes: u32,
    /// True for a put (the value travels *to* the server and the response
    /// is a small ack); false for a get.
    pub write: bool,
}

impl KeyRead {
    /// A read access.
    pub fn read(key: u64, bytes: u32) -> Self {
        KeyRead {
            key,
            bytes,
            write: false,
        }
    }

    /// A write access.
    pub fn write(key: u64, bytes: u32) -> Self {
        KeyRead {
            key,
            bytes,
            write: true,
        }
    }
}

/// Everything measured during a run.
#[derive(Debug)]
pub struct RunResult {
    /// Display name of the policy that ran.
    pub policy: String,
    /// Requests that completed (including warmup).
    pub completed: u64,
    /// Requests inside the measurement window.
    pub measured: u64,
    /// Request completion time distribution (measured window only).
    pub rct: LatencySummary,
    /// ~95% batch-means confidence half-width on the mean RCT, seconds
    /// (`None` when the run is too short for a meaningful interval).
    pub mean_rct_ci95: Option<f64>,
    /// RCT binned by request *arrival* time (all completed requests) —
    /// used by the time-varying figures.
    pub rct_over_time: Option<TimeSeries>,
    /// Per-fan-out-class slowdown (actual / zero-queueing ideal).
    pub slowdown: SlowdownTracker,
    /// Message/byte accounting.
    pub traffic: TrafficAccounting,
    /// Mean server utilization over the horizon.
    pub mean_utilization: f64,
    /// The busiest server's utilization.
    pub max_utilization: f64,
    /// Utilization of each server over the horizon (index = server id).
    pub per_server_utilization: Vec<f64>,
    /// Mean zero-queueing ideal RCT over measured requests — the lower
    /// bound no policy can beat. The per-request ideal uses *mean* network
    /// delays, so the bound holds in expectation (individual requests can
    /// undershoot it when their sampled network delays land below the
    /// mean).
    pub lower_bound_mean_rct: f64,
    /// Mean number of ops per request after per-server coalescing.
    pub mean_ops_per_request: f64,
    /// Total simulated events processed (a cost/progress indicator).
    pub events_processed: u64,
    /// Fault-recovery accounting (all zeros on a fault-free run).
    pub recovery: RecoveryStats,
    /// Structured event log (`None` unless tracing was enabled).
    pub trace: Option<TraceLog>,
}

impl RunResult {
    /// Mean RCT in seconds (measured window).
    pub fn mean_rct(&self) -> f64 {
        self.rct.mean()
    }

    /// p99 RCT in seconds (measured window).
    pub fn p99_rct(&self) -> f64 {
        self.rct.p99()
    }
}

/// Byte accounting for one in-flight op.
#[derive(Debug, Clone, Copy, Default)]
struct OpBytes {
    /// Bytes driving the service time (reads + writes).
    service: u64,
    /// Bytes returned in the response (reads only).
    response: u64,
}

/// One send of one op as the wire and the coordinator's outstanding-work
/// ledger see it.
#[derive(Debug, Clone, Copy)]
struct Dispatch {
    server: ServerId,
    /// The coordinator's service-time estimate, seconds: charged at
    /// dispatch, released when the op (or this attempt of it) resolves.
    service_est: f64,
    /// Request frame + per-key framing + written value bytes.
    req_bytes: u64,
}

#[derive(Debug)]
enum Event {
    NextArrival,
    /// One delivered copy of an op; the server stamps the arrival instant
    /// (this event's time) when it queues it.
    OpArrival {
        server: ServerId,
        tag: OpTag,
    },
    ServiceDone {
        server: ServerId,
        op: OpId,
        bytes: u64,
        /// True service duration (for goodput/wasted-work accounting).
        service: SimDuration,
        /// Server incarnation at dispatch; a crash in between makes this
        /// stale and the completion is discarded.
        incarnation: u64,
    },
    ResponseArrival {
        op: OpId,
        /// Which server answered (attempt resolution under retries/hedges).
        server: ServerId,
        /// Service duration behind this response.
        service: SimDuration,
        report: Option<ServerReport>,
    },
    Hint {
        server: ServerId,
        request: RequestId,
        update: HintUpdate,
    },
    /// A crash, recovery or timer of the recovery stage; never scheduled
    /// without it.
    Recovery(RecoveryEvent),
}

/// The trace recorder, present iff tracing is enabled. It never draws
/// randomness and never schedules events, so a traced run's simulation
/// results are bit-identical to an untraced run's.
struct Tracer(Option<TraceRecorder>);

impl Tracer {
    /// Records `event()` if tracing is on *and* `request` falls in the
    /// sample: an untraced run pays one `Option` check per would-be event
    /// and a sampled-out request never constructs its event.
    fn emit(&mut self, request: RequestId, event: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &mut self.0 {
            if t.is_sampled(request.0) {
                t.record(event());
            }
        }
    }

    /// Records a cluster-level event (no request to sample on) if tracing
    /// is on.
    fn emit_unsampled(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.0 {
            t.record(event);
        }
    }
}

/// The fate of one message on `link`: rolled from the recovery stage's
/// fault stream when that stage is on, [`MessageFate::CLEAN`] (and no
/// draw) when it is off.
fn link_fate(link: &LinkFaults, recovery: Option<&mut Recovery>) -> MessageFate {
    match recovery {
        Some(r) => r.decide(link),
        None => MessageFate::CLEAN,
    }
}

/// Runs one simulation over `requests` (which must arrive in
/// non-decreasing order). Returns an error message for invalid configs.
///
/// Equal-arrival requests are injected in iterator order, which is part
/// of the determinism contract: replay paths pin it to ascending
/// `(arrival, id)` (see `das_workload::trace::replay_order`), and the
/// generator emits that order natively, so a recorded trace replays
/// bit-identically to the generative stream.
///
/// The engine only reads its input, so `requests` may yield owned requests
/// or references: one materialised workload can feed any number of runs.
/// A request that reads no keys, or whose id is still in flight when it
/// arrives, is an error like a backwards arrival.
pub fn run_simulation<I>(config: &SimulationConfig, requests: I) -> Result<RunResult, String>
where
    I: IntoIterator,
    I::Item: Borrow<StoreRequest>,
{
    config.validate().map_err(|e| e.to_string())?;
    Engine::new(config).run(requests.into_iter())
}

/// The buffers `handle_request` fills while it places one request. `Core`
/// keeps them between requests (taken on entry, handed back on every
/// exit), so placing a request allocates only while one of them is still
/// growing towards the run's widest fan-out.
#[derive(Default)]
struct Placement {
    /// Replica set of the key being placed.
    replicas: Vec<ServerId>,
    /// Per target server: (server, total bytes, key count, bytes written).
    per_server: Vec<(ServerId, u64, u32, u64)>,
    /// Per op, in `per_server` order: (server, service estimate, eta).
    etas: Vec<(ServerId, f64, SimTime)>,
}

/// Everything the clean dispatch → queue → serve → reply path owns. The
/// stages borrow it mutably and keep only their own state.
struct Core<'a> {
    config: &'a SimulationConfig,
    queue: EventQueue<Event>,
    servers: Vec<Server>,
    /// One per configured coordinator; a request's owner is
    /// `id % coordinators`.
    coordinators: Vec<Coordinator>,
    partitioner: Partitioner,
    net: NetworkModel,
    net_mean_secs: f64,
    net_rng: SimRng,
    noise_rng: SimRng,
    noise: Option<Lognormal>,
    traffic: TrafficAccounting,
    /// True byte accounting per in-flight op (the scheduler only sees
    /// estimates).
    op_bytes: IdTable<OpId, OpBytes>,
    // Policy capabilities, read once.
    wants_hints: bool,
    wants_piggyback: bool,
    metadata_bytes: u64,
    oracle: bool,
    // Measurement.
    horizon: SimTime,
    warmup: SimTime,
    rct: LatencySummary,
    rct_batches: BatchMeans,
    rct_over_time: Option<TimeSeries>,
    slowdown: SlowdownTracker,
    ideal_stats: OnlineStats,
    ops_per_request: OnlineStats,
    completed: u64,
    measured: u64,
    events_processed: u64,
    /// Requests admitted (dispatched) this run.
    accepted: u64,
    trace: Tracer,
    // Reused buffers: the clean path allocates nothing per request.
    placement: Placement,
    /// The servers a progress hint is being sent to, collected while the
    /// coordinator's request state is borrowed.
    hint_targets: Vec<ServerId>,
}

struct Engine<'a> {
    core: Core<'a>,
    /// Present iff any fault knob is active.
    recovery: Option<Recovery>,
    /// Present iff any overload-control knob is active.
    overload: Option<Overload>,
}

impl<'a> Core<'a> {
    fn new(config: &'a SimulationConfig, seeds: &SeedFactory) -> Self {
        let cluster = &config.cluster;
        let servers: Vec<Server> = (0..cluster.servers)
            .map(|i| {
                Server::new(
                    ServerId(i),
                    config.policy.build(),
                    cluster.workers_per_server,
                )
            })
            .collect();
        let probe = config.policy.build();
        let noise = (cluster.estimate_noise > 0.0)
            .then(|| Lognormal::with_mean(1.0, cluster.estimate_noise));
        Core {
            queue: EventQueue::with_capacity(1024),
            coordinators: (0..cluster.coordinators)
                .map(|_| Coordinator::new(cluster.servers, cluster.base_rate_bytes_per_sec))
                .collect(),
            partitioner: cluster.partitioner.build(cluster.servers),
            net: cluster.network.build(),
            net_mean_secs: cluster.network.latency.mean_secs(),
            net_rng: seeds.stream("engine-net", 0),
            noise_rng: seeds.stream("engine-noise", 0),
            noise,
            traffic: TrafficAccounting::new(),
            op_bytes: IdTable::new(),
            wants_hints: probe.wants_hints(),
            wants_piggyback: probe.wants_piggyback(),
            metadata_bytes: probe.metadata_bytes(),
            oracle: config.policy.is_oracle(),
            horizon: SimTime::from_secs_f64(config.horizon_secs),
            warmup: SimTime::from_secs_f64(config.warmup_secs),
            rct: LatencySummary::new(),
            rct_batches: BatchMeans::new(),
            rct_over_time: config.rct_timeseries_bin_secs.map(TimeSeries::new),
            slowdown: SlowdownTracker::fanout_default(),
            ideal_stats: OnlineStats::new(),
            ops_per_request: OnlineStats::new(),
            completed: 0,
            measured: 0,
            events_processed: 0,
            accepted: 0,
            trace: Tracer(
                config
                    .trace
                    .enabled
                    .then(|| TraceRecorder::new(&config.trace, config.seed)),
            ),
            placement: Placement::default(),
            hint_targets: Vec::new(),
            servers,
            config,
        }
    }

    /// Index of the coordinator owning request `id`.
    fn coord_index(&self, id: RequestId) -> usize {
        (id.0 % self.coordinators.len() as u64) as usize
    }

    /// The coordinator owning request `id`.
    fn coord(&self, id: RequestId) -> &Coordinator {
        &self.coordinators[self.coord_index(id)]
    }

    /// Mutable access to the coordinator owning request `id`.
    fn coord_mut(&mut self, id: RequestId) -> &mut Coordinator {
        let idx = self.coord_index(id);
        &mut self.coordinators[idx]
    }

    /// Releases an outstanding-work charge of `est` seconds that
    /// `request`'s coordinator holds against `server`.
    fn release(&mut self, request: RequestId, server: ServerId, est: f64) {
        self.coord_mut(request)
            .estimate_mut(server)
            .complete_dispatch(est);
    }

    /// True service rate of `server` at `now`, bytes/second.
    fn service_rate(&self, server: ServerId, now: SimTime) -> f64 {
        let c = &self.config.cluster;
        c.base_rate_bytes_per_sec * c.rate_multiplier(server.0, now.as_secs_f64())
    }

    /// True service time of an op of `bytes` at `server` starting at `now`.
    fn true_service(&self, server: ServerId, bytes: u64, now: SimTime) -> SimDuration {
        let overhead = self.config.cluster.per_op_overhead.as_secs_f64();
        SimDuration::from_secs_f64(overhead + bytes as f64 / self.service_rate(server, now))
    }

    /// The coordinator's service-time estimate for an op of `bytes` at
    /// `server`, using the adaptive rate estimate (or oracle truth).
    fn estimate_service(
        &mut self,
        request: RequestId,
        server: ServerId,
        bytes: u64,
        now: SimTime,
    ) -> f64 {
        let c = &self.config.cluster;
        let rate = if self.oracle {
            self.service_rate(server, now)
        } else if self.wants_piggyback {
            self.coord(request).estimate(server).rate()
        } else {
            c.base_rate_bytes_per_sec
        };
        let mut est = c.per_op_overhead.as_secs_f64() + bytes as f64 / rate;
        if let Some(noise) = &self.noise {
            if !self.oracle {
                est *= noise.sample(&mut self.noise_rng).max(0.05);
            }
        }
        est
    }

    /// Expected queueing delay at `server` as of `now`.
    fn estimate_wait(&self, request: RequestId, server: ServerId, now: SimTime) -> f64 {
        // Outstanding-work tracking is free local knowledge available to
        // every policy (and keeps replica selection fair across
        // disciplines). The oracle additionally sees the server's exact
        // current backlog — but still needs the self-charge: without it,
        // simultaneous dispatches herd onto the momentarily least-loaded
        // replica before their load becomes visible.
        let own = self.coord(request).estimate(server).wait_secs(now);
        if self.oracle {
            own.max(self.servers[server.0 as usize].backlog_secs(now))
        } else {
            own
        }
    }

    /// Least-estimated-completion server for `bytes` among `candidates`
    /// that is up and not excluded (the ideal failure detector lets the
    /// coordinator skip servers known down); falls back to
    /// down-but-not-excluded servers when everything viable is down
    /// (retries wait out the outage), and `None` when the exclusions
    /// leave nothing. Replica selection and retry/hedge targeting both
    /// come through here.
    fn pick_target(
        &self,
        candidates: &[ServerId],
        exclude: &[ServerId],
        request: RequestId,
        bytes: u64,
        now: SimTime,
    ) -> Option<ServerId> {
        let coord = self.coord(request);
        let completion = |s: ServerId| {
            self.estimate_wait(request, s, now) + bytes as f64 / coord.estimate(s).rate()
        };
        let least = |up_only: bool| {
            candidates
                .iter()
                .copied()
                .filter(|s| !exclude.contains(s))
                .filter(|s| !up_only || self.servers[s.0 as usize].is_up())
                .min_by(|&a, &b| completion(a).total_cmp(&completion(b)))
        };
        least(true).or_else(|| least(false))
    }

    /// Sends one attempt of an op — the single path for first attempts,
    /// retries and hedges, with or without the stages: charges the wire
    /// (request frame plus the policy's scheduling metadata) and the
    /// coordinator's outstanding-work estimate, records the dispatch, and
    /// delivers by link fate.
    fn dispatch(
        &mut self,
        tag: OpTag,
        sent: Dispatch,
        attempt: u32,
        kind: DispatchKind,
        fate: MessageFate,
        now: SimTime,
    ) {
        let (request, server) = (tag.op.request, sent.server);
        self.traffic.charge(TrafficClass::OpRequest, sent.req_bytes);
        if self.metadata_bytes > 0 {
            self.traffic
                .charge_bytes(TrafficClass::SchedulingMetadata, self.metadata_bytes);
        }
        self.coord_mut(request)
            .estimate_mut(server)
            .charge_dispatch(sent.service_est);
        self.trace.emit(request, || TraceEvent::OpDispatch {
            t_ns: now.as_nanos(),
            request: request.0,
            op: tag.op.index,
            server: server.0,
            attempt,
            kind,
            est_ns: tag.local_estimate.as_nanos(),
            bytes: sent.req_bytes,
        });
        // One `OpArrival` per copy the link lets through, each with its own
        // network delay. The only place an `OpArrival` is scheduled.
        for _ in 0..fate.copies {
            let delay = self.net.delay(sent.req_bytes, &mut self.net_rng) + fate.extra_delay;
            self.queue
                .schedule(now + delay, Event::OpArrival { server, tag });
        }
    }
}

impl<'a> Engine<'a> {
    fn new(config: &'a SimulationConfig) -> Self {
        let seeds = SeedFactory::new(config.seed);
        let mut core = Core::new(config, &seeds);
        Engine {
            recovery: config
                .faults
                .is_active()
                .then(|| Recovery::new(&mut core, &seeds)),
            overload: config
                .overload
                .is_active()
                .then(|| Overload::new(&config.overload)),
            core,
        }
    }

    fn run<R: Borrow<StoreRequest>>(
        mut self,
        mut requests: impl Iterator<Item = R>,
    ) -> Result<RunResult, String> {
        // Prime the arrival stream (`Recovery::new` already scheduled any
        // crash transitions, so a crash at an arrival instant is seen
        // before that arrival).
        let mut pending_next = requests.next();
        if let Some(r) = &pending_next {
            let r: &StoreRequest = r.borrow();
            if r.arrival < self.core.horizon {
                self.core.queue.schedule(r.arrival, Event::NextArrival);
            }
        }
        let mut final_time = SimTime::ZERO;
        while let Some(scheduled) = self.core.queue.pop() {
            let now = scheduled.time;
            final_time = now;
            self.core.events_processed += 1;
            match scheduled.event {
                Event::NextArrival => {
                    let core = &mut self.core;
                    let req = pending_next
                        .take()
                        // das-lint: allow(unwrap-lib): NextArrival is only scheduled after pending_next is set
                        .expect("NextArrival without a pending request");
                    let req: &StoreRequest = req.borrow();
                    debug_assert_eq!(req.arrival, now);
                    pending_next = requests.next();
                    if let Some(next) = &pending_next {
                        let next: &StoreRequest = next.borrow();
                        if next.arrival < core.horizon {
                            if next.arrival < now {
                                return Err(format!(
                                    "request {} arrives before its predecessor",
                                    next.id
                                ));
                            }
                            core.queue.schedule(next.arrival, Event::NextArrival);
                        }
                    }
                    self.handle_request(req, now)?;
                }
                Event::OpArrival { server, tag } => self.handle_op_arrival(server, tag, now),
                Event::ServiceDone {
                    server,
                    op,
                    bytes,
                    service,
                    incarnation,
                } => {
                    let s = &mut self.core.servers[server.0 as usize];
                    if s.incarnation() != incarnation {
                        // The server crashed after this service started;
                        // the work died with it (accounted at crash time).
                        continue;
                    }
                    // `now` is the single authoritative completion instant:
                    // the event fires exactly when service ends.
                    s.complete_service(now, bytes);
                    self.core.trace.emit(op.request, || TraceEvent::ServiceEnd {
                        t_ns: now.as_nanos(),
                        request: op.request.0,
                        op: op.index,
                        server: server.0,
                        service_ns: service.as_nanos(),
                    });
                    if let Some(r) = &mut self.recovery {
                        r.note_service(service);
                    }
                    self.kick(server, now);
                    self.send_response(server, op, bytes, service, now);
                }
                Event::ResponseArrival {
                    op,
                    server,
                    service,
                    report,
                } => {
                    if let Some(r) = &report {
                        self.core.coord_mut(op.request).absorb_report(r, now);
                    }
                    self.handle_op_done(op, server, service, now);
                }
                Event::Hint {
                    server,
                    request,
                    update,
                } => {
                    self.core.trace.emit(request, || TraceEvent::HintArrive {
                        t_ns: now.as_nanos(),
                        request: request.0,
                        server: server.0,
                        eta_ns: update.bottleneck_eta.as_nanos(),
                        remaining_ns: update.remaining_demand.as_nanos(),
                    });
                    self.core.servers[server.0 as usize].hint(request, update, now);
                }
                Event::Recovery(event) => {
                    if let Some(r) = &mut self.recovery {
                        r.handle(&mut self.core, self.overload.as_mut(), event, now);
                    }
                }
            }
        }
        let core = self.core;
        let horizon_secs = core.config.horizon_secs.max(final_time.as_secs_f64());
        let utils: Vec<f64> = core
            .servers
            .iter()
            .map(|s| s.busy_time().as_secs_f64() / horizon_secs)
            .collect();
        let mean_utilization = utils.iter().sum::<f64>() / utils.len().max(1) as f64;
        let max_utilization = utils.iter().copied().fold(0.0, f64::max);
        let fault_free = self.recovery.is_none();
        let mut stats = match self.recovery {
            Some(r) => r.finish(),
            None => RecoveryStats::new(),
        };
        stats.accepted = core.accepted;
        stats.completed = core.completed;
        if let Some(ov) = self.overload {
            ov.finish(&mut stats, fault_free);
        }
        debug_assert_eq!(
            stats.accepted,
            stats.completed + stats.aborted + stats.shed_queue,
            "every accepted request must complete, abort, or shed exactly once"
        );
        Ok(RunResult {
            policy: core.config.policy.name().to_string(),
            completed: core.completed,
            measured: core.measured,
            rct: core.rct,
            mean_rct_ci95: core.rct_batches.ci95_half_width(),
            rct_over_time: core.rct_over_time,
            slowdown: core.slowdown,
            traffic: core.traffic,
            mean_utilization,
            max_utilization,
            per_server_utilization: utils,
            lower_bound_mean_rct: core.ideal_stats.mean(),
            mean_ops_per_request: core.ops_per_request.mean(),
            events_processed: core.events_processed,
            recovery: stats,
            trace: core.trace.0.map(TraceRecorder::finish),
        })
    }

    /// Splits a request into per-server ops, stamps tags, and dispatches.
    fn handle_request(&mut self, req: &StoreRequest, now: SimTime) -> Result<(), String> {
        let mut placement = std::mem::take(&mut self.core.placement);
        let placed = self.place_request(req, now, &mut placement);
        self.core.placement = placement;
        placed
    }

    /// The body of `handle_request`, working in `Core`'s placement buffers.
    fn place_request(
        &mut self,
        req: &StoreRequest,
        now: SimTime,
        placement: &mut Placement,
    ) -> Result<(), String> {
        if req.reads.is_empty() {
            return Err(format!("request {} reads no keys", req.id));
        }
        let core = &mut self.core;
        let cfg = core.config;
        let measured = req.arrival >= core.warmup;
        let Placement {
            replicas,
            per_server,
            etas,
        } = placement;
        // Choose a replica per key (least estimated completion), then
        // coalesce per server.
        per_server.clear();
        // Filled only for the recovery stage: the viable retry/hedge
        // targets of each op.
        let mut candidate_sets = recovery::CandidateSets::new();
        let request_id = RequestId(req.id);
        for read in &req.reads {
            // Writes go to the primary (single-copy write model); reads may
            // pick any replica.
            if read.write {
                replicas.clear();
                replicas.push(core.partitioner.primary(read.key));
            } else {
                core.partitioner
                    .replicas_into(read.key, cfg.cluster.replication, replicas);
            }
            let server = core
                .pick_target(replicas, &[], request_id, read.bytes as u64, now)
                // das-lint: allow(unwrap-lib): placement never yields an empty replica set
                .expect("non-empty replica set");
            if self.recovery.is_some() {
                recovery::narrow_candidates(&mut candidate_sets, server, replicas);
            }
            let written = if read.write { read.bytes as u64 } else { 0 };
            match per_server.iter_mut().find(|(s, _, _, _)| *s == server) {
                Some(entry) => {
                    entry.1 += read.bytes as u64;
                    entry.2 += 1;
                    entry.3 += written;
                }
                None => per_server.push((server, read.bytes as u64, 1, written)),
            }
        }
        let fanout = per_server.len() as u32;
        core.ops_per_request.record(fanout as f64);
        core.trace.emit(request_id, || TraceEvent::RequestArrive {
            t_ns: now.as_nanos(),
            request: req.id,
            keys: req.reads.len() as u32,
            fanout,
        });

        // Per-op estimates.
        etas.clear();
        let mut bottleneck_demand = 0.0f64;
        let mut ideal = 0.0f64;
        for &(server, bytes, _, _) in per_server.iter() {
            let service_est = core.estimate_service(request_id, server, bytes, now);
            let wait_est = core.estimate_wait(request_id, server, now);
            let eta = now + SimDuration::from_secs_f64(core.net_mean_secs + wait_est + service_est);
            etas.push((server, service_est, eta));
            bottleneck_demand = bottleneck_demand.max(service_est);
            // The zero-queueing ideal uses *true* service times and mean
            // network delays in both directions.
            let true_secs = core.true_service(server, bytes, now).as_secs_f64();
            ideal = ideal.max(2.0 * core.net_mean_secs + true_secs);
        }
        let bottleneck_eta = etas.iter().map(|&(_, _, eta)| eta).max().unwrap_or(now);

        if let Some(ov) = &mut self.overload {
            let written: u64 = per_server.iter().map(|&(_, _, _, w)| w).sum();
            if !ov.admit(core, request_id, written, etas, bottleneck_eta, now) {
                // Nothing was dispatched, charged, or tracked yet: the
                // reject costs the system only this estimate pass.
                return Ok(());
            }
        }

        let mut ops = core.coord_mut(request_id).ops_buffer(per_server.len());
        for (index, (&(server, bytes, keys, written), &(_, service_est, eta))) in
            per_server.iter().zip(etas.iter()).enumerate()
        {
            let op_id = OpId {
                request: request_id,
                index: index as u32,
            };
            let tag = OpTag {
                op: op_id,
                request_arrival: req.arrival,
                fanout,
                local_estimate: SimDuration::from_secs_f64(service_est),
                bottleneck_eta,
                bottleneck_demand: SimDuration::from_secs_f64(bottleneck_demand),
            };
            // The response carries only the *read* value bytes; written
            // bytes already travelled in the request.
            core.op_bytes.insert(
                op_id,
                OpBytes {
                    service: bytes,
                    response: bytes - written,
                },
            );
            let sent = Dispatch {
                server,
                service_est,
                req_bytes: wire::MSG_HEADER_BYTES + 16 * keys as u64 + written,
            };
            let fate = link_fate(&cfg.faults.request_faults, self.recovery.as_mut());
            core.dispatch(tag, sent, 0, DispatchKind::First, fate, now);
            if let Some(r) = &mut self.recovery {
                r.track_first_attempt(core, &mut candidate_sets, op_id, sent, written == 0, now);
            }
            ops.push(PendingOp {
                server,
                eta,
                demand_est: SimDuration::from_secs_f64(service_est),
                done: false,
            });
        }
        if measured {
            core.ideal_stats.record(ideal);
        }
        let state = RequestState {
            arrival: req.arrival,
            ops,
            bottleneck_eta,
            bottleneck_demand: SimDuration::from_secs_f64(bottleneck_demand),
            ideal: SimDuration::from_secs_f64(ideal),
            measured,
        };
        if !core.coord_mut(request_id).track(request_id, state) {
            return Err(format!("request id {} is already in flight", req.id));
        }
        core.accepted += 1;
        Ok(())
    }

    /// One delivered copy of an op reaches `server`: turned away by a
    /// stage, or queued.
    fn handle_op_arrival(&mut self, server: ServerId, tag: OpTag, now: SimTime) {
        let core = &mut self.core;
        let op_id = tag.op;
        if let Some(ov) = &self.overload {
            if ov.is_shed(op_id.request) {
                // A sibling delivery already shed this request: the op is
                // dropped at the door.
                core.op_bytes.remove(op_id);
                return;
            }
        }
        if let Some(r) = &mut self.recovery {
            if !core.servers[server.0 as usize].is_up() {
                // Crash-stop server: the op is lost on arrival and the
                // (ideal) failure detector tells the coordinator
                // immediately.
                r.fail_attempt_at(core, self.overload.as_mut(), op_id, server, now);
                return;
            }
        }
        if let Some(ov) = &mut self.overload {
            if ov.queue_full(core, server) {
                // Bounded queue rejected the delivery: shed the whole
                // request (partial answers are useless).
                ov.shed_at_queue(core, self.recovery.as_mut(), op_id, server, now);
                return;
            }
        }
        let op = QueuedOp {
            tag,
            local_estimate: tag.local_estimate,
            enqueued_at: now,
        };
        core.servers[server.0 as usize].enqueue(op, now);
        let s = &core.servers[server.0 as usize];
        core.trace.emit(op_id.request, || TraceEvent::OpEnqueue {
            t_ns: now.as_nanos(),
            request: op_id.request.0,
            op: op_id.index,
            server: server.0,
            queue_len: s.queue_len() as u32,
        });
        // Piggyback a load sample on each sampled enqueue: queue depth and
        // advertised backlog.
        core.trace.emit(op_id.request, || TraceEvent::QueueSample {
            t_ns: now.as_nanos(),
            server: server.0,
            queue_len: s.queue_len() as u32,
            backlog_ns: SimDuration::from_secs_f64(s.backlog_secs(now)).as_nanos(),
        });
        self.kick(server, now);
    }

    /// Starts service on `server` while it has idle workers and queued ops.
    fn kick(&mut self, server: ServerId, now: SimTime) {
        let core = &mut self.core;
        loop {
            let s = &core.servers[server.0 as usize];
            if !s.has_idle_worker() || s.queue_len() == 0 {
                return;
            }
            // Peek the op the scheduler picks, then compute its true
            // service time from the side table.
            let rate = core.service_rate(server, now);
            let overhead = core.config.cluster.per_op_overhead.as_secs_f64();
            let op_bytes = &core.op_bytes;
            let mut served = OpBytes::default();
            let service_of = |op: &QueuedOp| {
                if let Some(bytes) = op_bytes.get(op.tag.op) {
                    served = *bytes;
                }
                SimDuration::from_secs_f64(overhead + served.service as f64 / rate)
            };
            let s = &mut core.servers[server.0 as usize];
            let Some((op, end, decision)) = s.try_start_service(now, service_of) else {
                return;
            };
            let incarnation = s.incarnation();
            let op = op.tag.op;
            core.queue.schedule(
                end,
                Event::ServiceDone {
                    server,
                    op,
                    bytes: served.response,
                    service: end.saturating_since(now),
                    incarnation,
                },
            );
            core.trace.emit(op.request, || TraceEvent::SchedDecision {
                t_ns: now.as_nanos(),
                request: op.request.0,
                op: op.index,
                server: server.0,
                rule: decision.rule.as_str().to_string(),
                position: decision.position,
                queue_len: decision.queue_len,
            });
            if let Some(ov) = &mut self.overload {
                ov.maybe_batch(core, server, op, served.service, end, now);
            }
        }
    }

    /// Ships the value (and a piggybacked report) back to the coordinator.
    fn send_response(
        &mut self,
        server: ServerId,
        op: OpId,
        bytes: u64,
        service: SimDuration,
        now: SimTime,
    ) {
        let core = &mut self.core;
        let resp_bytes = wire::MSG_HEADER_BYTES + bytes;
        core.traffic.charge(TrafficClass::OpResponse, resp_bytes);
        let report = if core.wants_piggyback {
            if !core.oracle {
                core.traffic
                    .charge_bytes(TrafficClass::PiggybackReport, wire::PIGGYBACK_BYTES);
            }
            let s = &core.servers[server.0 as usize];
            Some(ServerReport {
                server,
                backlog_secs: s.backlog_secs(now),
                service_rate: core.service_rate(server, now),
                queue_len: s.queue_len() as u32,
            })
        } else {
            None
        };
        let fate = link_fate(&core.config.faults.response_faults, self.recovery.as_mut());
        for _ in 0..fate.copies {
            let delay = core.net.delay(resp_bytes, &mut core.net_rng) + fate.extra_delay;
            core.queue.schedule(
                now + delay,
                Event::ResponseArrival {
                    op,
                    server,
                    service,
                    report,
                },
            );
        }
    }

    /// Processes an op response at the coordinator: progress tracking,
    /// hints, and (possibly) request completion.
    fn handle_op_done(&mut self, op: OpId, server: ServerId, service: SimDuration, now: SimTime) {
        let core = &mut self.core;
        let fault_free = self.recovery.is_none();
        if let Some(ov) = &mut self.overload {
            if ov.discards_response(core, op, service, fault_free) {
                return;
            }
        }
        let accepted = match &mut self.recovery {
            Some(r) => r.accept_response(core, op, server, service, now),
            None => {
                core.op_bytes.remove(op);
                true
            }
        };
        core.trace.emit(op.request, || TraceEvent::OpResponse {
            t_ns: now.as_nanos(),
            request: op.request.0,
            op: op.index,
            server: server.0,
            accepted,
        });
        if !accepted {
            return;
        }
        let wants_hints = core.wants_hints;
        // Phase 1: update the owning coordinator's request state and
        // extract everything the later phases need, so the coordinator
        // borrow ends before other parts of the core are touched.
        enum Outcome {
            /// To be sent to the servers now in `Core::hint_targets`.
            Hint(HintUpdate),
            NoHint,
            Complete,
        }
        let (pending_op, outcome) = {
            let coord = core.coord_index(op.request);
            let Some(state) = core.coordinators[coord].request_mut(op.request) else {
                debug_assert!(false, "response for untracked request");
                return;
            };
            let pending_op = state.ops[op.index as usize];
            let outcome = match state.complete_op(op.index as usize) {
                Some((new_eta, new_demand)) => {
                    // Only hint when the request's remaining-bottleneck
                    // view actually changed (i.e. the completed op was the
                    // current bottleneck by demand or by eta).
                    let changed =
                        new_eta != state.bottleneck_eta || new_demand != state.bottleneck_demand;
                    if wants_hints && changed {
                        state.bottleneck_eta = new_eta;
                        state.bottleneck_demand = new_demand;
                        core.hint_targets.clear();
                        core.hint_targets.extend(state.pending_servers());
                        Outcome::Hint(HintUpdate {
                            bottleneck_eta: new_eta,
                            remaining_demand: new_demand,
                        })
                    } else {
                        Outcome::NoHint
                    }
                }
                None => Outcome::Complete,
            };
            (pending_op, outcome)
        };
        if fault_free {
            // With the recovery stage on, `accept_response` already
            // released the outstanding charge per attempt.
            core.release(
                op.request,
                pending_op.server,
                pending_op.demand_est.as_secs_f64(),
            );
        }
        match outcome {
            Outcome::NoHint => {}
            Outcome::Hint(update) => {
                for &server in &core.hint_targets {
                    if core.oracle {
                        // Centralized reference: instant, free updates.
                        core.servers[server.0 as usize].hint(op.request, update, now);
                    } else {
                        let hint_bytes = wire::MSG_HEADER_BYTES + wire::HINT_BYTES;
                        core.traffic.charge(TrafficClass::ProgressHint, hint_bytes);
                        // Hints are fire-and-forget; they may be lost.
                        if core.config.cluster.hint_loss > 0.0
                            && das_sim::rng::open_unit(&mut core.net_rng)
                                <= core.config.cluster.hint_loss
                        {
                            continue;
                        }
                        let delay = core.net.delay(hint_bytes, &mut core.net_rng);
                        core.queue.schedule(
                            now + delay,
                            Event::Hint {
                                server,
                                request: op.request,
                                update,
                            },
                        );
                    }
                }
            }
            Outcome::Complete => {
                let state = core
                    .coord_mut(op.request)
                    .finish(op.request)
                    // das-lint: allow(unwrap-lib): finish() follows a successful request_mut on the same id
                    .expect("state present: we just touched it");
                let rct_ns = now.saturating_since(state.arrival);
                let rct = rct_ns.as_secs_f64();
                core.trace.emit(op.request, || TraceEvent::RequestComplete {
                    t_ns: now.as_nanos(),
                    request: op.request.0,
                    rct_ns: rct_ns.as_nanos(),
                });
                core.completed += 1;
                if let Some(ts) = &mut core.rct_over_time {
                    ts.record(state.arrival.as_secs_f64(), rct);
                }
                if state.measured {
                    core.measured += 1;
                    core.rct.record(rct);
                    core.rct_batches.record(rct);
                    core.slowdown
                        .record(state.ops.len(), rct, state.ideal.as_secs_f64());
                }
                if let Some(r) = &mut self.recovery {
                    r.note_completion(op.request, state.measured, rct);
                }
                core.coord_mut(op.request).recycle(state);
            }
        }
    }
}
