//! The discrete-event simulation engine: coordinator, network, and servers
//! wired together.
//!
//! One run simulates a single logical coordinator (the client tier) issuing
//! multi-get requests against `N` servers. Per-key reads are coalesced into
//! one operation per target server, as real multi-get RPCs are. The engine
//! is fully deterministic given the configuration seed.

use std::collections::{BTreeMap, BTreeSet};

use das_metrics::batch::{BatchMeans, BatchingStats};
use das_metrics::quantile::P2Quantile;
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
use das_trace::{DispatchKind, ShedReason, TraceEvent, TraceLog, TraceRecorder};

use crate::config::{BackpressureConfig, OverloadProfile, SimulationConfig};
use crate::coordinator::{Coordinator, PendingOp, RequestState};
use crate::partition::Partitioner;
use crate::server::{InServiceOp, Server};

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
#[derive(Debug, Clone, Copy)]
struct OpBytes {
    /// Bytes driving the service time (reads + writes).
    service: u64,
    /// Bytes returned in the response (reads only).
    response: u64,
}

#[derive(Debug)]
enum Event {
    NextArrival,
    OpArrival {
        server: ServerId,
        op: QueuedOp,
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
    /// Crash-stop of one server (fault schedules only).
    ServerCrash {
        server: ServerId,
    },
    /// Recovery (empty) of one crashed server.
    ServerRecover {
        server: ServerId,
    },
    /// Per-attempt deadline expiry at the coordinator.
    OpTimeout {
        op: OpId,
        attempt: u32,
    },
    /// Hedge timer: speculatively duplicate a still-pending read.
    HedgeFire {
        op: OpId,
    },
    /// Backoff expired: re-dispatch a failed op.
    RetryDispatch {
        op: OpId,
    },
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

/// Engine-side recovery state for one in-flight op (fault mode only).
#[derive(Debug)]
struct OpRuntime {
    /// Servers that can serve every key of this op (retry/hedge targets).
    candidates: Vec<ServerId>,
    /// Key count and written bytes (wire accounting for re-dispatches).
    keys: u32,
    written: u64,
    attempts: Vec<Attempt>,
    /// Sequential (non-hedge) dispatches so far, bounded by
    /// `retry.max_attempts`.
    seq_attempts: u32,
    /// A hedge was scheduled or fired (at most one per op).
    hedged: bool,
    /// A `RetryDispatch` is already queued.
    retry_pending: bool,
}

impl OpRuntime {
    fn open_attempts(&self) -> usize {
        self.attempts.iter().filter(|a| a.open).count()
    }
}

/// Everything the engine tracks only when the fault layer is active. Kept
/// behind an `Option` so fault-free runs take none of these code paths and
/// stay bit-identical to builds without fault injection.
#[derive(Debug)]
struct FaultRuntime {
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

/// The fate of one message on `link`: rolled from the fault stream when
/// the fault layer is on, [`MessageFate::CLEAN`] (and no draw) when it is
/// off.
fn link_fate(link: &LinkFaults, fault: Option<&mut FaultRuntime>) -> MessageFate {
    match fault {
        Some(fr) => link.decide(&mut fr.rng),
        None => MessageFate::CLEAN,
    }
}

/// Everything the engine tracks only when any overload-control knob is
/// active (admission, bounded queues, retry budget, or batching). Kept
/// behind an `Option` so defaults-off runs take none of these code paths
/// and stay bit-identical to builds without overload control.
#[derive(Debug)]
struct OverloadRuntime {
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
    /// Fault-free mode only: service-seconds behind accepted responses.
    /// (Fault mode already splits goodput/wasted in `FaultRuntime`.)
    goodput_service_secs: f64,
    /// Fault-free mode only: service-seconds of responses discarded
    /// because their request had been shed.
    wasted_service_secs: f64,
}

impl OverloadRuntime {
    fn new(profile: &OverloadProfile) -> Self {
        OverloadRuntime {
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

    /// Refills from simulated elapsed time and takes one token if a whole
    /// one is available.
    fn try_take_token(&mut self, cfg: &BackpressureConfig, now: SimTime) -> bool {
        let elapsed = now.saturating_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * cfg.tokens_per_sec).min(cfg.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn is_shed(&self, request: RequestId) -> bool {
        self.shed_requests.contains(&request)
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
pub fn run_simulation<I>(config: &SimulationConfig, requests: I) -> Result<RunResult, String>
where
    I: IntoIterator<Item = StoreRequest>,
{
    config.validate().map_err(|e| e.to_string())?;
    Engine::new(config)?.run(requests.into_iter())
}

struct Engine<'a> {
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
    op_bytes: BTreeMap<OpId, OpBytes>,
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
    pending_next: Option<StoreRequest>,
    /// Requests admitted (dispatched) this run.
    accepted: u64,
    /// Present iff any fault knob is active; `None` keeps every hot path
    /// identical to a fault-free build.
    fault: Option<FaultRuntime>,
    /// Present iff any overload-control knob is active; `None` keeps
    /// defaults-off runs bit-identical (admission, queue bounds, the
    /// retry budget, and batching all cost a single `Option` check).
    overload: Option<OverloadRuntime>,
    /// Present iff tracing is enabled; `None` keeps untraced runs at a
    /// single `Option` check per would-be event. The recorder never draws
    /// randomness and never schedules events, so a traced run's simulation
    /// results are bit-identical to an untraced run's.
    trace: Option<TraceRecorder>,
}

impl<'a> Engine<'a> {
    fn new(config: &'a SimulationConfig) -> Result<Self, String> {
        let seeds = SeedFactory::new(config.seed);
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
        Ok(Engine {
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
            op_bytes: BTreeMap::new(),
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
            pending_next: None,
            accepted: 0,
            fault: config.faults.is_active().then(|| FaultRuntime {
                rng: seeds.stream("engine-fault", 0),
                ops: BTreeMap::new(),
                exposed: BTreeSet::new(),
                latency: P2Quantile::new(if config.faults.hedge.enabled() {
                    config.faults.hedge.quantile
                } else {
                    0.5
                }),
                stats: RecoveryStats::new(),
                total_service_secs: 0.0,
                goodput_service_secs: 0.0,
            }),
            overload: config
                .overload
                .is_active()
                .then(|| OverloadRuntime::new(&config.overload)),
            trace: config
                .trace
                .enabled
                .then(|| TraceRecorder::new(&config.trace, config.seed)),
            servers,
            config,
        })
    }

    /// True when tracing is on *and* `request` falls in the sample.
    fn traced(&self, request: RequestId) -> bool {
        self.trace.as_ref().is_some_and(|t| t.is_sampled(request.0))
    }

    /// Records `ev` if tracing is on. Callers gate on [`Engine::traced`]
    /// first so untraced runs pay only an `Option` check and sampled-out
    /// requests don't even construct the event.
    fn trace_event(&mut self, ev: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.record(ev);
        }
    }

    /// The coordinator owning request `id`.
    fn coord(&self, id: RequestId) -> &Coordinator {
        &self.coordinators[(id.0 % self.coordinators.len() as u64) as usize]
    }

    /// Mutable access to the coordinator owning request `id`.
    fn coord_mut(&mut self, id: RequestId) -> &mut Coordinator {
        let idx = (id.0 % self.coordinators.len() as u64) as usize;
        &mut self.coordinators[idx]
    }

    /// True service time of an op of `bytes` at `server` starting at `now`.
    fn true_service(&self, server: ServerId, bytes: u64, now: SimTime) -> SimDuration {
        let c = &self.config.cluster;
        let rate = c.base_rate_bytes_per_sec * c.rate_multiplier(server.0, now.as_secs_f64());
        SimDuration::from_secs_f64(c.per_op_overhead.as_secs_f64() + bytes as f64 / rate)
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
            c.base_rate_bytes_per_sec * c.rate_multiplier(server.0, now.as_secs_f64())
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

    fn run(
        mut self,
        mut requests: impl Iterator<Item = StoreRequest>,
    ) -> Result<RunResult, String> {
        // Schedule crash/recovery transitions first so a crash at an
        // arrival instant is seen before that arrival.
        if self.fault.is_some() {
            for (t_secs, server, goes_down) in self.config.faults.crashes.transitions() {
                let server = ServerId(server);
                let ev = if goes_down {
                    Event::ServerCrash { server }
                } else {
                    Event::ServerRecover { server }
                };
                self.queue.schedule(SimTime::from_secs_f64(t_secs), ev);
            }
        }
        // Prime the arrival stream.
        self.pending_next = requests.next();
        if let Some(r) = &self.pending_next {
            if r.arrival < self.horizon {
                self.queue.schedule(r.arrival, Event::NextArrival);
            }
        }
        let mut final_time = SimTime::ZERO;
        while let Some(scheduled) = self.queue.pop() {
            let now = scheduled.time;
            final_time = now;
            self.events_processed += 1;
            match scheduled.event {
                Event::NextArrival => {
                    let req = self
                        .pending_next
                        .take()
                        // das-lint: allow(unwrap-lib): NextArrival is only scheduled after pending_next is set
                        .expect("NextArrival without a pending request");
                    debug_assert_eq!(req.arrival, now);
                    self.pending_next = requests.next();
                    if let Some(next) = &self.pending_next {
                        if next.arrival < self.horizon {
                            if next.arrival < now {
                                return Err(format!(
                                    "request {} arrives before its predecessor",
                                    next.id
                                ));
                            }
                            self.queue.schedule(next.arrival, Event::NextArrival);
                        }
                    }
                    self.handle_request(req, now);
                }
                Event::OpArrival { server, op } => {
                    let op_id = op.tag.op;
                    if self
                        .overload
                        .as_ref()
                        .is_some_and(|ov| ov.is_shed(op_id.request))
                    {
                        // A sibling delivery already shed this request:
                        // the op is dropped at the door.
                        self.op_bytes.remove(&op_id);
                    } else if self.fault.is_some() && !self.servers[server.0 as usize].is_up() {
                        // Crash-stop server: the op is lost on arrival and
                        // the (ideal) failure detector tells the
                        // coordinator immediately.
                        self.fail_attempt_at(op_id, server, now);
                    } else if self.queue_full(server) {
                        // Bounded queue rejected the delivery: shed the
                        // whole request (partial answers are useless).
                        self.shed_at_queue(op_id, server, now);
                    } else {
                        self.servers[server.0 as usize].enqueue(op, now);
                        if self.traced(op_id.request) {
                            let s = &self.servers[server.0 as usize];
                            let queue_len = s.queue_len() as u32;
                            let backlog_ns =
                                SimDuration::from_secs_f64(s.backlog_secs(now)).as_nanos();
                            self.trace_event(TraceEvent::OpEnqueue {
                                t_ns: now.as_nanos(),
                                request: op_id.request.0,
                                op: op_id.index,
                                server: server.0,
                                queue_len,
                            });
                            // Piggyback a load sample on each sampled
                            // enqueue: queue depth and advertised backlog.
                            self.trace_event(TraceEvent::QueueSample {
                                t_ns: now.as_nanos(),
                                server: server.0,
                                queue_len,
                                backlog_ns,
                            });
                        }
                        self.kick(server, now);
                    }
                }
                Event::ServiceDone {
                    server,
                    op,
                    bytes,
                    service,
                    incarnation,
                } => {
                    if self.servers[server.0 as usize].incarnation() != incarnation {
                        // The server crashed after this service started;
                        // the work died with it (accounted at crash time).
                        continue;
                    }
                    // `now` is the single authoritative completion instant:
                    // the event fires exactly when service ends, so the
                    // duplicate `end` timestamp the event used to carry is
                    // gone.
                    self.servers[server.0 as usize].complete_service(now, bytes);
                    if self.traced(op.request) {
                        self.trace_event(TraceEvent::ServiceEnd {
                            t_ns: now.as_nanos(),
                            request: op.request.0,
                            op: op.index,
                            server: server.0,
                            service_ns: service.as_nanos(),
                        });
                    }
                    if let Some(fr) = &mut self.fault {
                        fr.total_service_secs += service.as_secs_f64();
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
                        self.coord_mut(op.request).absorb_report(r, now);
                    }
                    self.handle_op_done(op, server, service, now);
                }
                Event::Hint {
                    server,
                    request,
                    update,
                } => {
                    if self.traced(request) {
                        self.trace_event(TraceEvent::HintArrive {
                            t_ns: now.as_nanos(),
                            request: request.0,
                            server: server.0,
                            eta_ns: update.bottleneck_eta.as_nanos(),
                            remaining_ns: update.remaining_demand.as_nanos(),
                        });
                    }
                    self.servers[server.0 as usize].hint(request, update, now);
                }
                Event::ServerCrash { server } => {
                    if self.trace.is_some() {
                        self.trace_event(TraceEvent::ServerCrash {
                            t_ns: now.as_nanos(),
                            server: server.0,
                        });
                    }
                    self.handle_server_crash(server, now);
                }
                Event::ServerRecover { server } => {
                    if self.trace.is_some() {
                        self.trace_event(TraceEvent::ServerRecover {
                            t_ns: now.as_nanos(),
                            server: server.0,
                        });
                    }
                    self.servers[server.0 as usize].recover();
                }
                Event::OpTimeout { op, attempt } => {
                    self.handle_op_timeout(op, attempt, now);
                }
                Event::HedgeFire { op } => {
                    self.handle_hedge_fire(op, now);
                }
                Event::RetryDispatch { op } => {
                    self.handle_retry_dispatch(op, now);
                }
            }
        }
        let horizon_secs = self.config.horizon_secs.max(final_time.as_secs_f64());
        let utils: Vec<f64> = self
            .servers
            .iter()
            .map(|s| s.busy_time().as_secs_f64() / horizon_secs)
            .collect();
        let mean_utilization = utils.iter().sum::<f64>() / utils.len().max(1) as f64;
        let max_utilization = utils.iter().copied().fold(0.0, f64::max);
        let per_server_utilization = utils;
        let fault_mode = self.fault.is_some();
        let overload = self.overload.take();
        let shed_queue = overload.as_ref().map_or(0, |o| o.shed_queue);
        let mut recovery = match self.fault {
            Some(fr) => {
                let mut s = fr.stats;
                s.accepted = self.accepted;
                s.completed = self.completed;
                s.goodput_service_secs = fr.goodput_service_secs;
                s.wasted_service_secs = (fr.total_service_secs - fr.goodput_service_secs).max(0.0);
                debug_assert_eq!(
                    s.accepted,
                    s.completed + s.aborted + shed_queue,
                    "every accepted request must complete, abort, or shed exactly once"
                );
                debug_assert!(fr.ops.is_empty(), "op runtimes leaked past the run");
                s
            }
            None => {
                debug_assert_eq!(
                    self.accepted,
                    self.completed + shed_queue,
                    "every accepted request must complete or shed exactly once"
                );
                RecoveryStats {
                    accepted: self.accepted,
                    completed: self.completed,
                    ..RecoveryStats::new()
                }
            }
        };
        if let Some(ov) = overload {
            recovery.shed_admission = ov.shed_admission;
            recovery.shed_queue = ov.shed_queue;
            recovery.retries_denied = ov.retries_denied;
            recovery.hedges_denied = ov.hedges_denied;
            recovery.batching = ov.batching;
            if !fault_mode {
                recovery.goodput_service_secs = ov.goodput_service_secs;
                recovery.wasted_service_secs = ov.wasted_service_secs;
            }
        }
        Ok(RunResult {
            policy: self.config.policy.name().to_string(),
            completed: self.completed,
            measured: self.measured,
            rct: self.rct,
            mean_rct_ci95: self.rct_batches.ci95_half_width(),
            rct_over_time: self.rct_over_time,
            slowdown: self.slowdown,
            traffic: self.traffic,
            mean_utilization,
            max_utilization,
            per_server_utilization,
            lower_bound_mean_rct: self.ideal_stats.mean(),
            mean_ops_per_request: self.ops_per_request.mean(),
            events_processed: self.events_processed,
            recovery,
            trace: self.trace.map(TraceRecorder::finish),
        })
    }

    /// Splits a request into per-server ops, stamps tags, and dispatches.
    fn handle_request(&mut self, req: StoreRequest, now: SimTime) {
        let c = &self.config.cluster;
        let measured = req.arrival >= self.warmup;
        // Choose a replica per key (least estimated completion), then
        // coalesce per server.
        // (server, total bytes, key count, bytes written)
        let mut per_server: Vec<(ServerId, u64, u32, u64)> = Vec::new();
        // Fault mode only: per target server, the servers that hold *every*
        // key coalesced onto it — the viable retry/hedge targets.
        let mut candidate_sets: Vec<(ServerId, Vec<ServerId>)> = Vec::new();
        let request_id = RequestId(req.id);
        for read in &req.reads {
            // Writes go to the primary (single-copy write model); reads may
            // pick any replica.
            let replicas = if read.write {
                vec![self.partitioner.primary(read.key)]
            } else {
                self.partitioner.replicas(read.key, c.replication)
            };
            // In fault mode the (ideal) failure detector lets the
            // coordinator skip servers known down; if every replica is
            // down, dispatch anyway and let retries wait out the outage.
            let mut up_pool = Vec::new();
            let pool: &[ServerId] = if self.fault.is_some() {
                up_pool.extend(
                    replicas
                        .iter()
                        .copied()
                        .filter(|s| self.servers[s.0 as usize].is_up()),
                );
                if up_pool.is_empty() {
                    &replicas
                } else {
                    &up_pool
                }
            } else {
                &replicas
            };
            let server = if pool.len() == 1 {
                pool[0]
            } else {
                let coord = self.coord(request_id);
                *pool
                    .iter()
                    .min_by(|&&a, &&b| {
                        let ea = self.estimate_wait(request_id, a, now)
                            + read.bytes as f64 / coord.estimate(a).rate();
                        let eb = self.estimate_wait(request_id, b, now)
                            + read.bytes as f64 / coord.estimate(b).rate();
                        ea.total_cmp(&eb)
                    })
                    // das-lint: allow(unwrap-lib): placement never yields an empty replica set
                    .expect("non-empty replica set")
            };
            if self.fault.is_some() {
                match candidate_sets.iter_mut().find(|(s, _)| *s == server) {
                    Some((_, set)) => set.retain(|s| replicas.contains(s)),
                    None => candidate_sets.push((server, replicas.clone())),
                }
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
        self.ops_per_request.record(fanout as f64);
        if self.traced(request_id) {
            self.trace_event(TraceEvent::RequestArrive {
                t_ns: now.as_nanos(),
                request: req.id,
                keys: req.reads.len() as u32,
                fanout,
            });
        }

        // Per-op estimates.
        let mut etas = Vec::with_capacity(per_server.len());
        let mut bottleneck_demand = 0.0f64;
        let mut ideal = 0.0f64;
        for &(server, bytes, _, _) in &per_server {
            let service_est = self.estimate_service(request_id, server, bytes, now);
            let wait_est = self.estimate_wait(request_id, server, now);
            let eta = now + SimDuration::from_secs_f64(self.net_mean_secs + wait_est + service_est);
            etas.push((server, service_est, eta));
            bottleneck_demand = bottleneck_demand.max(service_est);
            // The zero-queueing ideal uses *true* service times and mean
            // network delays in both directions.
            let true_secs = self.true_service(server, bytes, now).as_secs_f64();
            ideal = ideal.max(2.0 * self.net_mean_secs + true_secs);
        }
        let bottleneck_eta = etas.iter().map(|&(_, _, eta)| eta).max().unwrap_or(now);

        // Deadline-aware admission: shed the request up front when even
        // the optimistic completion estimate cannot meet its deadline.
        // Written bytes are inflated by the configured penalty, so under
        // pressure large writes are preferentially rejected — they are
        // the cheapest requests to lose (their response is a small ack
        // and they occupy the most service time per key).
        if self.overload.is_some() && self.config.overload.admission.enabled() {
            let adm = &self.config.overload.admission;
            let written_total: u64 = per_server.iter().map(|&(_, _, _, w)| w).sum();
            let penalty_secs = (adm.write_penalty - 1.0) * written_total as f64
                / self.config.cluster.base_rate_bytes_per_sec;
            let projected = bottleneck_eta + SimDuration::from_secs_f64(penalty_secs);
            let deadline_at = now + SimDuration::from_secs_f64(adm.deadline_secs);
            if projected > deadline_at {
                let bottleneck = etas
                    .iter()
                    .max_by(|a, b| a.2.cmp(&b.2))
                    .map_or(0, |&(s, _, _)| s.0);
                if let Some(ov) = &mut self.overload {
                    ov.shed_admission += 1;
                }
                if self.traced(request_id) {
                    self.trace_event(TraceEvent::Shed {
                        t_ns: now.as_nanos(),
                        request: req.id,
                        reason: ShedReason::Admission,
                        server: bottleneck,
                    });
                }
                // Nothing was dispatched, charged, or tracked yet: the
                // reject costs the system only this estimate pass.
                return;
            }
            if self.traced(request_id) {
                self.trace_event(TraceEvent::Admitted {
                    t_ns: now.as_nanos(),
                    request: req.id,
                    slack_ns: deadline_at.saturating_since(projected).as_nanos(),
                });
            }
        }

        let mut ops = Vec::with_capacity(per_server.len());
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
            // Wire accounting: request frame + per-key framing + policy
            // metadata.
            let req_bytes = wire::MSG_HEADER_BYTES + 16 * keys as u64 + written;
            self.traffic.charge(TrafficClass::OpRequest, req_bytes);
            if self.metadata_bytes > 0 {
                self.traffic
                    .charge_bytes(TrafficClass::SchedulingMetadata, self.metadata_bytes);
            }
            self.coord_mut(request_id)
                .estimate_mut(server)
                .charge_dispatch(service_est);
            // The response carries only the *read* value bytes; written
            // bytes already travelled in the request.
            self.op_bytes.insert(
                op_id,
                OpBytes {
                    service: bytes,
                    response: bytes - written,
                },
            );
            if self.traced(request_id) {
                self.trace_event(TraceEvent::OpDispatch {
                    t_ns: now.as_nanos(),
                    request: req.id,
                    op: index as u32,
                    server: server.0,
                    attempt: 0,
                    kind: DispatchKind::First,
                    est_ns: SimDuration::from_secs_f64(service_est).as_nanos(),
                    bytes: req_bytes,
                });
            }
            let fate = link_fate(&self.config.faults.request_faults, self.fault.as_mut());
            self.deliver_op(tag, server, req_bytes, fate, now);
            if self.fault.is_some() {
                let candidates = candidate_sets
                    .iter()
                    .find(|(s, _)| *s == server)
                    .map(|(_, set)| set.clone())
                    .filter(|set| !set.is_empty())
                    .unwrap_or_else(|| vec![server]);
                self.track_first_attempt(
                    op_id,
                    server,
                    candidates,
                    keys,
                    written,
                    service_est,
                    now,
                );
            }
            ops.push(PendingOp {
                server,
                eta,
                demand_est: SimDuration::from_secs_f64(service_est),
                done: false,
            });
        }
        if measured {
            self.ideal_stats.record(ideal);
        }
        self.coord_mut(request_id).track(
            request_id,
            RequestState {
                arrival: req.arrival,
                key_count: req.reads.len() as u32,
                ops,
                bottleneck_eta,
                bottleneck_demand: SimDuration::from_secs_f64(bottleneck_demand),
                ideal: SimDuration::from_secs_f64(ideal),
                measured,
            },
        );
        self.accepted += 1;
    }

    /// Sends one dispatch of an op to `server`: one `OpArrival` per copy
    /// the link lets through, each with its own network delay. The single
    /// delivery path for first attempts, retries and hedges, with or
    /// without the fault layer.
    fn deliver_op(
        &mut self,
        tag: OpTag,
        server: ServerId,
        req_bytes: u64,
        fate: MessageFate,
        now: SimTime,
    ) {
        for _ in 0..fate.copies {
            let delay = self.net.delay(req_bytes, &mut self.net_rng) + fate.extra_delay;
            let op = QueuedOp {
                tag,
                local_estimate: tag.local_estimate,
                // Stamped on arrival at the server (see OpArrival).
                enqueued_at: now + delay,
            };
            self.queue
                .schedule(now + delay, Event::OpArrival { server, op });
        }
    }

    /// Fault-mode bookkeeping for the initial dispatch of one op (already
    /// delivered by `handle_request`): attempt tracking, deadline, and (for
    /// hedgeable reads) the hedge timer.
    #[allow(clippy::too_many_arguments)]
    fn track_first_attempt(
        &mut self,
        op_id: OpId,
        server: ServerId,
        candidates: Vec<ServerId>,
        keys: u32,
        written: u64,
        service_est: f64,
        now: SimTime,
    ) {
        // das-lint: allow(unwrap-lib): fault state is only taken within one handler at a time
        let mut fr = self.fault.take().expect("fault mode");
        let mut rt = OpRuntime {
            candidates,
            keys,
            written,
            attempts: vec![Attempt {
                server,
                estimate: service_est,
                dispatched: now,
                open: true,
            }],
            seq_attempts: 1,
            hedged: false,
            retry_pending: false,
        };
        let retry = &self.config.faults.retry;
        if retry.enabled() {
            self.queue.schedule(
                now + SimDuration::from_secs_f64(retry.deadline_secs),
                Event::OpTimeout {
                    op: op_id,
                    attempt: 0,
                },
            );
        }
        let hedge = &self.config.faults.hedge;
        if hedge.enabled()
            && written == 0
            && rt.candidates.len() >= 2
            && fr.latency.count() as u64 >= hedge.min_samples
        {
            if let Some(q) = fr.latency.estimate() {
                let delay = q.max(hedge.min_delay_secs);
                self.queue.schedule(
                    now + SimDuration::from_secs_f64(delay),
                    Event::HedgeFire { op: op_id },
                );
                rt.hedged = true;
            }
        }
        fr.ops.insert(op_id, rt);
        self.fault = Some(fr);
    }

    /// Re-dispatch (retry) or speculative duplicate (hedge) of one op to
    /// `server`: recomputes estimates, applies the wire and outstanding
    /// charges, refreshes the coordinator's per-op view, and delivers by
    /// link fate.
    fn dispatch_attempt(
        &mut self,
        fr: &mut FaultRuntime,
        op_id: OpId,
        server: ServerId,
        is_hedge: bool,
        now: SimTime,
    ) {
        let request = op_id.request;
        let bytes = self.op_bytes.get(&op_id).map_or(0, |b| b.service);
        let (keys, written) = {
            // das-lint: allow(unwrap-lib): op runtime is created at dispatch and outlives the attempt
            let rt = fr.ops.get(&op_id).expect("dispatch for live op");
            (rt.keys, rt.written)
        };
        let service_est = self.estimate_service(request, server, bytes, now);
        let wait_est = self.estimate_wait(request, server, now);
        let eta = now + SimDuration::from_secs_f64(self.net_mean_secs + wait_est + service_est);
        let req_bytes = wire::MSG_HEADER_BYTES + 16 * keys as u64 + written;
        self.traffic.charge(TrafficClass::OpRequest, req_bytes);
        if self.metadata_bytes > 0 {
            self.traffic
                .charge_bytes(TrafficClass::SchedulingMetadata, self.metadata_bytes);
        }
        self.coord_mut(request)
            .estimate_mut(server)
            .charge_dispatch(service_est);
        // Refresh the coordinator's per-op record so later hints reflect
        // the new placement and estimate.
        let (arrival, fanout, bneck_eta, bneck_demand) = {
            let state = self
                .coord_mut(request)
                .request_mut(request)
                // das-lint: allow(unwrap-lib): request state lives until its last op completes
                .expect("attempt dispatched for a live request");
            let p = &mut state.ops[op_id.index as usize];
            p.server = server;
            p.eta = eta;
            p.demand_est = SimDuration::from_secs_f64(service_est);
            (
                state.arrival,
                state.ops.len() as u32,
                state.bottleneck_eta,
                state.bottleneck_demand,
            )
        };
        let tag = OpTag {
            op: op_id,
            request_arrival: arrival,
            fanout,
            local_estimate: SimDuration::from_secs_f64(service_est),
            bottleneck_eta: bneck_eta,
            bottleneck_demand: bneck_demand,
        };
        let attempt_index = {
            // das-lint: allow(unwrap-lib): op runtime is created at dispatch and outlives the attempt
            let rt = fr.ops.get_mut(&op_id).expect("dispatch for live op");
            rt.attempts.push(Attempt {
                server,
                estimate: service_est,
                dispatched: now,
                open: true,
            });
            if !is_hedge {
                rt.seq_attempts += 1;
            }
            (rt.attempts.len() - 1) as u32
        };
        if self.traced(request) {
            self.trace_event(TraceEvent::OpDispatch {
                t_ns: now.as_nanos(),
                request: request.0,
                op: op_id.index,
                server: server.0,
                attempt: attempt_index,
                kind: if is_hedge {
                    DispatchKind::Hedge
                } else {
                    DispatchKind::Retry
                },
                est_ns: SimDuration::from_secs_f64(service_est).as_nanos(),
                bytes: req_bytes,
            });
        }
        let fate = link_fate(&self.config.faults.request_faults, Some(fr));
        self.deliver_op(tag, server, req_bytes, fate, now);
        let retry = &self.config.faults.retry;
        if retry.enabled() {
            self.queue.schedule(
                now + SimDuration::from_secs_f64(retry.deadline_secs),
                Event::OpTimeout {
                    op: op_id,
                    attempt: attempt_index,
                },
            );
        }
    }

    /// Starts service on `server` while it has idle workers and queued ops.
    fn kick(&mut self, server: ServerId, now: SimTime) {
        loop {
            let s = &mut self.servers[server.0 as usize];
            if !s.has_idle_worker() || s.queue_len() == 0 {
                return;
            }
            // Peek the op the scheduler picks, then compute its true
            // service time from the side table.
            let op_bytes = &self.op_bytes;
            let cluster = &self.config.cluster;
            let mut served = OpBytes {
                service: 0,
                response: 0,
            };
            let service_of = |op: &QueuedOp| {
                if let Some(bytes) = op_bytes.get(&op.tag.op) {
                    served = *bytes;
                }
                let rate = cluster.base_rate_bytes_per_sec
                    * cluster.rate_multiplier(server.0, now.as_secs_f64());
                SimDuration::from_secs_f64(
                    cluster.per_op_overhead.as_secs_f64() + served.service as f64 / rate,
                )
            };
            let Some((op, end, decision)) = s.try_start_service(now, service_of) else {
                return;
            };
            let incarnation = s.incarnation();
            self.queue.schedule(
                end,
                Event::ServiceDone {
                    server,
                    op: op.tag.op,
                    bytes: served.response,
                    service: end.saturating_since(now),
                    incarnation,
                },
            );
            if self.traced(op.tag.op.request) {
                self.trace_event(TraceEvent::SchedDecision {
                    t_ns: now.as_nanos(),
                    request: op.tag.op.request.0,
                    op: op.tag.op.index,
                    server: server.0,
                    rule: decision.rule.as_str().to_string(),
                    position: decision.position,
                    queue_len: decision.queue_len,
                });
            }
            if self.overload.is_some() {
                self.maybe_batch(server, op.tag.op, served.service, end, incarnation, now);
            }
        }
    }

    /// Value-size-aware coalescing: when the op that just started service
    /// is tiny, drain up to `max_ops - 1` further queued ops into the
    /// same worker visit, in scheduler order. Tiny followers pay only a
    /// fraction of the per-op overhead (the visit's setup cost is
    /// amortized); the first non-tiny follower still joins the visit at
    /// full cost but terminates the pull. Follower service slices are
    /// strictly increasing, so completion events stay totally ordered
    /// and the run deterministic.
    fn maybe_batch(
        &mut self,
        server: ServerId,
        leader: OpId,
        leader_bytes: u64,
        leader_end: SimTime,
        incarnation: u64,
        now: SimTime,
    ) {
        let cfg = self.config;
        let batch = &cfg.overload.batch;
        if !batch.enabled() || leader_bytes > batch.tiny_op_bytes {
            return;
        }
        let rate = cfg.cluster.base_rate_bytes_per_sec
            * cfg.cluster.rate_multiplier(server.0, now.as_secs_f64());
        let full_overhead = cfg.cluster.per_op_overhead.as_secs_f64();
        let mut prev_end = leader_end;
        let mut overhead_saved = 0.0f64;
        let mut members: Vec<OpId> = vec![leader];
        while (members.len() as u32) < batch.max_ops {
            let Some(fop) = self.servers[server.0 as usize].dequeue_batch_follower(now) else {
                break;
            };
            let fid = fop.tag.op;
            let fbytes = self.op_bytes.get(&fid).copied().unwrap_or(OpBytes {
                service: 0,
                response: 0,
            });
            let tiny = fbytes.service <= batch.tiny_op_bytes;
            let overhead = if tiny {
                batch.overhead_fraction * full_overhead
            } else {
                full_overhead
            };
            let mut slice =
                SimDuration::from_secs_f64(overhead + fbytes.service as f64 / rate);
            if prev_end + slice <= prev_end {
                // Degenerate zero-length slice (zero overhead and zero
                // bytes): keep completion order strict anyway.
                slice = SimDuration::from_secs_f64(1e-9);
            }
            let fend = prev_end + slice;
            self.servers[server.0 as usize].attach_batch_follower(fid, prev_end, fend);
            self.queue.schedule(
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
            if let Some(ov) = &mut self.overload {
                ov.batching.record(size, overhead_saved);
            }
            if self.trace.is_some() {
                for id in members {
                    if self.traced(id.request) {
                        self.trace_event(TraceEvent::Batched {
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
    }

    /// True when the bounded-queue knob is armed and `server`'s queue is
    /// at capacity.
    fn queue_full(&self, server: ServerId) -> bool {
        self.overload.is_some()
            && self.config.overload.admission.enabled()
            && self.servers[server.0 as usize].queue_len() as u32
                >= self.config.overload.admission.queue_capacity
    }

    /// A full queue rejected one delivery of `op`: the whole request is
    /// shed (a partially answered multi-get is useless). Mirrors the
    /// `abort_request` teardown — the coordinator state leaves the table,
    /// open attempt charges are released — but the loss is accounted as
    /// `shed_queue`, and the request id is remembered so late sibling
    /// deliveries and responses are dropped quietly.
    fn shed_at_queue(&mut self, op: OpId, server: ServerId, now: SimTime) {
        let request = op.request;
        let Some(state) = self.coord_mut(request).finish(request) else {
            // The request already completed or aborted (e.g. a duplicated
            // late delivery hit the full queue): nothing left to shed.
            self.op_bytes.remove(&op);
            return;
        };
        if let Some(ov) = &mut self.overload {
            ov.shed_queue += 1;
            ov.shed_requests.insert(request);
        }
        if self.traced(request) {
            self.trace_event(TraceEvent::Shed {
                t_ns: now.as_nanos(),
                request: request.0,
                reason: ShedReason::QueueFull,
                server: server.0,
            });
        }
        if let Some(mut fr) = self.fault.take() {
            fr.exposed.remove(&request);
            for index in 0..state.ops.len() {
                let op_id = OpId {
                    request,
                    index: index as u32,
                };
                if let Some(rt) = fr.ops.remove(&op_id) {
                    for a in rt.attempts.iter().filter(|a| a.open) {
                        self.coord_mut(request)
                            .estimate_mut(a.server)
                            .complete_dispatch(a.estimate);
                    }
                }
            }
            self.fault = Some(fr);
        } else {
            for p in state.ops.iter().filter(|p| !p.done) {
                self.coord_mut(request)
                    .estimate_mut(p.server)
                    .complete_dispatch(p.demand_est.as_secs_f64());
            }
        }
        self.op_bytes.remove(&op);
    }

    /// True when the backpressure budget (if armed) grants one token for
    /// a retry or hedge dispatch at `now`.
    fn take_retry_token(&mut self, now: SimTime) -> bool {
        let cfg = self.config;
        if !cfg.overload.backpressure.enabled() {
            return true;
        }
        match &mut self.overload {
            Some(ov) => ov.try_take_token(&cfg.overload.backpressure, now),
            None => true,
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
        let resp_bytes = wire::MSG_HEADER_BYTES + bytes;
        self.traffic.charge(TrafficClass::OpResponse, resp_bytes);
        let report = if self.wants_piggyback {
            if !self.oracle {
                self.traffic
                    .charge_bytes(TrafficClass::PiggybackReport, wire::PIGGYBACK_BYTES);
            }
            let s = &self.servers[server.0 as usize];
            let c = &self.config.cluster;
            Some(ServerReport {
                server,
                backlog_secs: s.backlog_secs(now),
                service_rate: c.base_rate_bytes_per_sec
                    * c.rate_multiplier(server.0, now.as_secs_f64()),
                queue_len: s.queue_len() as u32,
            })
        } else {
            None
        };
        let fate = link_fate(&self.config.faults.response_faults, self.fault.as_mut());
        for _ in 0..fate.copies {
            let delay = self.net.delay(resp_bytes, &mut self.net_rng) + fate.extra_delay;
            self.queue.schedule(
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
        if self
            .overload
            .as_ref()
            .is_some_and(|ov| ov.is_shed(op.request))
        {
            // Response for a shed request: real service, discarded. In
            // fault mode the waste is already implied by goodput never
            // crediting this response; fault-free mode counts it here.
            self.op_bytes.remove(&op);
            if self.fault.is_none() {
                if let Some(ov) = &mut self.overload {
                    ov.wasted_service_secs += service.as_secs_f64();
                }
            }
            return;
        }
        let accepted = match self.fault.take() {
            Some(mut fr) => {
                let accepted = self.accept_response(&mut fr, op, server, service, now);
                self.fault = Some(fr);
                accepted
            }
            None => {
                self.op_bytes.remove(&op);
                if let Some(ov) = &mut self.overload {
                    ov.goodput_service_secs += service.as_secs_f64();
                }
                true
            }
        };
        if self.traced(op.request) {
            self.trace_event(TraceEvent::OpResponse {
                t_ns: now.as_nanos(),
                request: op.request.0,
                op: op.index,
                server: server.0,
                accepted,
            });
        }
        if !accepted {
            return;
        }
        let wants_hints = self.wants_hints;
        // Phase 1: update the owning coordinator's request state and
        // extract everything the later phases need, so the coordinator
        // borrow ends before other parts of `self` are touched.
        enum Outcome {
            Hint(HintUpdate, Vec<ServerId>),
            NoHint,
            Complete,
        }
        let (op_server, op_demand_est, outcome) = {
            let Some(state) = self.coord_mut(op.request).request_mut(op.request) else {
                debug_assert!(false, "response for untracked request");
                return;
            };
            let pending_op = state.ops[op.index as usize];
            let remaining = state.complete_op(op.index as usize);
            let outcome = match remaining {
                Some((new_eta, new_demand)) => {
                    // Only hint when the request's remaining-bottleneck
                    // view actually changed (i.e. the completed op was the
                    // current bottleneck by demand or by eta).
                    let changed =
                        new_eta != state.bottleneck_eta || new_demand != state.bottleneck_demand;
                    if wants_hints && changed {
                        state.bottleneck_eta = new_eta;
                        state.bottleneck_demand = new_demand;
                        Outcome::Hint(
                            HintUpdate {
                                bottleneck_eta: new_eta,
                                remaining_demand: new_demand,
                            },
                            state.pending_servers().collect(),
                        )
                    } else {
                        Outcome::NoHint
                    }
                }
                None => Outcome::Complete,
            };
            (
                pending_op.server,
                pending_op.demand_est.as_secs_f64(),
                outcome,
            )
        };
        if self.fault.is_none() {
            // In fault mode the outstanding charge was already released
            // per attempt by `accept_response`.
            self.coord_mut(op.request)
                .estimate_mut(op_server)
                .complete_dispatch(op_demand_est);
        }
        match outcome {
            Outcome::NoHint => {}
            Outcome::Hint(update, targets) => {
                for server in targets {
                    if self.oracle {
                        // Centralized reference: instant, free updates.
                        self.servers[server.0 as usize].hint(op.request, update, now);
                    } else {
                        let hint_bytes = wire::MSG_HEADER_BYTES + wire::HINT_BYTES;
                        self.traffic.charge(TrafficClass::ProgressHint, hint_bytes);
                        // Hints are fire-and-forget; they may be lost.
                        if self.config.cluster.hint_loss > 0.0
                            && das_sim::rng::open_unit(&mut self.net_rng)
                                <= self.config.cluster.hint_loss
                        {
                            continue;
                        }
                        let delay = self.net.delay(hint_bytes, &mut self.net_rng);
                        self.queue.schedule(
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
                let state = self
                    .coord_mut(op.request)
                    .finish(op.request)
                    // das-lint: allow(unwrap-lib): finish() follows a successful request_mut on the same id
                    .expect("state present: we just touched it");
                let rct = now.saturating_since(state.arrival).as_secs_f64();
                if self.traced(op.request) {
                    self.trace_event(TraceEvent::RequestComplete {
                        t_ns: now.as_nanos(),
                        request: op.request.0,
                        rct_ns: now.saturating_since(state.arrival).as_nanos(),
                    });
                }
                self.completed += 1;
                if let Some(ts) = &mut self.rct_over_time {
                    ts.record(state.arrival.as_secs_f64(), rct);
                }
                if state.measured {
                    self.measured += 1;
                    self.rct.record(rct);
                    self.rct_batches.record(rct);
                    self.slowdown
                        .record(state.ops.len(), rct, state.ideal.as_secs_f64());
                }
                if let Some(fr) = &mut self.fault {
                    let exposed = fr.exposed.remove(&op.request);
                    if state.measured {
                        if exposed {
                            fr.stats.rct_fault_exposed.record(rct);
                        } else {
                            fr.stats.rct_clean.record(rct);
                        }
                    }
                }
            }
        }
    }

    /// Fault-mode response filter: accepts the response iff its op is
    /// still live and it answers an open attempt at `server`. Closes the
    /// winning attempt (plus any losing hedge attempts), releases the
    /// outstanding charges, and feeds the hedge latency estimator.
    fn accept_response(
        &mut self,
        fr: &mut FaultRuntime,
        op: OpId,
        server: ServerId,
        service: SimDuration,
        now: SimTime,
    ) -> bool {
        let Some(rt) = fr.ops.get_mut(&op) else {
            // The op already completed or its request aborted: a duplicate
            // delivery or a straggler past its closure. Real service,
            // wasted.
            fr.stats.duplicate_responses += 1;
            return false;
        };
        let Some(a) = rt
            .attempts
            .iter_mut()
            .find(|a| a.open && a.server == server)
        else {
            // The attempt was closed (timeout or crash) before this
            // response arrived, or a duplicated message answered twice.
            fr.stats.duplicate_responses += 1;
            fr.exposed.insert(op.request);
            return false;
        };
        a.open = false;
        let est = a.estimate;
        let latency = now.saturating_since(a.dispatched).as_secs_f64();
        // Close the losing attempts (hedges, straggling retries): any
        // response they still produce is discarded above.
        let losers: Vec<(ServerId, f64)> = rt
            .attempts
            .iter_mut()
            .filter(|a| a.open)
            .map(|a| {
                a.open = false;
                (a.server, a.estimate)
            })
            .collect();
        fr.ops.remove(&op);
        fr.latency.record(latency);
        fr.goodput_service_secs += service.as_secs_f64();
        self.coord_mut(op.request)
            .estimate_mut(server)
            .complete_dispatch(est);
        for (s, e) in losers {
            self.coord_mut(op.request)
                .estimate_mut(s)
                .complete_dispatch(e);
        }
        true
    }

    /// An op arrived at a crash-stopped server: the (ideal) failure
    /// detector closes the attempt immediately and the retry machinery
    /// takes over.
    fn fail_attempt_at(&mut self, op: OpId, server: ServerId, now: SimTime) {
        // das-lint: allow(unwrap-lib): fault state is only taken within one handler at a time
        let mut fr = self.fault.take().expect("fault mode");
        if let Some(rt) = fr.ops.get_mut(&op) {
            if let Some(a) = rt
                .attempts
                .iter_mut()
                .find(|a| a.open && a.server == server)
            {
                a.open = false;
                let est = a.estimate;
                fr.stats.crash_drops += 1;
                fr.exposed.insert(op.request);
                if self.traced(op.request) {
                    self.trace_event(TraceEvent::CrashDrop {
                        t_ns: now.as_nanos(),
                        request: op.request.0,
                        op: op.index,
                        server: server.0,
                    });
                }
                self.coord_mut(op.request)
                    .estimate_mut(server)
                    .complete_dispatch(est);
                self.resolve_op_failure(&mut fr, op, now);
            }
        }
        self.fault = Some(fr);
    }

    /// Crash-stops `server`: drained and cut-short ops are handed back to
    /// the coordinator, which instantly closes the affected attempts
    /// (ideal failure detection) and retries or aborts.
    fn handle_server_crash(&mut self, server: ServerId, now: SimTime) {
        let (queued, in_service) = self.servers[server.0 as usize].crash(now);
        // das-lint: allow(unwrap-lib): fault state is only taken within one handler at a time
        let mut fr = self.fault.take().expect("fault mode");
        for e in &in_service {
            // Partial service performed before the crash was spent for
            // nothing.
            fr.total_service_secs += now.saturating_since(e.started).as_secs_f64();
        }
        let mut affected: Vec<OpId> = Vec::new();
        let dropped = queued
            .iter()
            .map(|q| q.tag.op)
            .chain(in_service.iter().map(|e: &InServiceOp| e.op));
        for op in dropped {
            let Some(rt) = fr.ops.get_mut(&op) else {
                continue;
            };
            // Duplicated deliveries can drop two copies of one attempt;
            // only the first closure counts.
            if let Some(a) = rt
                .attempts
                .iter_mut()
                .find(|a| a.open && a.server == server)
            {
                a.open = false;
                let est = a.estimate;
                fr.stats.crash_drops += 1;
                fr.exposed.insert(op.request);
                if self.traced(op.request) {
                    self.trace_event(TraceEvent::CrashDrop {
                        t_ns: now.as_nanos(),
                        request: op.request.0,
                        op: op.index,
                        server: server.0,
                    });
                }
                self.coord_mut(op.request)
                    .estimate_mut(server)
                    .complete_dispatch(est);
                affected.push(op);
            }
        }
        for op in affected {
            self.resolve_op_failure(&mut fr, op, now);
        }
        self.fault = Some(fr);
    }

    /// Per-attempt deadline expired: close the attempt if still open and
    /// retry or abort.
    fn handle_op_timeout(&mut self, op: OpId, attempt: u32, now: SimTime) {
        // das-lint: allow(unwrap-lib): fault state is only taken within one handler at a time
        let mut fr = self.fault.take().expect("fault mode");
        if let Some(rt) = fr.ops.get_mut(&op) {
            let a = &mut rt.attempts[attempt as usize];
            if a.open {
                a.open = false;
                let (server, est) = (a.server, a.estimate);
                fr.stats.timeouts += 1;
                fr.exposed.insert(op.request);
                if self.traced(op.request) {
                    self.trace_event(TraceEvent::OpTimeout {
                        t_ns: now.as_nanos(),
                        request: op.request.0,
                        op: op.index,
                        attempt,
                    });
                }
                self.coord_mut(op.request)
                    .estimate_mut(server)
                    .complete_dispatch(est);
                self.resolve_op_failure(&mut fr, op, now);
            }
        }
        self.fault = Some(fr);
    }

    /// Called when an attempt just closed unsuccessfully: schedules a
    /// backed-off retry if budget remains, else aborts the whole request.
    fn resolve_op_failure(&mut self, fr: &mut FaultRuntime, op: OpId, now: SimTime) {
        let retry = &self.config.faults.retry;
        let Some(rt) = fr.ops.get_mut(&op) else {
            return;
        };
        if rt.open_attempts() > 0 || rt.retry_pending {
            return;
        }
        if retry.enabled() && rt.seq_attempts < retry.max_attempts {
            if !self.take_retry_token(now) {
                // The backpressure budget is dry: retrying now would feed
                // the overload that caused the failure. Fail fast instead
                // of retry-storming past saturation.
                if let Some(ov) = &mut self.overload {
                    ov.retries_denied += 1;
                }
                self.abort_request(fr, op.request, now);
                return;
            }
            let mut backoff = retry.backoff_secs(rt.seq_attempts + 1);
            if retry.jitter > 0.0 {
                backoff *= 1.0 + retry.jitter * das_sim::rng::open_unit(&mut fr.rng);
            }
            rt.retry_pending = true;
            self.queue.schedule(
                now + SimDuration::from_secs_f64(backoff),
                Event::RetryDispatch { op },
            );
        } else {
            self.abort_request(fr, op.request, now);
        }
    }

    /// Abandons a request after an op exhausted its attempts: the request
    /// leaves the coordinator's table, every sibling op's open attempts
    /// are closed (their charges released), and their runtimes removed so
    /// late responses and pending timers become no-ops.
    fn abort_request(&mut self, fr: &mut FaultRuntime, request: RequestId, now: SimTime) {
        let Some(state) = self.coord_mut(request).finish(request) else {
            return;
        };
        fr.stats.aborted += 1;
        fr.exposed.remove(&request);
        if self.traced(request) {
            self.trace_event(TraceEvent::RequestAbort {
                t_ns: now.as_nanos(),
                request: request.0,
            });
        }
        for index in 0..state.ops.len() {
            let op_id = OpId {
                request,
                index: index as u32,
            };
            if let Some(rt) = fr.ops.remove(&op_id) {
                for a in rt.attempts.iter().filter(|a| a.open) {
                    self.coord_mut(request)
                        .estimate_mut(a.server)
                        .complete_dispatch(a.estimate);
                }
            }
        }
    }

    /// Backoff expired: re-dispatch the op to the best live candidate.
    fn handle_retry_dispatch(&mut self, op: OpId, now: SimTime) {
        // das-lint: allow(unwrap-lib): fault state is only taken within one handler at a time
        let mut fr = self.fault.take().expect("fault mode");
        let target = match fr.ops.get_mut(&op) {
            Some(rt) => {
                rt.retry_pending = false;
                debug_assert_eq!(rt.open_attempts(), 0);
                let bytes = self.op_bytes.get(&op).map_or(0, |b| b.service);
                self.pick_target(&rt.candidates, &[], op.request, bytes, now)
            }
            // The request completed or aborted while the backoff ran.
            None => None,
        };
        if let Some(server) = target {
            fr.stats.retries += 1;
            fr.exposed.insert(op.request);
            self.dispatch_attempt(&mut fr, op, server, false, now);
        }
        self.fault = Some(fr);
    }

    /// Hedge timer fired: if the op is still waiting on an open attempt,
    /// speculatively duplicate it to its best other replica.
    fn handle_hedge_fire(&mut self, op: OpId, now: SimTime) {
        // das-lint: allow(unwrap-lib): fault state is only taken within one handler at a time
        let mut fr = self.fault.take().expect("fault mode");
        let target = match fr.ops.get(&op) {
            Some(rt) if rt.open_attempts() > 0 => {
                let exclude: Vec<ServerId> = rt
                    .attempts
                    .iter()
                    .filter(|a| a.open)
                    .map(|a| a.server)
                    .collect();
                let bytes = self.op_bytes.get(&op).map_or(0, |b| b.service);
                self.pick_target(&rt.candidates, &exclude, op.request, bytes, now)
            }
            // Already answered, or mid-retry (no open attempt to hedge).
            _ => None,
        };
        if let Some(server) = target {
            if self.take_retry_token(now) {
                fr.stats.hedges += 1;
                fr.exposed.insert(op.request);
                self.dispatch_attempt(&mut fr, op, server, true, now);
            } else {
                // Budget dry: suppress the speculation quietly — the
                // primary attempt keeps running and can still win.
                if let Some(ov) = &mut self.overload {
                    ov.hedges_denied += 1;
                }
            }
        }
        self.fault = Some(fr);
    }

    /// Least-estimated-completion candidate that is up and not excluded;
    /// falls back to down-but-not-excluded servers when everything viable
    /// is down (the retry will wait out the outage), and `None` when the
    /// exclusions leave nothing.
    fn pick_target(
        &self,
        candidates: &[ServerId],
        exclude: &[ServerId],
        request: RequestId,
        bytes: u64,
        now: SimTime,
    ) -> Option<ServerId> {
        let viable = |s: &ServerId| !exclude.contains(s);
        let up: Vec<ServerId> = candidates
            .iter()
            .copied()
            .filter(viable)
            .filter(|s| self.servers[s.0 as usize].is_up())
            .collect();
        let pool = if up.is_empty() {
            candidates.iter().copied().filter(viable).collect()
        } else {
            up
        };
        pool.into_iter().min_by(|&a, &b| {
            let coord = self.coord(request);
            let ea = self.estimate_wait(request, a, now) + bytes as f64 / coord.estimate(a).rate();
            let eb = self.estimate_wait(request, b, now) + bytes as f64 / coord.estimate(b).rate();
            ea.total_cmp(&eb)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_sched::policy::PolicyKind;

    fn requests(n: u64, gap_us: u64, keys_per_req: usize) -> Vec<StoreRequest> {
        (0..n)
            .map(|i| StoreRequest {
                id: i,
                arrival: SimTime::from_micros(i * gap_us),
                reads: (0..keys_per_req)
                    .map(|k| KeyRead::read(i * 37 + k as u64 * 101, 4096))
                    .collect(),
            })
            .collect()
    }

    fn quick_config(policy: PolicyKind) -> SimulationConfig {
        let mut cfg = SimulationConfig::new(policy, 1.0);
        cfg.cluster.servers = 8;
        cfg.warmup_secs = 0.0;
        cfg
    }

    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        // The whole point of the trace layer: enabling it must leave every
        // simulation result bit-identical, for every policy.
        for policy in PolicyKind::standard_set() {
            let plain = quick_config(policy);
            let mut traced = plain.clone();
            traced.trace = das_trace::TraceConfig::enabled();
            let a = run_simulation(&plain, requests(300, 80, 4)).unwrap();
            let b = run_simulation(&traced, requests(300, 80, 4)).unwrap();
            assert!(a.trace.is_none());
            assert!(b.trace.is_some(), "{}", b.policy);
            assert_eq!(
                a.mean_rct().to_bits(),
                b.mean_rct().to_bits(),
                "{}",
                b.policy
            );
            assert_eq!(a.p99_rct().to_bits(), b.p99_rct().to_bits(), "{}", b.policy);
            assert_eq!(a.events_processed, b.events_processed, "{}", b.policy);
            assert_eq!(a.traffic, b.traffic, "{}", b.policy);
        }
    }

    #[test]
    fn trace_covers_every_request_at_full_sampling() {
        let mut cfg = quick_config(PolicyKind::das());
        cfg.trace = das_trace::TraceConfig::enabled();
        let n = 200;
        let result = run_simulation(&cfg, requests(n, 80, 4)).unwrap();
        let log = result.trace.unwrap();
        assert_eq!(log.dropped, 0);
        let arrivals = log
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RequestArrive { .. }))
            .count() as u64;
        let completes = log
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RequestComplete { .. }))
            .count() as u64;
        assert_eq!(arrivals, n);
        assert_eq!(completes, result.completed);
        // Every completed request reconstructs a full critical path whose
        // segments telescope exactly to its RCT.
        let paths = das_trace::critical_paths(&log);
        assert_eq!(paths.len() as u64, result.completed);
        for p in &paths {
            assert_eq!(p.sum_ns(), p.rct_ns, "request {}", p.request);
        }
    }

    #[test]
    fn trace_sampling_subsets_the_request_space() {
        let mut cfg = quick_config(PolicyKind::Fcfs);
        cfg.trace = das_trace::TraceConfig::enabled();
        cfg.trace.sample = 0.25;
        let result = run_simulation(&cfg, requests(400, 80, 2)).unwrap();
        let log = result.trace.unwrap();
        let arrivals = log
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RequestArrive { .. }))
            .count();
        assert!(arrivals > 0 && arrivals < 400, "arrivals = {arrivals}");
        // Sampling is per request: each traced request still has a full
        // event chain.
        for p in das_trace::critical_paths(&log) {
            assert_eq!(p.sum_ns(), p.rct_ns);
        }
    }

    #[test]
    fn all_requests_complete() {
        let cfg = quick_config(PolicyKind::Fcfs);
        let result = run_simulation(&cfg, requests(500, 100, 4)).unwrap();
        assert_eq!(result.completed, 500);
        assert_eq!(result.measured, 500);
        assert_eq!(result.rct.count(), 500);
        assert!(result.mean_rct() > 0.0);
        assert!(result.events_processed > 500);
    }

    #[test]
    fn rct_at_least_lower_bound() {
        for policy in PolicyKind::standard_set() {
            let cfg = quick_config(policy);
            let result = run_simulation(&cfg, requests(300, 50, 6)).unwrap();
            assert!(
                result.mean_rct() >= result.lower_bound_mean_rct * 0.999,
                "{}: mean {} < bound {}",
                result.policy,
                result.mean_rct(),
                result.lower_bound_mean_rct
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = quick_config(PolicyKind::das());
        let a = run_simulation(&cfg, requests(200, 80, 4)).unwrap();
        let b = run_simulation(&cfg, requests(200, 80, 4)).unwrap();
        assert_eq!(a.mean_rct(), b.mean_rct());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn warmup_excludes_early_requests() {
        let mut cfg = quick_config(PolicyKind::Fcfs);
        cfg.warmup_secs = 0.01;
        let result = run_simulation(&cfg, requests(300, 100, 2)).unwrap();
        assert_eq!(result.completed, 300);
        assert!(result.measured < 300);
        assert!(result.measured > 0);
    }

    #[test]
    fn traffic_charged_per_policy() {
        let fcfs = run_simulation(&quick_config(PolicyKind::Fcfs), requests(100, 100, 4)).unwrap();
        assert_eq!(fcfs.traffic.overhead_bytes(), 0);
        let das = run_simulation(&quick_config(PolicyKind::das()), requests(100, 100, 4)).unwrap();
        assert!(das.traffic.overhead_bytes() > 0);
        assert!(das.traffic.bytes(TrafficClass::SchedulingMetadata) > 0);
        // Oracle coordination is free by definition.
        let oracle =
            run_simulation(&quick_config(PolicyKind::oracle()), requests(100, 100, 4)).unwrap();
        assert_eq!(oracle.traffic.overhead_bytes(), 0);
    }

    #[test]
    fn single_key_requests_have_one_op() {
        let cfg = quick_config(PolicyKind::Fcfs);
        let result = run_simulation(&cfg, requests(50, 100, 1)).unwrap();
        assert_eq!(result.mean_ops_per_request, 1.0);
    }

    #[test]
    fn coalescing_bounds_ops_by_cluster_size() {
        let mut cfg = quick_config(PolicyKind::Fcfs);
        cfg.cluster.servers = 4;
        // 64 keys over 4 servers: at most 4 ops per request.
        let result = run_simulation(&cfg, requests(50, 1000, 64)).unwrap();
        assert!(result.mean_ops_per_request <= 4.0);
        assert!(result.mean_ops_per_request > 1.0);
    }

    #[test]
    fn timeseries_when_requested() {
        let mut cfg = quick_config(PolicyKind::Fcfs);
        cfg.rct_timeseries_bin_secs = Some(0.01);
        let result = run_simulation(&cfg, requests(200, 100, 2)).unwrap();
        let ts = result.rct_over_time.unwrap();
        assert!(!ts.bins().is_empty());
        assert_eq!(ts.bins().iter().map(|b| b.count).sum::<u64>(), 200);
    }

    #[test]
    fn replication_spreads_reads() {
        let mut cfg = quick_config(PolicyKind::das());
        cfg.cluster.replication = 3;
        let result = run_simulation(&cfg, requests(200, 50, 4)).unwrap();
        assert_eq!(result.completed, 200);
    }

    #[test]
    fn empty_workload_is_fine() {
        let cfg = quick_config(PolicyKind::Fcfs);
        let result = run_simulation(&cfg, Vec::new()).unwrap();
        assert_eq!(result.completed, 0);
        assert_eq!(result.mean_rct(), 0.0);
    }

    #[test]
    fn out_of_order_arrivals_rejected() {
        let cfg = quick_config(PolicyKind::Fcfs);
        let reqs = vec![
            StoreRequest {
                id: 0,
                arrival: SimTime::from_millis(10),
                reads: vec![KeyRead::read(1, 100)],
            },
            StoreRequest {
                id: 1,
                arrival: SimTime::from_millis(5),
                reads: vec![KeyRead::read(2, 100)],
            },
        ];
        assert!(run_simulation(&cfg, reqs).is_err());
    }

    #[test]
    fn requests_at_horizon_are_dropped() {
        let mut cfg = quick_config(PolicyKind::Fcfs);
        cfg.horizon_secs = 0.001;
        // Arrivals at 0us and 2000us; only the first is inside the horizon.
        let result = run_simulation(&cfg, requests(2, 2000, 1)).unwrap();
        assert_eq!(result.completed, 1);
    }

    #[test]
    fn multiple_coordinators_still_complete_everything() {
        let mut cfg = quick_config(PolicyKind::das());
        cfg.cluster.coordinators = 8;
        let result = run_simulation(&cfg, requests(400, 60, 5)).unwrap();
        assert_eq!(result.completed, 400);
        assert!(result.mean_rct() >= result.lower_bound_mean_rct * 0.999);
        // And stays deterministic.
        let again = run_simulation(&cfg, requests(400, 60, 5)).unwrap();
        assert_eq!(result.mean_rct().to_bits(), again.mean_rct().to_bits());
    }

    #[test]
    fn fragmented_coordinators_change_estimates_not_correctness() {
        let mut one = quick_config(PolicyKind::das());
        one.cluster.coordinators = 1;
        let mut many = one.clone();
        many.cluster.coordinators = 16;
        let a = run_simulation(&one, requests(500, 50, 5)).unwrap();
        let b = run_simulation(&many, requests(500, 50, 5)).unwrap();
        assert_eq!(a.completed, b.completed);
        // Different information quality -> different schedules.
        assert_ne!(a.mean_rct().to_bits(), b.mean_rct().to_bits());
    }

    #[test]
    fn hint_loss_drops_hints_but_not_requests() {
        let mut cfg = quick_config(PolicyKind::das());
        cfg.cluster.hint_loss = 1.0; // every hint lost
        let result = run_simulation(&cfg, requests(300, 60, 5)).unwrap();
        assert_eq!(result.completed, 300);
        // Hints are still *charged* (they were sent), just never delivered;
        // correctness must not depend on them.
        assert!(result.traffic.messages(TrafficClass::ProgressHint) > 0);
    }

    #[test]
    fn invalid_hint_loss_rejected() {
        let mut cfg = quick_config(PolicyKind::das());
        cfg.cluster.hint_loss = 1.5;
        assert!(run_simulation(&cfg, requests(1, 100, 1)).is_err());
        cfg.cluster.hint_loss = 0.5;
        cfg.cluster.coordinators = 0;
        assert!(run_simulation(&cfg, requests(1, 100, 1)).is_err());
    }

    #[test]
    fn utilization_positive_under_load() {
        let cfg = quick_config(PolicyKind::Fcfs);
        let result = run_simulation(&cfg, requests(2000, 20, 4)).unwrap();
        assert!(result.mean_utilization > 0.0);
        assert!(result.max_utilization >= result.mean_utilization);
        assert!(result.max_utilization <= 1.5, "{}", result.max_utilization);
    }

    #[test]
    fn fault_free_recovery_stats_are_benign() {
        let cfg = quick_config(PolicyKind::Fcfs);
        let result = run_simulation(&cfg, requests(100, 100, 4)).unwrap();
        let r = &result.recovery;
        assert_eq!(r.accepted, 100);
        assert_eq!(r.completed, 100);
        assert_eq!(r.aborted, 0);
        assert!(!r.any_faults_seen());
        assert_eq!(r.availability(), 1.0);
    }

    #[test]
    fn generous_deadline_without_faults_changes_nothing() {
        // Retry machinery armed but never triggered: timeout events all
        // fire after their ops completed, so the measured RCT must be
        // bit-identical to the fault-free run.
        let plain = quick_config(PolicyKind::das());
        let mut armed = plain.clone();
        armed.faults.retry.deadline_secs = 10.0;
        let a = run_simulation(&plain, requests(300, 60, 4)).unwrap();
        let b = run_simulation(&armed, requests(300, 60, 4)).unwrap();
        assert_eq!(a.mean_rct().to_bits(), b.mean_rct().to_bits());
        assert_eq!(a.completed, b.completed);
        assert_eq!(b.recovery.timeouts, 0);
        assert_eq!(b.recovery.retries, 0);
        assert_eq!(b.recovery.aborted, 0);
    }

    #[test]
    fn crash_with_retry_recovers() {
        use das_sim::fault::CrashWindow;
        let mut cfg = quick_config(PolicyKind::das());
        cfg.cluster.replication = 2;
        // Requests span [0, 0.1s); both crash windows sit inside that span.
        cfg.faults.crashes.crashes.push(CrashWindow {
            server: 0,
            down_secs: 0.02,
            up_secs: 0.05,
        });
        cfg.faults.crashes.crashes.push(CrashWindow {
            server: 3,
            down_secs: 0.04,
            up_secs: 0.08,
        });
        cfg.faults.retry.deadline_secs = 0.05;
        cfg.faults.retry.max_attempts = 4;
        let result = run_simulation(&cfg, requests(2000, 50, 4)).unwrap();
        let r = &result.recovery;
        assert_eq!(r.accepted, 2000);
        assert_eq!(r.accepted, r.completed + r.aborted, "exactly-once violated");
        assert!(r.crash_drops > 0, "crashes should drop work");
        assert!(r.retries > 0, "drops should trigger retries");
        assert!(
            r.availability() > 0.9,
            "availability = {}",
            r.availability()
        );
        // Completed-and-measured requests split between the clean and
        // fault-exposed RCT summaries.
        assert_eq!(
            r.rct_clean.count() + r.rct_fault_exposed.count(),
            result.measured
        );
        assert!(r.rct_fault_exposed.count() > 0);
    }

    #[test]
    fn crash_without_retry_aborts_stranded_requests() {
        use das_sim::fault::CrashWindow;
        let mut cfg = quick_config(PolicyKind::Fcfs);
        cfg.faults.crashes.crashes.push(CrashWindow {
            server: 1,
            down_secs: 0.05,
            up_secs: f64::INFINITY,
        });
        let result = run_simulation(&cfg, requests(800, 100, 4)).unwrap();
        let r = &result.recovery;
        assert_eq!(r.accepted, r.completed + r.aborted);
        assert!(r.aborted > 0, "no retries: dropped ops must abort");
        assert!(r.availability() < 1.0);
        assert!(r.wasted_fraction() >= 0.0);
    }

    #[test]
    fn loss_with_retries_still_completes_everything() {
        let mut cfg = quick_config(PolicyKind::das());
        cfg.faults.request_faults.loss = 0.05;
        cfg.faults.response_faults.loss = 0.05;
        cfg.faults.retry.deadline_secs = 0.05;
        cfg.faults.retry.max_attempts = 10;
        cfg.faults.retry.jitter = 0.3;
        let result = run_simulation(&cfg, requests(600, 100, 4)).unwrap();
        let r = &result.recovery;
        assert_eq!(r.accepted, r.completed + r.aborted);
        assert!(r.timeouts > 0, "lost messages must time out");
        assert!(r.retries > 0);
        // With a 10-attempt budget virtually everything survives 5% loss.
        assert!(
            r.availability() > 0.99,
            "availability = {}",
            r.availability()
        );
    }

    #[test]
    fn duplication_is_detected_and_discarded() {
        let mut cfg = quick_config(PolicyKind::Fcfs);
        cfg.faults.response_faults.duplication = 1.0;
        let result = run_simulation(&cfg, requests(200, 200, 3)).unwrap();
        let r = &result.recovery;
        assert_eq!(r.completed, 200, "duplicates must not double-complete");
        assert!(r.duplicate_responses > 0);
        assert_eq!(r.aborted, 0);
    }

    #[test]
    fn hedging_fires_on_slow_reads() {
        let mut cfg = quick_config(PolicyKind::das());
        cfg.cluster.replication = 3;
        // One gray server: up, but 50x slower — the case hedging exists for.
        cfg.cluster.perf_events.push(crate::config::PerfEvent {
            server: 2,
            start_secs: 0.0,
            end_secs: f64::INFINITY,
            multiplier: 0.02,
        });
        cfg.faults.hedge.quantile = 0.9;
        cfg.faults.hedge.min_samples = 20;
        cfg.faults.hedge.min_delay_secs = 1e-4;
        let result = run_simulation(&cfg, requests(1500, 60, 2)).unwrap();
        let r = &result.recovery;
        assert_eq!(r.accepted, r.completed + r.aborted);
        assert_eq!(r.aborted, 0, "hedging alone never aborts");
        assert!(r.hedges > 0, "gray server should trip the hedge timer");
        assert!(r.wasted_service_secs >= 0.0);
    }

    #[test]
    fn overload_armed_but_inert_changes_nothing() {
        // A generous deadline and roomy queues with light load: the
        // overload layer is active but never fires, so every simulation
        // output must stay bit-identical to the defaults-off run.
        for policy in PolicyKind::standard_set() {
            let plain = quick_config(policy);
            let mut armed = plain.clone();
            armed.overload.admission.deadline_secs = 10.0;
            armed.overload.backpressure.tokens_per_sec = 100.0;
            let a = run_simulation(&plain, requests(300, 80, 4)).unwrap();
            let b = run_simulation(&armed, requests(300, 80, 4)).unwrap();
            assert_eq!(
                a.mean_rct().to_bits(),
                b.mean_rct().to_bits(),
                "{}",
                b.policy
            );
            assert_eq!(a.p99_rct().to_bits(), b.p99_rct().to_bits(), "{}", b.policy);
            assert_eq!(a.completed, b.completed, "{}", b.policy);
            assert_eq!(a.events_processed, b.events_processed, "{}", b.policy);
            assert_eq!(a.traffic, b.traffic, "{}", b.policy);
            assert!(!b.recovery.any_overload_seen(), "{}", b.policy);
        }
    }

    #[test]
    fn admission_sheds_when_deadline_tight() {
        // Offered load well past saturation with a deadline the growing
        // backlog cannot meet: admission must start rejecting, and every
        // admitted request must still complete (no retry machinery here).
        let mut cfg = quick_config(PolicyKind::das());
        cfg.overload.admission.deadline_secs = 0.003;
        let result = run_simulation(&cfg, requests(3000, 3, 4)).unwrap();
        let r = &result.recovery;
        assert!(r.shed_admission > 0, "tight deadline must shed");
        assert_eq!(r.accepted, r.completed, "admitted requests all complete");
        assert_eq!(r.offered(), r.accepted + r.shed_admission);
        assert!(r.shed_fraction() > 0.0 && r.shed_fraction() < 1.0);
        assert!(r.completed > 0, "admission must not starve the system");
    }

    #[test]
    fn write_penalty_prefers_shedding_writes() {
        let mixed: Vec<StoreRequest> = (0..100)
            .map(|i| {
                let mut reads = vec![KeyRead::read(i * 13 + 1, 4096)];
                if i % 2 == 0 {
                    reads.push(KeyRead::write(i * 17 + 3, 1_000_000));
                }
                StoreRequest {
                    id: i,
                    arrival: SimTime::from_micros(i * 200),
                    reads,
                }
            })
            .collect();
        let mut neutral = quick_config(PolicyKind::das());
        neutral.overload.admission.deadline_secs = 0.01;
        let mut penalized = neutral.clone();
        penalized.overload.admission.write_penalty = 100.0;
        let a = run_simulation(&neutral, mixed.clone()).unwrap();
        let b = run_simulation(&penalized, mixed).unwrap();
        // Light load: without the penalty everything fits the deadline;
        // with it, exactly the write-bearing half is rejected.
        assert_eq!(a.recovery.shed_admission, 0);
        assert_eq!(b.recovery.shed_admission, 50);
        assert_eq!(b.recovery.accepted, b.recovery.completed);
    }

    #[test]
    fn bounded_queue_sheds_whole_requests() {
        let mut cfg = quick_config(PolicyKind::Fcfs);
        // Generous deadline: only the queue bound bites.
        cfg.overload.admission.deadline_secs = 1.0;
        cfg.overload.admission.queue_capacity = 4;
        let result = run_simulation(&cfg, requests(2000, 3, 4)).unwrap();
        let r = &result.recovery;
        assert!(r.shed_queue > 0, "full queues must shed");
        assert_eq!(r.accepted, r.completed + r.shed_queue);
        assert!(r.completed > 0);
        // Shed requests never record an RCT.
        assert_eq!(result.rct.count(), result.measured);
        assert_eq!(result.completed + r.shed_queue, r.accepted);
    }

    #[test]
    fn batching_coalesces_tiny_ops_and_helps_under_overload() {
        let mut plain = quick_config(PolicyKind::Fcfs);
        plain.horizon_secs = 0.1;
        let mut batched = plain.clone();
        batched.overload.batch.max_ops = 8;
        batched.overload.batch.tiny_op_bytes = 8192;
        // ~1.1x saturation on 4096-byte ops: queues grow without help.
        let a = run_simulation(&plain, requests(3000, 4, 4)).unwrap();
        let b = run_simulation(&batched, requests(3000, 4, 4)).unwrap();
        let r = &b.recovery;
        assert!(r.batching.batches > 0, "queued tiny ops must coalesce");
        assert!(r.batching.mean_batch_size() > 1.0);
        assert!(r.batching.overhead_saved_secs > 0.0);
        assert_eq!(a.completed, b.completed);
        assert!(
            b.mean_rct() < a.mean_rct(),
            "amortized overhead must relieve the overload: {} !< {}",
            b.mean_rct(),
            a.mean_rct()
        );
    }

    #[test]
    fn backpressure_denies_retries_past_budget() {
        use das_sim::fault::CrashWindow;
        let mut cfg = quick_config(PolicyKind::das());
        cfg.cluster.replication = 2;
        cfg.faults.crashes.crashes.push(CrashWindow {
            server: 0,
            down_secs: 0.02,
            up_secs: 0.05,
        });
        cfg.faults.crashes.crashes.push(CrashWindow {
            server: 3,
            down_secs: 0.04,
            up_secs: 0.08,
        });
        cfg.faults.retry.deadline_secs = 0.05;
        cfg.faults.retry.max_attempts = 4;
        // A near-empty budget: ~16 initial tokens, then 1/s refill over a
        // ~0.1s run — almost every retry wave is denied.
        cfg.overload.backpressure.tokens_per_sec = 1.0;
        let result = run_simulation(&cfg, requests(2000, 50, 4)).unwrap();
        let r = &result.recovery;
        assert!(r.retries_denied > 0, "the budget must deny retries");
        assert!(r.aborted > 0, "denied retries fail fast");
        assert_eq!(r.accepted, r.completed + r.aborted + r.shed_queue);
        assert!(r.retries <= 16 + r.crash_drops, "retry volume is bounded");
    }

    #[test]
    fn hedges_draw_from_the_same_budget() {
        let mut cfg = quick_config(PolicyKind::das());
        cfg.cluster.replication = 3;
        cfg.cluster.perf_events.push(crate::config::PerfEvent {
            server: 2,
            start_secs: 0.0,
            end_secs: f64::INFINITY,
            multiplier: 0.02,
        });
        cfg.faults.hedge.quantile = 0.9;
        cfg.faults.hedge.min_samples = 20;
        cfg.faults.hedge.min_delay_secs = 1e-4;
        cfg.overload.backpressure.tokens_per_sec = 1.0;
        cfg.overload.backpressure.burst = 2.0;
        let result = run_simulation(&cfg, requests(1500, 60, 2)).unwrap();
        let r = &result.recovery;
        assert!(r.hedges_denied > 0, "the shared budget must deny hedges");
        assert_eq!(r.aborted, 0, "a denied hedge never aborts the request");
        assert_eq!(r.accepted, r.completed);
        assert!(r.hedges <= 2 + 1, "hedge volume is bounded by the bucket");
    }

    #[test]
    fn overloaded_runs_are_deterministic() {
        use das_sim::fault::CrashWindow;
        let mut cfg = quick_config(PolicyKind::das());
        cfg.cluster.replication = 2;
        cfg.faults.crashes.crashes.push(CrashWindow {
            server: 2,
            down_secs: 0.01,
            up_secs: 0.04,
        });
        cfg.faults.retry.deadline_secs = 0.02;
        cfg.overload.admission.deadline_secs = 0.03;
        cfg.overload.admission.queue_capacity = 16;
        cfg.overload.backpressure.tokens_per_sec = 500.0;
        cfg.overload.backpressure.burst = 4.0;
        cfg.overload.batch.max_ops = 4;
        let a = run_simulation(&cfg, requests(2000, 5, 4)).unwrap();
        let b = run_simulation(&cfg, requests(2000, 5, 4)).unwrap();
        assert_eq!(a.mean_rct().to_bits(), b.mean_rct().to_bits());
        assert_eq!(a.recovery.shed_admission, b.recovery.shed_admission);
        assert_eq!(a.recovery.shed_queue, b.recovery.shed_queue);
        assert_eq!(a.recovery.retries_denied, b.recovery.retries_denied);
        assert_eq!(a.recovery.batching, b.recovery.batching);
        assert_eq!(a.events_processed, b.events_processed);
        assert!(a.recovery.any_overload_seen());
    }

    #[test]
    fn shed_traces_carry_terminal_shed_events() {
        let mut cfg = quick_config(PolicyKind::Fcfs);
        cfg.overload.admission.deadline_secs = 1.0;
        cfg.overload.admission.queue_capacity = 4;
        cfg.trace = das_trace::TraceConfig::enabled();
        let result = run_simulation(&cfg, requests(2000, 3, 4)).unwrap();
        let log = result.trace.unwrap();
        let sheds = log
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Shed { .. }))
            .count() as u64;
        assert_eq!(sheds, result.recovery.shed_queue);
        // Shed requests have no RequestComplete, so the critical-path
        // reconstruction (which telescopes exactly) skips them cleanly.
        let paths = das_trace::critical_paths(&log);
        assert_eq!(paths.len() as u64, result.completed);
        for p in &paths {
            assert_eq!(p.sum_ns(), p.rct_ns, "request {}", p.request);
        }
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        use das_sim::fault::CrashWindow;
        let mut cfg = quick_config(PolicyKind::das());
        cfg.cluster.replication = 2;
        cfg.faults.crashes.crashes.push(CrashWindow {
            server: 2,
            down_secs: 0.1,
            up_secs: 0.5,
        });
        cfg.faults.request_faults.loss = 0.02;
        cfg.faults.response_faults.duplication = 0.05;
        cfg.faults.retry.deadline_secs = 0.05;
        cfg.faults.retry.jitter = 0.5;
        cfg.faults.hedge.quantile = 0.95;
        cfg.faults.hedge.min_samples = 50;
        let a = run_simulation(&cfg, requests(800, 80, 4)).unwrap();
        let b = run_simulation(&cfg, requests(800, 80, 4)).unwrap();
        assert_eq!(a.mean_rct().to_bits(), b.mean_rct().to_bits());
        assert_eq!(a.recovery.timeouts, b.recovery.timeouts);
        assert_eq!(a.recovery.retries, b.recovery.retries);
        assert_eq!(a.recovery.hedges, b.recovery.hedges);
        assert_eq!(a.recovery.aborted, b.recovery.aborted);
        assert_eq!(a.events_processed, b.events_processed);
    }
}
