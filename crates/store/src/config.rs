//! Cluster and simulation configuration.

use serde::{Deserialize, Serialize};

use das_net::faults::LinkFaults;
use das_net::latency::NetworkConfig;
use das_sched::policy::{PolicyError, PolicyKind};
use das_sim::fault::FaultSchedule;
use das_sim::time::SimDuration;
use das_trace::TraceConfig;

use crate::partition::PartitionerConfig;

fn default_coordinators() -> u32 {
    1
}

/// A structured validation failure: either one numeric knob outside its
/// range ([`ConfigError::OutOfRange`]) or an invariant between knobs, each
/// with its own variant, so callers can match on the cause instead of
/// scraping strings.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// One numeric knob fell outside its valid range.
    OutOfRange {
        /// Which knob (e.g. `"servers"`, `"retry jitter"`).
        knob: &'static str,
        /// The range it must lie in (e.g. `">= 1"`, `"in [0, 1]"`).
        want: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A perf event targeted a server index outside the cluster.
    PerfEventUnknownServer {
        /// The offending server index.
        server: u32,
    },
    /// A perf event ended before it started.
    PerfEventEndsBeforeStart {
        /// The server it targeted.
        server: u32,
    },
    /// A network latency or bandwidth knob was out of range.
    NetworkInvalid {
        /// What was wrong.
        reason: &'static str,
    },
    /// A partitioner knob was out of range.
    PartitionerInvalid {
        /// What was wrong.
        reason: &'static str,
    },
    /// `warmup_secs` fell outside `[0, horizon)`.
    WarmupOutsideHorizon {
        /// The configured warmup.
        warmup_secs: f64,
        /// The configured horizon.
        horizon_secs: f64,
    },
    /// A crash window was malformed (unknown server, negative start, or
    /// recovery at or before the crash instant).
    CrashWindowInvalid {
        /// The server the window targeted.
        server: u32,
    },
    /// Two crash windows on the same server overlap in time: the engine
    /// books one crash/recover transition pair per window, so a recovery
    /// from the first window would revive a server the second still holds
    /// down.
    CrashWindowsOverlap {
        /// The server with overlapping windows.
        server: u32,
    },
    /// A link-fault knob was out of range.
    LinkFaultInvalid {
        /// Which direction (`"request"` or `"response"`).
        direction: &'static str,
        /// What was wrong.
        reason: &'static str,
    },
    /// Message loss was configured without retries: a lost op would hang
    /// its request forever.
    LossWithoutRetry,
    /// The per-attempt retry budget exceeds the request admission deadline:
    /// every retried attempt would outlive the request it serves.
    BudgetExceedsDeadline {
        /// The per-attempt retry deadline, seconds.
        budget_secs: f64,
        /// The request admission deadline, seconds.
        deadline_secs: f64,
    },
    /// A scheduling-policy knob was out of range.
    PolicyInvalid {
        /// Which knob, and its value.
        reason: PolicyError,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::OutOfRange { knob, want, value } => {
                write!(f, "{knob} must be {want}, got {value}")
            }
            ConfigError::PerfEventUnknownServer { server } => {
                write!(f, "perf event for nonexistent server {server}")
            }
            ConfigError::PerfEventEndsBeforeStart { server } => {
                write!(f, "perf event for server {server} ends before it starts")
            }
            ConfigError::NetworkInvalid { reason } => write!(f, "network: {reason}"),
            ConfigError::PartitionerInvalid { reason } => write!(f, "partitioner: {reason}"),
            ConfigError::WarmupOutsideHorizon {
                warmup_secs,
                horizon_secs,
            } => write!(
                f,
                "warmup must be in [0, horizon): {warmup_secs} vs horizon {horizon_secs}"
            ),
            ConfigError::CrashWindowInvalid { server } => {
                write!(f, "malformed crash window for server {server}")
            }
            ConfigError::CrashWindowsOverlap { server } => {
                write!(f, "overlapping crash windows for server {server}")
            }
            ConfigError::LinkFaultInvalid { direction, reason } => {
                write!(f, "{direction} link faults: {reason}")
            }
            ConfigError::LossWithoutRetry => write!(
                f,
                "message loss requires retries (a lost op would hang its request): \
                 set faults.retry.deadline_secs > 0"
            ),
            ConfigError::BudgetExceedsDeadline {
                budget_secs,
                deadline_secs,
            } => write!(
                f,
                "retry deadline_secs {budget_secs} exceeds the admission deadline \
                 {deadline_secs}: every retried attempt would outlive its request"
            ),
            ConfigError::PolicyInvalid { reason } => write!(f, "policy: {reason}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// `Ok` when `ok` holds, else [`ConfigError::OutOfRange`] naming the knob.
fn check(ok: bool, knob: &'static str, want: &'static str, value: f64) -> Result<(), ConfigError> {
    if ok {
        Ok(())
    } else {
        Err(ConfigError::OutOfRange { knob, want, value })
    }
}

fn at_least_one(knob: &'static str, value: u64) -> Result<(), ConfigError> {
    check(value >= 1, knob, ">= 1", value as f64)
}

fn positive(knob: &'static str, value: f64) -> Result<(), ConfigError> {
    check(
        value.is_finite() && value > 0.0,
        knob,
        "finite and positive",
        value,
    )
}

fn non_negative(knob: &'static str, value: f64) -> Result<(), ConfigError> {
    check(
        value.is_finite() && value >= 0.0,
        knob,
        "finite and >= 0",
        value,
    )
}

fn probability(knob: &'static str, value: f64) -> Result<(), ConfigError> {
    check((0.0..=1.0).contains(&value), knob, "in [0, 1]", value)
}

/// A scheduled change to one server's performance — the substrate for the
/// time-varying-server-performance experiments (Fig. 12) and, with
/// near-zero multipliers, for gray failures (Fig. 23).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfEvent {
    /// Affected server index.
    pub server: u32,
    /// When the change takes effect, seconds.
    pub start_secs: f64,
    /// When the server recovers, seconds (`f64::INFINITY` = never).
    pub end_secs: f64,
    /// Service-rate multiplier during the window (0.25 = 4× slower).
    pub multiplier: f64,
}

impl PerfEvent {
    /// The multiplier in effect for this event at time `t` (1.0 outside
    /// the window).
    pub fn multiplier_at(&self, t_secs: f64) -> f64 {
        if t_secs >= self.start_secs && t_secs < self.end_secs {
            self.multiplier
        } else {
            1.0
        }
    }
}

fn default_retry_attempts() -> u32 {
    3
}

/// Per-op timeout and retry policy at the coordinator.
///
/// Disabled by default (`deadline_secs == 0`): no timeout events are ever
/// scheduled and fault-free runs are bit-identical to builds without this
/// machinery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryConfig {
    /// Per-attempt deadline, seconds; `0` disables timeouts and retries.
    #[serde(default)]
    pub deadline_secs: f64,
    /// Total attempts per op, including the first (>= 1 when enabled).
    #[serde(default = "default_retry_attempts")]
    pub max_attempts: u32,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by
    /// `1 + jitter * U(0, 1)` to decorrelate retry storms.
    #[serde(default)]
    pub jitter: f64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            deadline_secs: 0.0,
            max_attempts: default_retry_attempts(),
            jitter: 0.0,
        }
    }
}

impl RetryConfig {
    /// True when per-op deadlines (and thus retries) are in effect.
    pub fn enabled(&self) -> bool {
        self.deadline_secs > 0.0
    }

    /// The backoff before attempt `attempt` (2-based: the first retry is
    /// attempt 2), without jitter: 0.5 ms, doubling per further attempt.
    pub fn backoff_secs(attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(2);
        5e-4 * 2f64.powi(exp as i32)
    }
}

fn default_hedge_min_delay() -> f64 {
    5e-4
}

fn default_hedge_min_samples() -> u64 {
    100
}

/// Hedged-read policy: after a delay set by an online latency quantile,
/// read-only ops still outstanding are speculatively duplicated to their
/// least-loaded other replica. Disabled by default (`quantile == 0`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HedgeConfig {
    /// The op-latency quantile that arms the hedge timer (e.g. `0.95`);
    /// `0` disables hedging.
    #[serde(default)]
    pub quantile: f64,
    /// Floor on the hedge delay, seconds (guards against hedging storms
    /// while the quantile estimate is still tiny).
    #[serde(default = "default_hedge_min_delay")]
    pub min_delay_secs: f64,
    /// Completed-attempt samples required before hedging arms.
    #[serde(default = "default_hedge_min_samples")]
    pub min_samples: u64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            quantile: 0.0,
            min_delay_secs: default_hedge_min_delay(),
            min_samples: default_hedge_min_samples(),
        }
    }
}

impl HedgeConfig {
    /// True when hedged reads are in effect.
    pub fn enabled(&self) -> bool {
        self.quantile > 0.0
    }
}

/// The complete fault model of one run: crash-stop schedule, per-message
/// link faults in each direction, and the coordinator's recovery policy.
/// Everything defaults to "off"; a default profile injects nothing,
/// schedules nothing, and draws no randomness.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Crash-stop windows per server.
    #[serde(default)]
    pub crashes: FaultSchedule,
    /// Faults on coordinator→server op-request messages.
    #[serde(default)]
    pub request_faults: LinkFaults,
    /// Faults on server→coordinator op-response messages.
    #[serde(default)]
    pub response_faults: LinkFaults,
    /// Per-op deadline / retry policy.
    #[serde(default)]
    pub retry: RetryConfig,
    /// Hedged-read policy.
    #[serde(default)]
    pub hedge: HedgeConfig,
}

impl FaultProfile {
    /// A profile that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when any part of the fault machinery is switched on.
    pub fn is_active(&self) -> bool {
        self.crashes.is_active()
            || self.request_faults.is_active()
            || self.response_faults.is_active()
            || self.retry.enabled()
            || self.hedge.enabled()
    }

    /// Validates the profile against a cluster of `servers` servers.
    pub fn validate(&self, servers: u32) -> Result<(), ConfigError> {
        if let Some(w) = self.crashes.first_invalid(servers) {
            return Err(ConfigError::CrashWindowInvalid { server: w.server });
        }
        if let Some(server) = self.crashes.first_overlap() {
            return Err(ConfigError::CrashWindowsOverlap { server });
        }
        if let Some(reason) = self.request_faults.first_invalid() {
            return Err(ConfigError::LinkFaultInvalid {
                direction: "request",
                reason,
            });
        }
        if let Some(reason) = self.response_faults.first_invalid() {
            return Err(ConfigError::LinkFaultInvalid {
                direction: "response",
                reason,
            });
        }
        let r = &self.retry;
        non_negative("retry deadline_secs", r.deadline_secs)?;
        if r.enabled() {
            at_least_one("retry max_attempts", r.max_attempts.into())?;
            probability("retry jitter", r.jitter)?;
        }
        let h = &self.hedge;
        if h.enabled() {
            check(
                h.quantile > 0.0 && h.quantile < 1.0,
                "hedge quantile",
                "in (0, 1)",
                h.quantile,
            )?;
            non_negative("hedge min_delay_secs", h.min_delay_secs)?;
            check(
                h.min_samples >= 5,
                "hedge min_samples",
                ">= 5",
                h.min_samples as f64,
            )?;
        }
        let lossy = self.request_faults.loss > 0.0 || self.response_faults.loss > 0.0;
        if lossy && !r.enabled() {
            return Err(ConfigError::LossWithoutRetry);
        }
        Ok(())
    }
}

fn default_queue_capacity() -> u32 {
    1024
}

fn default_write_penalty() -> f64 {
    1.0
}

/// Deadline- and size-aware admission control: a request-level completion
/// deadline at the coordinator plus bounded per-server queues.
///
/// Disabled by default (`deadline_secs == 0`): no request is ever shed and
/// queues stay unbounded, keeping every default-config run bit-identical to
/// builds without the overload layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Request-level completion deadline, seconds; `0` disables admission
    /// control (and queue bounding) entirely.
    #[serde(default)]
    pub deadline_secs: f64,
    /// Bounded per-server queue capacity, in queued ops. Arrivals beyond
    /// it shed their whole request (>= 1 when admission is enabled).
    #[serde(default = "default_queue_capacity")]
    pub queue_capacity: u32,
    /// Multiplier on written bytes when estimating a request's cost at
    /// admission (>= 1). Values above one make large writes look more
    /// expensive than same-size reads, so under pressure they are shed
    /// first — "reject cheapest to lose".
    #[serde(default = "default_write_penalty")]
    pub write_penalty: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            deadline_secs: 0.0,
            queue_capacity: default_queue_capacity(),
            write_penalty: default_write_penalty(),
        }
    }
}

impl AdmissionConfig {
    /// True when deadline-aware admission (and queue bounding) is in effect.
    pub fn enabled(&self) -> bool {
        self.deadline_secs > 0.0
    }
}

fn default_token_burst() -> f64 {
    16.0
}

/// Coordinator backpressure: a token bucket shared by retries and hedges,
/// so the recovery layer cannot retry-storm a saturated cluster.
///
/// Disabled by default (`tokens_per_sec == 0`): retries and hedges are
/// never denied.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackpressureConfig {
    /// Token refill rate, tokens/second; `0` disables the budget. Each
    /// retry or hedge dispatch consumes one token.
    #[serde(default)]
    pub tokens_per_sec: f64,
    /// Bucket capacity (>= 1 when enabled): the largest retry/hedge burst
    /// the coordinator may emit back-to-back.
    #[serde(default = "default_token_burst")]
    pub burst: f64,
}

impl Default for BackpressureConfig {
    fn default() -> Self {
        BackpressureConfig {
            tokens_per_sec: 0.0,
            burst: default_token_burst(),
        }
    }
}

impl BackpressureConfig {
    /// True when the retry/hedge token budget is in effect.
    pub fn enabled(&self) -> bool {
        self.tokens_per_sec > 0.0
    }
}

fn default_batch_overhead_fraction() -> f64 {
    0.2
}

/// Value-size-aware batch coalescing: when a worker frees up, tiny queued
/// ops (at most [`BatchConfig::TINY_OP_BYTES`] service bytes) are coalesced
/// into one server visit, amortizing the fixed per-op overhead across the
/// batch.
///
/// Disabled by default (`max_ops <= 1`): every op is its own server visit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Largest number of ops coalesced into one visit; `0` or `1`
    /// disables batching.
    #[serde(default)]
    pub max_ops: u32,
    /// Fraction of the fixed per-op overhead each batch *follower* still
    /// pays, in `(0, 1]`. Strictly positive so follower completions keep
    /// strictly increasing timestamps (the engine's completion identity).
    #[serde(default = "default_batch_overhead_fraction")]
    pub overhead_fraction: f64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_ops: 0,
            overhead_fraction: default_batch_overhead_fraction(),
        }
    }
}

impl BatchConfig {
    /// Only ops of at most this many service bytes are batchable.
    pub const TINY_OP_BYTES: u64 = 4096;

    /// True when batch coalescing is in effect.
    pub fn enabled(&self) -> bool {
        self.max_ops > 1
    }
}

/// The complete overload-control model of one run: deadline-aware
/// admission with bounded queues, a retry/hedge token budget, and tiny-op
/// batch coalescing. Everything defaults to "off"; a default profile sheds
/// nothing, denies nothing, batches nothing, and draws no randomness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OverloadProfile {
    /// Deadline-aware admission and bounded per-server queues.
    #[serde(default)]
    pub admission: AdmissionConfig,
    /// Retry/hedge token-bucket budget.
    #[serde(default)]
    pub backpressure: BackpressureConfig,
    /// Tiny-op batch coalescing.
    #[serde(default)]
    pub batch: BatchConfig,
}

impl OverloadProfile {
    /// A profile with every overload knob off.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when any part of the overload machinery is switched on.
    pub fn is_active(&self) -> bool {
        self.admission.enabled() || self.backpressure.enabled() || self.batch.enabled()
    }

    /// Validates the profile. `retry_deadline_secs` is the fault layer's
    /// per-attempt retry deadline (`0` = retries off), cross-checked so a
    /// retry budget can never exceed the request admission deadline.
    pub fn validate(&self, retry_deadline_secs: f64) -> Result<(), ConfigError> {
        let a = &self.admission;
        non_negative("admission deadline_secs", a.deadline_secs)?;
        if a.enabled() {
            at_least_one("admission queue_capacity", a.queue_capacity.into())?;
            check(
                a.write_penalty.is_finite() && a.write_penalty >= 1.0,
                "admission write_penalty",
                "finite and >= 1",
                a.write_penalty,
            )?;
            if retry_deadline_secs > a.deadline_secs {
                return Err(ConfigError::BudgetExceedsDeadline {
                    budget_secs: retry_deadline_secs,
                    deadline_secs: a.deadline_secs,
                });
            }
        }
        let b = &self.backpressure;
        non_negative("backpressure tokens_per_sec", b.tokens_per_sec)?;
        if b.enabled() {
            check(
                b.burst.is_finite() && b.burst >= 1.0,
                "backpressure burst",
                "finite and >= 1",
                b.burst,
            )?;
        }
        let c = &self.batch;
        if c.enabled() {
            check(
                c.overhead_fraction > 0.0 && c.overhead_fraction <= 1.0,
                "batch overhead_fraction",
                "in (0, 1]",
                c.overhead_fraction,
            )?;
        }
        Ok(())
    }
}

/// Static description of the simulated cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of servers.
    pub servers: u32,
    /// Concurrent workers (service slots) per server.
    pub workers_per_server: u32,
    /// Nominal service rate, bytes/second (e.g. `1e9` ≈ memcached-class).
    pub base_rate_bytes_per_sec: f64,
    /// Fixed per-operation service overhead (parsing, lookup, framing).
    pub per_op_overhead: SimDuration,
    /// Network model between coordinator and servers.
    pub network: NetworkConfig,
    /// Key→server placement.
    pub partitioner: PartitionerConfig,
    /// Replication factor (1 = no replication). Reads go to the replica
    /// with the lowest estimated completion time.
    pub replication: u32,
    /// Number of independent client coordinators. Requests are spread
    /// round-robin across them; each maintains its *own* piggyback-fed
    /// estimates and only sees its own responses, so higher counts mean
    /// staler, more fragmented information — the realistic stress test of
    /// the "distributed" claim.
    #[serde(default = "default_coordinators")]
    pub coordinators: u32,
    /// Probability that a progress-hint message is lost in flight
    /// (hints are fire-and-forget; DAS must tolerate losing them).
    #[serde(default)]
    pub hint_loss: f64,
    /// Scheduled server slowdowns/speedups.
    pub perf_events: Vec<PerfEvent>,
    /// Relative standard deviation of the coordinator's service-time
    /// estimates (0 = perfect size knowledge).
    pub estimate_noise: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            servers: 100,
            workers_per_server: 1,
            base_rate_bytes_per_sec: 1e9,
            per_op_overhead: SimDuration::from_micros(5),
            network: NetworkConfig::default(),
            partitioner: PartitionerConfig::default(),
            replication: 1,
            coordinators: 1,
            hint_loss: 0.0,
            perf_events: Vec::new(),
            estimate_noise: 0.0,
        }
    }
}

impl ClusterConfig {
    /// Effective rate multiplier for `server` at `t_secs`, combining all
    /// overlapping events multiplicatively.
    pub fn rate_multiplier(&self, server: u32, t_secs: f64) -> f64 {
        self.perf_events
            .iter()
            .filter(|e| e.server == server)
            .map(|e| e.multiplier_at(t_secs))
            .product()
    }

    /// Validates invariants, returning the first problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        at_least_one("servers", self.servers.into())?;
        at_least_one("workers_per_server", self.workers_per_server.into())?;
        positive("base_rate_bytes_per_sec", self.base_rate_bytes_per_sec)?;
        at_least_one("replication", self.replication.into())?;
        at_least_one("coordinators", self.coordinators.into())?;
        probability("hint_loss", self.hint_loss)?;
        non_negative("estimate_noise", self.estimate_noise)?;
        if let Some(reason) = self.network.first_invalid() {
            return Err(ConfigError::NetworkInvalid { reason });
        }
        if let Some(reason) = self.partitioner.first_invalid() {
            return Err(ConfigError::PartitionerInvalid { reason });
        }
        for e in &self.perf_events {
            if e.server >= self.servers {
                return Err(ConfigError::PerfEventUnknownServer { server: e.server });
            }
            positive("perf multiplier", e.multiplier)?;
            if e.end_secs < e.start_secs {
                return Err(ConfigError::PerfEventEndsBeforeStart { server: e.server });
            }
        }
        Ok(())
    }
}

/// Everything one simulation run needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// The cluster under test.
    pub cluster: ClusterConfig,
    /// The scheduling policy deployed on every server.
    pub policy: PolicyKind,
    /// Master seed (all randomness derives from it).
    pub seed: u64,
    /// Simulated run length, seconds.
    pub horizon_secs: f64,
    /// Requests arriving before this instant are excluded from statistics.
    pub warmup_secs: f64,
    /// Bin width for the RCT-over-time series, seconds (`None` = skip).
    pub rct_timeseries_bin_secs: Option<f64>,
    /// Fault injection and recovery policy (defaults to none).
    #[serde(default)]
    pub faults: FaultProfile,
    /// Structured event tracing (defaults to off; off keeps every result
    /// bit-identical to a build without the trace layer).
    #[serde(default)]
    pub trace: TraceConfig,
    /// Overload control: admission, backpressure, batching (defaults to
    /// off; off keeps every result bit-identical to a build without the
    /// overload layer).
    #[serde(default)]
    pub overload: OverloadProfile,
}

impl SimulationConfig {
    /// A run of `horizon_secs` with the given policy on a default cluster.
    pub fn new(policy: PolicyKind, horizon_secs: f64) -> Self {
        SimulationConfig {
            cluster: ClusterConfig::default(),
            policy,
            seed: 1,
            horizon_secs,
            warmup_secs: (horizon_secs * 0.1).min(2.0),
            rct_timeseries_bin_secs: None,
            faults: FaultProfile::none(),
            trace: TraceConfig::default(),
            overload: OverloadProfile::none(),
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.cluster.validate()?;
        self.policy
            .validate()
            .map_err(|reason| ConfigError::PolicyInvalid { reason })?;
        self.faults.validate(self.cluster.servers)?;
        self.overload.validate(self.faults.retry.deadline_secs)?;
        positive("horizon_secs", self.horizon_secs)?;
        if self.warmup_secs < 0.0 || self.warmup_secs >= self.horizon_secs {
            return Err(ConfigError::WarmupOutsideHorizon {
                warmup_secs: self.warmup_secs,
                horizon_secs: self.horizon_secs,
            });
        }
        if let Some(value) = self.rct_timeseries_bin_secs {
            positive("rct_timeseries_bin_secs", value)?;
        }
        let t = &self.trace;
        if t.enabled {
            check(
                t.sample > 0.0 && t.sample <= 1.0,
                "trace sample",
                "in (0, 1]",
                t.sample,
            )?;
            at_least_one("trace capacity", t.capacity as u64)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_sim::fault::CrashWindow;

    /// The knob an [`ConfigError::OutOfRange`] result names.
    fn knob(result: Result<(), ConfigError>) -> &'static str {
        match result {
            Err(ConfigError::OutOfRange { knob, .. }) => knob,
            other => panic!("expected an out-of-range knob, got {other:?}"),
        }
    }

    #[test]
    fn default_is_valid() {
        assert_eq!(ClusterConfig::default().validate(), Ok(()));
        assert_eq!(
            SimulationConfig::new(PolicyKind::Fcfs, 10.0).validate(),
            Ok(())
        );
    }

    #[test]
    fn bad_policy_knobs_from_json_are_typed_config_errors() {
        // Each of these used to pass validation and then panic on the
        // constructor's assert inside `Engine::new`.
        for (json, want) in [
            (
                r#"{"kind":"das","config":{"aging":-1.0,"starvation_factor":0.0,"fcfs_fallback_len":1,"use_remaining_bottleneck":true,"adaptive":true,"oracle":false}}"#,
                PolicyError::DasKnobOutOfRange {
                    knob: "aging",
                    value: -1.0,
                },
            ),
            (
                r#"{"kind":"das","config":{"aging":0.1,"starvation_factor":-2.0,"fcfs_fallback_len":1,"use_remaining_bottleneck":true,"adaptive":true,"oracle":false}}"#,
                PolicyError::DasKnobOutOfRange {
                    knob: "starvation_factor",
                    value: -2.0,
                },
            ),
        ] {
            let policy: PolicyKind = serde_json::from_str(json).unwrap();
            let err = SimulationConfig::new(policy, 10.0).validate().unwrap_err();
            assert_eq!(err, ConfigError::PolicyInvalid { reason: want });
            assert!(err.to_string().starts_with("policy: "), "{err}");
        }
    }

    #[test]
    fn perf_event_windows() {
        let e = PerfEvent {
            server: 3,
            start_secs: 1.0,
            end_secs: 2.0,
            multiplier: 0.25,
        };
        assert_eq!(e.multiplier_at(0.5), 1.0);
        assert_eq!(e.multiplier_at(1.0), 0.25);
        assert_eq!(e.multiplier_at(1.999), 0.25);
        assert_eq!(e.multiplier_at(2.0), 1.0);
    }

    #[test]
    fn multipliers_compose() {
        let c = ClusterConfig {
            perf_events: perf_event_fixture(),
            ..Default::default()
        };
        fn perf_event_fixture() -> Vec<PerfEvent> {
            vec![
                PerfEvent {
                    server: 0,
                    start_secs: 0.0,
                    end_secs: 10.0,
                    multiplier: 0.5,
                },
                PerfEvent {
                    server: 0,
                    start_secs: 5.0,
                    end_secs: 10.0,
                    multiplier: 0.5,
                },
                PerfEvent {
                    server: 1,
                    start_secs: 0.0,
                    end_secs: 10.0,
                    multiplier: 2.0,
                },
            ]
        }
        assert_eq!(c.rate_multiplier(0, 1.0), 0.5);
        assert_eq!(c.rate_multiplier(0, 6.0), 0.25);
        assert_eq!(c.rate_multiplier(1, 6.0), 2.0);
        assert_eq!(c.rate_multiplier(2, 6.0), 1.0);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = ClusterConfig {
            servers: 0,
            ..Default::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::OutOfRange {
                knob: "servers",
                want: ">= 1",
                value: 0.0
            })
        );

        let mut c = ClusterConfig::default();
        c.perf_events.push(PerfEvent {
            server: 1000,
            start_secs: 0.0,
            end_secs: 1.0,
            multiplier: 0.5,
        });
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::PerfEventUnknownServer { server: 1000 });
        assert!(err.to_string().contains("nonexistent"));

        let mut s = SimulationConfig::new(PolicyKind::Fcfs, 10.0);
        s.warmup_secs = 20.0;
        assert!(matches!(
            s.validate(),
            Err(ConfigError::WarmupOutsideHorizon { .. })
        ));
    }

    #[test]
    fn network_partitioner_and_bin_knobs_are_typed_config_errors() {
        // Each of these used to pass validation and then panic on a
        // constructor assert inside `Engine::new`.
        use crate::partition::PartitionerConfig;
        use das_net::latency::LatencyConfig;
        let base = SimulationConfig::new(PolicyKind::Fcfs, 10.0);
        let rejected = |edit: &dyn Fn(&mut SimulationConfig)| {
            let mut s = base.clone();
            edit(&mut s);
            s.validate().unwrap_err().to_string()
        };
        for (edit, message) in [
            (
                &(|s: &mut SimulationConfig| {
                    s.cluster.partitioner = PartitionerConfig::ConsistentHash { vnodes: 0 }
                }) as &dyn Fn(&mut SimulationConfig),
                "partitioner: consistent_hash needs at least one vnode per server",
            ),
            (
                &|s| {
                    s.cluster.network.latency = LatencyConfig::Lognormal {
                        mean_micros: 50.0,
                        sigma: -1.0,
                    }
                },
                "network: latency sigma must be finite and >= 0",
            ),
            (
                &|s| {
                    s.cluster.network.latency = LatencyConfig::Lognormal {
                        mean_micros: -50.0,
                        sigma: 0.4,
                    }
                },
                "network: latency mean_micros must be finite and positive",
            ),
            (
                &|s| s.cluster.network.bandwidth_bytes_per_sec = Some(0.0),
                "network: bandwidth_bytes_per_sec must be finite and positive",
            ),
            (
                &|s| s.rct_timeseries_bin_secs = Some(0.0),
                "rct_timeseries_bin_secs must be finite and positive, got 0",
            ),
            (
                &|s| s.rct_timeseries_bin_secs = Some(-1.0),
                "rct_timeseries_bin_secs must be finite and positive, got -1",
            ),
            (
                &|s| s.rct_timeseries_bin_secs = Some(f64::NAN),
                "rct_timeseries_bin_secs must be finite and positive, got NaN",
            ),
        ] {
            assert_eq!(rejected(edit), message);
        }
    }

    #[test]
    fn config_error_implements_error() {
        let err: Box<dyn std::error::Error> = Box::new(ConfigError::OutOfRange {
            knob: "servers",
            want: ">= 1",
            value: 0.0,
        });
        assert_eq!(err.to_string(), "servers must be >= 1, got 0");
    }

    #[test]
    fn serde_roundtrip() {
        let mut s = SimulationConfig::new(PolicyKind::das(), 5.0);
        s.faults.crashes.crashes.push(CrashWindow {
            server: 1,
            down_secs: 1.0,
            up_secs: 2.0,
        });
        s.faults.retry.deadline_secs = 0.05;
        s.faults.hedge.quantile = 0.95;
        s.overload.admission.deadline_secs = 0.08;
        s.overload.backpressure.tokens_per_sec = 50.0;
        s.overload.batch.max_ops = 4;
        let json = serde_json::to_string(&s).unwrap();
        let back: SimulationConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn faults_field_defaults_when_missing() {
        // Configs written before the fault layer still deserialize.
        let s = SimulationConfig::new(PolicyKind::Fcfs, 5.0);
        let json = serde_json::to_string(&s).unwrap();
        let stripped = json.replace(
            &format!(",\"faults\":{}", serde_json::to_string(&s.faults).unwrap()),
            "",
        );
        assert_ne!(json, stripped, "faults field expected in serialized form");
        let back: SimulationConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.faults, FaultProfile::none());
        assert!(!back.faults.is_active());
    }

    #[test]
    fn trace_field_defaults_when_missing() {
        // Configs written before the trace layer still deserialize.
        let s = SimulationConfig::new(PolicyKind::Fcfs, 5.0);
        let json = serde_json::to_string(&s).unwrap();
        let stripped = json.replace(
            &format!(",\"trace\":{}", serde_json::to_string(&s.trace).unwrap()),
            "",
        );
        assert_ne!(json, stripped, "trace field expected in serialized form");
        let back: SimulationConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.trace, TraceConfig::default());
        assert!(!back.trace.enabled);
    }

    #[test]
    fn trace_validation() {
        let mut s = SimulationConfig::new(PolicyKind::Fcfs, 5.0);
        s.trace = TraceConfig::enabled();
        assert_eq!(s.validate(), Ok(()));
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            s.trace.sample = bad;
            assert_eq!(knob(s.validate()), "trace sample", "{bad}");
        }
        s.trace.sample = 0.5;
        s.trace.capacity = 0;
        assert_eq!(
            s.validate().unwrap_err().to_string(),
            "trace capacity must be >= 1, got 0"
        );
        // Disabled tracing skips the knob checks entirely.
        s.trace.enabled = false;
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn fault_profile_validation() {
        let mut p = FaultProfile::none();
        assert_eq!(p.validate(4), Ok(()));
        assert!(!p.is_active());

        // Crash window for a server outside the cluster.
        p.crashes.crashes.push(CrashWindow {
            server: 9,
            down_secs: 0.0,
            up_secs: 1.0,
        });
        assert_eq!(
            p.validate(4),
            Err(ConfigError::CrashWindowInvalid { server: 9 })
        );
        p.crashes.crashes.clear();

        // Loss without retries must be rejected in either direction.
        p.request_faults.loss = 0.01;
        assert_eq!(p.validate(4), Err(ConfigError::LossWithoutRetry));
        p.request_faults.loss = 0.0;
        p.response_faults.loss = 0.01;
        assert_eq!(p.validate(4), Err(ConfigError::LossWithoutRetry));
        p.retry.deadline_secs = 0.05;
        assert_eq!(p.validate(4), Ok(()));
        assert!(p.is_active());

        // Out-of-range link probability.
        p.request_faults.duplication = 1.5;
        assert!(matches!(
            p.validate(4),
            Err(ConfigError::LinkFaultInvalid {
                direction: "request",
                ..
            })
        ));
        p.request_faults.duplication = 0.0;

        // Bad retry knobs.
        p.retry.max_attempts = 0;
        assert_eq!(knob(p.validate(4)), "retry max_attempts");
        p.retry.max_attempts = 3;
        p.retry.jitter = 1.5;
        assert_eq!(knob(p.validate(4)), "retry jitter");
        p.retry.jitter = 0.3;

        // Bad hedge knobs.
        p.hedge.quantile = 1.0;
        assert_eq!(knob(p.validate(4)), "hedge quantile");
        p.hedge.quantile = 0.95;
        p.hedge.min_delay_secs = -1.0;
        assert_eq!(knob(p.validate(4)), "hedge min_delay_secs");
        p.hedge.min_delay_secs = 5e-4;
        p.hedge.min_samples = 2;
        assert_eq!(
            p.validate(4).unwrap_err().to_string(),
            "hedge min_samples must be >= 5, got 2"
        );
        p.hedge.min_samples = 100;
        assert_eq!(p.validate(4), Ok(()));
    }

    #[test]
    fn overlapping_crash_windows_rejected() {
        let mut p = FaultProfile::none();
        p.crashes.crashes.push(CrashWindow {
            server: 2,
            down_secs: 1.0,
            up_secs: 3.0,
        });
        p.crashes.crashes.push(CrashWindow {
            server: 2,
            down_secs: 2.0,
            up_secs: 4.0,
        });
        let err = p.validate(4).unwrap_err();
        assert_eq!(err, ConfigError::CrashWindowsOverlap { server: 2 });
        assert!(err.to_string().contains("overlapping"));

        // Back-to-back windows on one server are fine ([down, up) is
        // half-open), as are identical windows on different servers.
        p.crashes.crashes[1].down_secs = 3.0;
        assert_eq!(p.validate(4), Ok(()));
        p.crashes.crashes[1].server = 3;
        p.crashes.crashes[1].down_secs = 1.0;
        assert_eq!(p.validate(4), Ok(()));
    }

    #[test]
    fn recovery_before_crash_rejected() {
        let mut p = FaultProfile::none();
        p.crashes.crashes.push(CrashWindow {
            server: 1,
            down_secs: 2.0,
            up_secs: 1.0,
        });
        assert_eq!(
            p.validate(4),
            Err(ConfigError::CrashWindowInvalid { server: 1 })
        );
        // Recovery *at* the crash instant is an empty window — same error.
        p.crashes.crashes[0].up_secs = 2.0;
        assert_eq!(
            p.validate(4),
            Err(ConfigError::CrashWindowInvalid { server: 1 })
        );
    }

    #[test]
    fn link_probabilities_outside_unit_interval_rejected() {
        // Each probability knob, in each direction, above 1 and below 0.
        for bad in [1.5, -0.1] {
            for knob in 0..3 {
                for direction in ["request", "response"] {
                    let mut p = FaultProfile::none();
                    p.retry.deadline_secs = 0.05; // so loss alone can't trip LossWithoutRetry
                    let faults = if direction == "request" {
                        &mut p.request_faults
                    } else {
                        &mut p.response_faults
                    };
                    match knob {
                        0 => faults.loss = bad,
                        1 => faults.duplication = bad,
                        _ => faults.extra_delay_prob = bad,
                    }
                    let err = p.validate(4).unwrap_err();
                    assert!(
                        matches!(err, ConfigError::LinkFaultInvalid { direction: d, .. } if d == direction),
                        "knob {knob} {direction} {bad}: got {err:?}"
                    );
                }
            }
        }
        // Negative extra delay is rejected too.
        let mut p = FaultProfile::none();
        p.request_faults.extra_delay_prob = 0.1;
        p.request_faults.extra_delay_micros = -5.0;
        assert!(matches!(
            p.validate(4),
            Err(ConfigError::LinkFaultInvalid {
                direction: "request",
                ..
            })
        ));
    }

    #[test]
    fn overload_field_defaults_when_missing() {
        // Configs written before the overload layer still deserialize.
        let s = SimulationConfig::new(PolicyKind::Fcfs, 5.0);
        let json = serde_json::to_string(&s).unwrap();
        let stripped = json.replace(
            &format!(
                ",\"overload\":{}",
                serde_json::to_string(&s.overload).unwrap()
            ),
            "",
        );
        assert_ne!(json, stripped, "overload field expected in serialized form");
        let back: SimulationConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.overload, OverloadProfile::none());
        assert!(!back.overload.is_active());
    }

    #[test]
    fn overload_profile_validation() {
        let mut p = OverloadProfile::none();
        assert_eq!(p.validate(0.0), Ok(()));
        assert!(!p.is_active());

        // Bad admission knobs.
        p.admission.deadline_secs = f64::NAN;
        assert_eq!(knob(p.validate(0.0)), "admission deadline_secs");
        p.admission.deadline_secs = 0.05;
        assert!(p.is_active());
        p.admission.queue_capacity = 0;
        assert_eq!(knob(p.validate(0.0)), "admission queue_capacity");
        p.admission.queue_capacity = 64;
        p.admission.write_penalty = 0.5;
        assert_eq!(knob(p.validate(0.0)), "admission write_penalty");
        p.admission.write_penalty = 2.0;
        assert_eq!(p.validate(0.0), Ok(()));

        // A per-attempt retry budget longer than the request deadline is
        // rejected: every retried attempt would outlive its request.
        assert!(matches!(
            p.validate(0.2),
            Err(ConfigError::BudgetExceedsDeadline { .. })
        ));
        assert_eq!(p.validate(0.05), Ok(()));

        // Bad backpressure knobs.
        p.backpressure.tokens_per_sec = -1.0;
        assert_eq!(knob(p.validate(0.0)), "backpressure tokens_per_sec");
        p.backpressure.tokens_per_sec = 100.0;
        p.backpressure.burst = 0.0;
        assert_eq!(knob(p.validate(0.0)), "backpressure burst");
        p.backpressure.burst = 8.0;
        assert_eq!(p.validate(0.0), Ok(()));

        // Batch overhead fraction outside (0, 1].
        p.batch.max_ops = 1;
        assert!(!p.batch.enabled());
        p.batch.max_ops = 8;
        for bad in [0.0, 1.5, f64::NAN] {
            p.batch.overhead_fraction = bad;
            assert_eq!(knob(p.validate(0.0)), "batch overhead_fraction", "{bad}");
        }
        p.batch.overhead_fraction = 0.25;
        assert_eq!(p.validate(0.0), Ok(()));
    }

    #[test]
    fn overload_cross_check_through_simulation_config() {
        let mut s = SimulationConfig::new(PolicyKind::das(), 5.0);
        s.faults.retry.deadline_secs = 0.5;
        s.overload.admission.deadline_secs = 0.1;
        assert!(matches!(
            s.validate(),
            Err(ConfigError::BudgetExceedsDeadline { .. })
        ));
        s.faults.retry.deadline_secs = 0.05;
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn backoff_schedule_is_exponential() {
        assert!((RetryConfig::backoff_secs(2) - 5e-4).abs() < 1e-15);
        assert!((RetryConfig::backoff_secs(3) - 1e-3).abs() < 1e-15);
        assert!((RetryConfig::backoff_secs(4) - 2e-3).abs() < 1e-15);
    }

    #[test]
    fn json_with_the_dropped_knobs_still_loads() {
        // Configs written while `backoff_base_secs`, `backoff_multiplier`
        // and `tiny_op_bytes` were fields (every committed chaos case and
        // `results/ci/replay_smoke.config.json`) parse to exactly what the
        // same JSON without them parses to.
        let mut s = SimulationConfig::new(PolicyKind::das(), 5.0);
        s.faults.retry.deadline_secs = 0.05;
        s.overload.batch.max_ops = 4;
        let json = serde_json::to_string(&s).unwrap();
        let old = json
            .replace(
                "\"max_attempts\":3,",
                "\"max_attempts\":3,\"backoff_base_secs\":0.0005,\"backoff_multiplier\":2,",
            )
            .replace("\"max_ops\":4,", "\"max_ops\":4,\"tiny_op_bytes\":4096,");
        assert_eq!(old.matches("backoff_").count(), 2, "{json}");
        assert!(old.contains("tiny_op_bytes"), "{json}");
        let new: SimulationConfig = serde_json::from_str(&json).unwrap();
        let back: SimulationConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(back, new);
        assert_eq!(back, s);
    }
}
