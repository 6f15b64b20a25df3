//! Experiment orchestration: run one workload against a set of policies
//! and compare.

use serde::{Deserialize, Serialize};

use das_metrics::summary::ComparisonTable;
use das_net::accounting::TrafficClass;
use das_sched::policy::PolicyKind;
use das_sim::rng::SeedFactory;
use das_sim::time::SimTime;
use das_store::config::{
    ClusterConfig, ConfigError, FaultProfile, OverloadProfile, SimulationConfig,
};
use das_trace::TraceConfig;
use das_store::engine::{run_simulation, RunResult, StoreRequest};
use das_workload::generator::{RequestSpec, WorkloadGenerator, WorkloadSpec};
use das_workload::spec::WorkloadError;

use crate::adapter::{resolve, trace_to_requests};

/// Why an [`ExperimentConfig`] cannot run: the first invalid knob of its
/// workload, or of the simulation config it builds per policy.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The workload spec is invalid.
    Workload(WorkloadError),
    /// The cluster, a policy, the horizon/warmup/bin, or the fault,
    /// overload or trace profile is invalid.
    Simulation(ConfigError),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Workload(e) => write!(f, "workload: {e}"),
            ExperimentError::Simulation(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// A full experiment: one workload, one cluster, many policies.
///
/// Every policy sees the *identical* requests (one materialised slice), so
/// differences in the results are attributable to scheduling alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Experiment name (used in reports).
    pub name: String,
    /// The workload.
    pub workload: WorkloadSpec,
    /// The cluster.
    pub cluster: ClusterConfig,
    /// Policies to compare.
    pub policies: Vec<PolicyKind>,
    /// Master seed.
    pub seed: u64,
    /// Simulated seconds.
    pub horizon_secs: f64,
    /// Warmup to exclude from statistics, seconds.
    pub warmup_secs: f64,
    /// Bin width for RCT-over-time, seconds (`None` = skip).
    pub rct_timeseries_bin_secs: Option<f64>,
    /// Fault injection and recovery policy (defaults to none).
    #[serde(default)]
    pub faults: FaultProfile,
    /// Overload control: admission, bounded queues, retry budget, and
    /// batching (defaults to all off).
    #[serde(default)]
    pub overload: OverloadProfile,
    /// Structured event tracing, applied to every policy's run (defaults
    /// to off).
    #[serde(default)]
    pub trace: TraceConfig,
}

impl ExperimentConfig {
    /// A standard-policy experiment over `workload` with sensible run
    /// lengths.
    pub fn new(name: impl Into<String>, workload: WorkloadSpec, cluster: ClusterConfig) -> Self {
        ExperimentConfig {
            name: name.into(),
            workload,
            cluster,
            policies: PolicyKind::standard_set(),
            seed: 42,
            horizon_secs: 10.0,
            warmup_secs: 1.0,
            rct_timeseries_bin_secs: None,
            faults: FaultProfile::none(),
            overload: OverloadProfile::none(),
            trace: TraceConfig::default(),
        }
    }

    /// The per-policy simulation config: everything from the experiment
    /// except the request source.
    pub fn sim_config(&self, policy: PolicyKind) -> SimulationConfig {
        SimulationConfig {
            cluster: self.cluster.clone(),
            policy,
            seed: self.seed,
            horizon_secs: self.horizon_secs,
            warmup_secs: self.warmup_secs,
            rct_timeseries_bin_secs: self.rct_timeseries_bin_secs,
            faults: self.faults.clone(),
            overload: self.overload,
            trace: self.trace,
        }
    }

    /// Checks the whole config — workload, cluster, every policy, run
    /// lengths, fault/overload/trace profiles — so that nothing read from
    /// outside reaches a constructor assert. [`ExperimentConfig::run`] and
    /// [`ExperimentConfig::run_trace`] call this first.
    pub fn validate(&self) -> Result<(), ExperimentError> {
        self.workload.validate().map_err(ExperimentError::Workload)?;
        // FCFS has no knobs, so this checks everything the per-policy
        // configs share (even when the policy list is empty).
        self.sim_config(PolicyKind::Fcfs)
            .validate()
            .map_err(ExperimentError::Simulation)?;
        self.policies.iter().try_for_each(|p| {
            p.validate()
                .map_err(|reason| ExperimentError::Simulation(ConfigError::PolicyInvalid { reason }))
        })
    }

    /// Runs every policy over the workload this config generates: the
    /// [`RequestSpec`]s are generated once and resolved once, against the
    /// generator's own key space.
    pub fn run(&self) -> Result<ExperimentResult, String> {
        // Before generating: an invalid workload must surface as an error,
        // not reach a generator assert.
        self.validate().map_err(|e| e.to_string())?;
        let requests = {
            let (generator, specs) = self.generate();
            resolve(&specs, generator.keyspace())
        };
        self.run_requests(&requests)
    }

    /// Runs every policy over a pre-recorded workload trace instead of a
    /// generated one: the arrivals, ids, keys, and write marks come from
    /// `trace` (injected in the pinned `(arrival, id)` order); key *sizes*
    /// are resolved from a key space rebuilt with this config's spec and
    /// seed, which is the key space [`ExperimentConfig::run`] resolves
    /// against. A trace recorded by [`ExperimentConfig::record_workload`]
    /// therefore replays bit-identically to [`ExperimentConfig::run`] under
    /// the same seed — while the policy, cluster, fault, and overload knobs
    /// are free to differ from the recording run.
    pub fn run_trace(&self, trace: &[RequestSpec]) -> Result<ExperimentResult, String> {
        self.validate().map_err(|e| e.to_string())?;
        self.run_requests(&trace_to_requests(
            trace,
            &self.workload,
            &SeedFactory::new(self.seed),
        ))
    }

    /// The one runner: every policy reads the identical resolved requests
    /// from the same slice, which is what makes the comparison paired.
    fn run_requests(&self, requests: &[StoreRequest]) -> Result<ExperimentResult, String> {
        let runs = self
            .policies
            .iter()
            .map(|&policy| run_simulation(&self.sim_config(policy), requests))
            .collect::<Result<_, _>>()?;
        Ok(ExperimentResult {
            name: self.name.clone(),
            runs,
        })
    }

    /// Materializes the exact [`RequestSpec`] stream that
    /// [`ExperimentConfig::run`] feeds each policy — same spec, seed, and
    /// horizon bound — for recording with
    /// [`das_workload::trace::write_trace`]. The generator is
    /// deterministic, so recording is a pure observation: runs with and
    /// without it are bit-identical.
    pub fn record_workload(&self) -> Vec<RequestSpec> {
        self.generate().1
    }

    /// Generates this config's workload up to the horizon; the generator
    /// comes back too because it owns the key space that sizes the keys.
    fn generate(&self) -> (WorkloadGenerator, Vec<RequestSpec>) {
        let mut generator = WorkloadGenerator::new(&self.workload, &SeedFactory::new(self.seed));
        let specs = generator.take_until(SimTime::from_secs_f64(self.horizon_secs));
        (generator, specs)
    }
}

/// The results of one experiment: one [`RunResult`] per policy.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Experiment name.
    pub name: String,
    /// One entry per configured policy, in configuration order.
    pub runs: Vec<RunResult>,
}

impl ExperimentResult {
    /// The run for `policy` (by display name).
    pub fn run(&self, policy: &str) -> Option<&RunResult> {
        self.runs.iter().find(|r| r.policy == policy)
    }

    /// Mean RCT of `policy` in seconds.
    pub fn mean_rct(&self, policy: &str) -> Option<f64> {
        self.run(policy).map(|r| r.mean_rct())
    }

    /// Percentage reduction of `policy`'s mean RCT vs `baseline`
    /// (positive = improvement).
    pub fn reduction_vs(&self, policy: &str, baseline: &str) -> Option<f64> {
        let p = self.mean_rct(policy)?;
        let b = self.mean_rct(baseline)?;
        (b > 0.0).then(|| (b - p) / b * 100.0)
    }

    /// The standard mean/p50/p95/p99 (+% vs FCFS) comparison table.
    pub fn table(&self) -> ComparisonTable {
        let mut t = ComparisonTable::new(
            &self.name,
            vec![
                "mean (ms)".into(),
                "p50 (ms)".into(),
                "p95 (ms)".into(),
                "p99 (ms)".into(),
                "vs FCFS (%)".into(),
            ],
        );
        let fcfs = self.mean_rct("FCFS");
        for r in &self.runs {
            let vs = match fcfs {
                Some(b) if b > 0.0 => (r.mean_rct() - b) / b * 100.0,
                _ => 0.0,
            };
            t.push_row(
                r.policy.clone(),
                vec![
                    r.mean_rct() * 1e3,
                    r.rct.p50() * 1e3,
                    r.rct.p95() * 1e3,
                    r.rct.p99() * 1e3,
                    vs,
                ],
            );
        }
        t
    }
}

/// A compact, serializable per-policy summary for persisting experiment
/// outputs (EXPERIMENTS.md data, bench JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySummary {
    /// Policy display name.
    pub policy: String,
    /// Requests measured.
    pub measured: u64,
    /// Mean RCT, seconds.
    pub mean_rct: f64,
    /// Median RCT, seconds.
    pub p50_rct: f64,
    /// p99 RCT, seconds.
    pub p99_rct: f64,
    /// p99.9 RCT, seconds.
    pub p999_rct: f64,
    /// p99.9 slowdown (starvation indicator).
    pub p999_slowdown: f64,
    /// Scheduling overhead bytes per measured request.
    pub overhead_bytes_per_request: f64,
    /// Hint messages per measured request.
    pub hints_per_request: f64,
    /// Mean server utilization.
    pub mean_utilization: f64,
    /// Zero-queueing lower bound on mean RCT, seconds.
    pub lower_bound_mean_rct: f64,
    /// Requests aborted after exhausting retries (0 in fault-free runs).
    #[serde(default)]
    pub aborted: u64,
    /// Per-op deadline expiries.
    #[serde(default)]
    pub timeouts: u64,
    /// Retry dispatches.
    #[serde(default)]
    pub retries: u64,
    /// Hedge dispatches.
    #[serde(default)]
    pub hedges: u64,
    /// Fraction of accepted requests that completed (1.0 when fault-free).
    #[serde(default = "default_availability")]
    pub availability: f64,
    /// Fraction of service time spent on work that was thrown away.
    #[serde(default)]
    pub wasted_work_fraction: f64,
    /// Requests shed by deadline-aware admission (never dispatched).
    #[serde(default)]
    pub shed_admission: u64,
    /// Requests shed at a full server queue.
    #[serde(default)]
    pub shed_queue: u64,
    /// Shed requests / offered requests, in `[0, 1]`.
    #[serde(default)]
    pub shed_fraction: f64,
    /// Retry dispatches denied by the backpressure token budget.
    #[serde(default)]
    pub retries_denied: u64,
    /// Hedge dispatches denied by the backpressure token budget.
    #[serde(default)]
    pub hedges_denied: u64,
    /// Coalesced batch visits (0 when batching is off).
    #[serde(default)]
    pub batches: u64,
    /// Mean ops per coalesced visit (0.0 when no batch formed).
    #[serde(default)]
    pub mean_batch_size: f64,
}

fn default_availability() -> f64 {
    1.0
}

impl PolicySummary {
    /// Summarizes a run.
    pub fn from_run(run: &RunResult) -> Self {
        let per_req = |v: u64| {
            if run.measured == 0 {
                0.0
            } else {
                v as f64 / run.measured as f64
            }
        };
        PolicySummary {
            policy: run.policy.clone(),
            measured: run.measured,
            mean_rct: run.mean_rct(),
            p50_rct: run.rct.p50(),
            p99_rct: run.rct.p99(),
            p999_rct: run.rct.p999(),
            p999_slowdown: run.slowdown.overall_p999(),
            overhead_bytes_per_request: per_req(run.traffic.overhead_bytes()),
            hints_per_request: per_req(run.traffic.messages(TrafficClass::ProgressHint)),
            mean_utilization: run.mean_utilization,
            lower_bound_mean_rct: run.lower_bound_mean_rct,
            aborted: run.recovery.aborted,
            timeouts: run.recovery.timeouts,
            retries: run.recovery.retries,
            hedges: run.recovery.hedges,
            availability: run.recovery.availability(),
            wasted_work_fraction: run.recovery.wasted_fraction(),
            shed_admission: run.recovery.shed_admission,
            shed_queue: run.recovery.shed_queue,
            shed_fraction: run.recovery.shed_fraction(),
            retries_denied: run.recovery.retries_denied,
            hedges_denied: run.recovery.hedges_denied,
            batches: run.recovery.batching.batches,
            mean_batch_size: if run.recovery.batching.batches == 0 {
                0.0
            } else {
                run.recovery.batching.mean_batch_size()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_workload::spec::{ArrivalConfig, FanoutConfig, PopularityConfig, SizeConfig};

    fn quick_experiment() -> ExperimentConfig {
        let cluster = ClusterConfig {
            servers: 8,
            ..Default::default()
        };
        let workload = WorkloadSpec {
            n_keys: 10_000,
            arrival: ArrivalConfig::Poisson { rate: 2000.0 },
            fanout: FanoutConfig::Uniform { min: 1, max: 8 },
            sizes: SizeConfig::Fixed { bytes: 20_000 },
            popularity: PopularityConfig::Uniform,
            hot_key_size_cap: None,
            write_fraction: 0.0,
        };
        let mut e = ExperimentConfig::new("quick", workload, cluster);
        e.horizon_secs = 1.0;
        e.warmup_secs = 0.1;
        e
    }

    #[test]
    fn runs_all_policies_on_identical_streams() {
        let e = quick_experiment();
        let result = e.run().unwrap();
        assert_eq!(result.runs.len(), PolicyKind::standard_set().len());
        // Paired streams: every policy saw the same number of requests.
        let counts: Vec<u64> = result.runs.iter().map(|r| r.completed).collect();
        assert!(counts.iter().all(|&c| c == counts[0] && c > 0));
    }

    #[test]
    fn table_has_all_rows() {
        let e = quick_experiment();
        let result = e.run().unwrap();
        let t = result.table();
        assert_eq!(t.rows().len(), result.runs.len());
        assert!(t.value("FCFS", "mean (ms)").unwrap() > 0.0);
        assert!(t.value("DAS", "vs FCFS (%)").is_some());
    }

    #[test]
    fn reduction_helpers() {
        let e = quick_experiment();
        let result = e.run().unwrap();
        let red = result.reduction_vs("DAS", "FCFS").unwrap();
        assert!(red.is_finite());
        assert!(result.reduction_vs("nope", "FCFS").is_none());
        assert!(result.mean_rct("DAS").unwrap() > 0.0);
    }

    #[test]
    fn summary_serializes() {
        let e = quick_experiment();
        let result = e.run().unwrap();
        let s = PolicySummary::from_run(&result.runs[0]);
        let json = serde_json::to_string(&s).unwrap();
        let back: PolicySummary = serde_json::from_str(&json).unwrap();
        // JSON prints shortest-roundtrip decimals; compare with tolerance.
        assert_eq!(s.policy, back.policy);
        assert_eq!(s.measured, back.measured);
        assert!((s.mean_rct - back.mean_rct).abs() < 1e-12);
        assert!((s.p99_rct - back.p99_rct).abs() < 1e-12);
        assert!(s.mean_rct >= s.lower_bound_mean_rct * 0.99);
    }

    /// Walks every engine stage: crashes + retries, hedging, the
    /// controlled overload knobs, and tracing.
    fn every_stage_experiment() -> ExperimentConfig {
        let mut e = crate::scenarios::fault_injection_experiment(0.7, 0.1);
        e.horizon_secs = 0.4;
        e.warmup_secs = 0.04;
        for (i, crash) in e.faults.crashes.crashes.iter_mut().enumerate() {
            crash.down_secs = 0.1 + 0.04 * i as f64;
            crash.up_secs = crash.down_secs + 0.06;
        }
        e.faults.hedge.quantile = 0.95;
        e.faults.hedge.min_delay_secs = 1e-4;
        e.overload = crate::scenarios::overload_experiment(0.7, true).overload;
        e.trace = TraceConfig::enabled();
        e.policies = vec![PolicyKind::Fcfs, PolicyKind::ReinSbf, PolicyKind::das()];
        e
    }

    fn jsonl(run: &RunResult) -> Vec<u8> {
        let mut buf = Vec::new();
        das_trace::export::write_jsonl(run.trace.as_ref().unwrap(), &mut buf).unwrap();
        buf
    }

    #[test]
    fn generated_replayed_and_direct_runs_are_one_run() {
        let e = every_stage_experiment();
        let trace = e.record_workload();
        das_workload::trace::validate_trace(&trace).unwrap();
        let generated = e.run().unwrap();
        let replayed = e.run_trace(&trace).unwrap();
        let requests = trace_to_requests(&trace, &e.workload, &SeedFactory::new(e.seed));
        for (i, &policy) in e.policies.iter().enumerate() {
            let direct = run_simulation(&e.sim_config(policy), requests.clone()).unwrap();
            let summary = PolicySummary::from_run(&direct);
            // The config really does reach the recovery and overload stages.
            assert!(summary.retries > 0 && summary.hedges > 0, "{summary:?}");
            assert!(
                summary.hedges_denied > 0 && summary.batches > 0,
                "{summary:?}"
            );
            let log = jsonl(&direct);
            for other in [&generated.runs[i], &replayed.runs[i]] {
                assert_eq!(PolicySummary::from_run(other), summary);
                assert!(jsonl(other) == log, "{policy:?}: event logs differ");
            }
        }
    }

    #[test]
    fn config_serde_roundtrip() {
        let e = quick_experiment();
        let json = serde_json::to_string(&e).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn validate_composes_workload_and_simulation_checks() {
        let ok = quick_experiment();
        assert_eq!(ok.validate(), Ok(()));
        let rejected = |edit: &dyn Fn(&mut ExperimentConfig)| {
            let mut e = ok.clone();
            edit(&mut e);
            // `run` and `run_trace` refuse what `validate` refuses.
            let message = e.validate().unwrap_err().to_string();
            assert_eq!(e.run().unwrap_err(), message);
            assert_eq!(e.run_trace(&[]).unwrap_err(), message);
            message
        };
        assert_eq!(
            rejected(&|e| e.workload.n_keys = 0),
            "workload: n_keys must be >= 1"
        );
        assert_eq!(
            rejected(&|e| e.rct_timeseries_bin_secs = Some(0.0)),
            "rct_timeseries_bin_secs must be finite and positive, got 0"
        );
        assert_eq!(
            rejected(&|e| {
                e.policies.push(PolicyKind::Das {
                    config: das_sched::das::DasConfig {
                        aging: -1.0,
                        ..Default::default()
                    },
                })
            }),
            "policy: das aging must be finite and >= 0, got -1"
        );
        // The shared knobs are checked even with no policy to run.
        assert_eq!(
            rejected(&|e| {
                e.policies.clear();
                e.cluster.servers = 0;
            }),
            "servers must be >= 1, got 0"
        );
    }
}
