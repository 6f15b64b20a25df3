//! A self-contained chaos case: everything one adversarial run needs.
//!
//! A [`ChaosCase`] pins the cluster, the fault and overload profiles, the
//! run seed, *and the materialized request trace*, so the case is closed
//! under shrinking (trimming the trace cannot drift the workload) and
//! serializes to a self-contained replayable artifact. Running a case
//! always runs the **pair** — FCFS and DAS over the identical request
//! stream — because the regression oracle and the mutation bias both need
//! the paired view.

use serde::{Deserialize, Serialize};

use das_sched::policy::PolicyKind;
use das_sim::rng::SeedFactory;
use das_store::config::{ClusterConfig, FaultProfile, OverloadProfile, SimulationConfig};
use das_store::engine::{run_simulation, KeyRead, RunResult, StoreRequest};
use das_trace::TraceConfig;
use das_workload::generator::{RequestSpec, WorkloadSpec};
use das_workload::keyspace::KeySpace;

/// One generated chaos configuration, closed under shrinking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCase {
    /// Case label (search index, mutation lineage).
    pub name: String,
    /// Master seed of the simulated run (engine, network, key sizes).
    pub seed: u64,
    /// Simulated run length, seconds.
    pub horizon_secs: f64,
    /// Warmup excluded from statistics, seconds.
    pub warmup_secs: f64,
    /// The cluster under test (including gray-failure perf events).
    pub cluster: ClusterConfig,
    /// The workload spec the trace was materialized from; key *sizes* are
    /// resolved from a key space rebuilt with this spec and [`Self::seed`],
    /// exactly as `das_core::ExperimentConfig::run_trace` resolves them.
    pub workload: WorkloadSpec,
    /// Crash windows, link faults, and the recovery policy.
    pub faults: FaultProfile,
    /// Admission, backpressure, and batching knobs.
    pub overload: OverloadProfile,
    /// The materialized request trace both policies replay.
    pub trace: Vec<RequestSpec>,
}

/// The paired run every oracle sees: FCFS and DAS over the same trace.
#[derive(Debug)]
pub struct PairedRun {
    /// The FCFS baseline run.
    pub fcfs: RunResult,
    /// The DAS run.
    pub das: RunResult,
}

impl PairedRun {
    /// DAS mean RCT over FCFS mean RCT, when both are measurable.
    /// Above 1.0 means DAS *lost* the pairing.
    pub fn ratio(&self) -> Option<f64> {
        let (f, d) = (self.fcfs.mean_rct(), self.das.mean_rct());
        (self.fcfs.measured > 0 && self.das.measured > 0 && f > 0.0).then(|| d / f)
    }
}

impl ChaosCase {
    /// The per-policy simulation config. Tracing is always on: every
    /// oracle reads the event log, and tracing is non-perturbing by
    /// construction (bit-identical results with it off).
    pub fn sim_config(&self, policy: PolicyKind) -> SimulationConfig {
        SimulationConfig {
            cluster: self.cluster.clone(),
            policy,
            seed: self.seed,
            horizon_secs: self.horizon_secs,
            warmup_secs: self.warmup_secs,
            rct_timeseries_bin_secs: None,
            faults: self.faults.clone(),
            overload: self.overload,
            trace: TraceConfig::enabled(),
        }
    }

    /// Validates the case: workload and config invariants plus trace
    /// well-formedness.
    pub fn validate(&self) -> Result<(), String> {
        self.workload.validate().map_err(|e| e.to_string())?;
        self.sim_config(PolicyKind::Fcfs)
            .validate()
            .map_err(|e| e.to_string())?;
        das_workload::trace::validate_trace(&self.trace).map_err(|e| e.to_string())
    }

    /// Resolves the pinned trace into store requests, byte-compatible with
    /// `das_core::adapter::trace_to_requests` (same key space, same pinned
    /// `(arrival, id)` injection order) — the equivalence the core crate's
    /// tests pin, so a committed reproducer replays to the same verdict
    /// through `das_experiment replay`.
    pub fn requests(&self) -> Vec<StoreRequest> {
        let seeds = SeedFactory::new(self.seed);
        let spec = &self.workload;
        let ks = KeySpace::with_hot_key_cap(
            spec.n_keys,
            &spec.sizes,
            &spec.popularity,
            spec.hot_key_size_cap,
            &seeds,
        );
        let mut ordered: Vec<&RequestSpec> = self.trace.iter().collect();
        ordered.sort_by_key(|r| (r.arrival, r.id));
        ordered
            .iter()
            .map(|r| StoreRequest {
                id: r.id,
                arrival: r.arrival,
                reads: r
                    .keys
                    .iter()
                    .map(|&key| KeyRead {
                        key,
                        bytes: ks.size_of(key),
                        write: r.write_keys.contains(&key),
                    })
                    .collect(),
            })
            .collect()
    }

    /// Runs one policy over the pinned trace.
    pub fn run_policy(&self, policy: PolicyKind) -> Result<RunResult, String> {
        run_simulation(&self.sim_config(policy), self.requests())
    }

    /// Runs the FCFS/DAS pair over the identical request stream, resolved
    /// once.
    pub fn run_paired(&self) -> Result<PairedRun, String> {
        let requests = self.requests();
        Ok(PairedRun {
            fcfs: run_simulation(&self.sim_config(PolicyKind::Fcfs), requests.clone())?,
            das: run_simulation(&self.sim_config(PolicyKind::das()), requests)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;

    #[test]
    fn paired_runs_share_the_request_stream() {
        let space = SearchSpace::default();
        let case = space.generate(&SeedFactory::new(7), 0).unwrap();
        assert!(case.validate().is_ok());
        let p = case.run_paired().unwrap();
        // Same offered requests on both sides of the pair.
        assert_eq!(p.fcfs.recovery.offered(), p.das.recovery.offered());
        assert!(p.fcfs.completed > 0);
        assert!(p.ratio().unwrap() > 0.0);
    }

    #[test]
    fn case_serde_roundtrip() {
        let space = SearchSpace::default();
        let case = space.generate(&SeedFactory::new(9), 3).unwrap();
        let json = serde_json::to_string(&case).unwrap();
        let back: ChaosCase = serde_json::from_str(&json).unwrap();
        assert_eq!(case, back);
    }

    #[test]
    fn runs_are_deterministic() {
        let space = SearchSpace::default();
        let case = space.generate(&SeedFactory::new(11), 1).unwrap();
        let a = case.run_paired().unwrap();
        let b = case.run_paired().unwrap();
        assert_eq!(a.fcfs.mean_rct().to_bits(), b.fcfs.mean_rct().to_bits());
        assert_eq!(a.das.events_processed, b.das.events_processed);
    }
}
