//! # das-core — public API of the DAS reproduction
//!
//! Reproduction of *"Cutting the Request Completion Time in Key-value
//! Stores with Distributed Adaptive Scheduler"* (ICDCS 2021).
//!
//! ## The problem
//!
//! A multi-get request fans out into operations on several servers and
//! completes only when its **last** operation completes. Choosing the order
//! in which each server drains its queue is a *concurrent open shop*
//! problem: minimizing mean request completion time (RCT) is NP-hard, so
//! practical systems need heuristics — and distributed ones, because
//! centralized schedulers cost too much coordination.
//!
//! ## The system
//!
//! [`das_sched::das::Das`] ranks every queued operation by its request's
//! estimated remaining completion time (SRPT-first across requests,
//! LRPT-last within one), built from piggybacked load/rate reports and
//! progress hints — adaptive to time-varying load and server performance.
//! This crate wires that scheduler (and all baselines) into the simulated
//! cluster and exposes experiment orchestration:
//!
//! * [`experiment`] — run one workload against many policies, every policy
//!   fed from the same materialised requests; compare in uniform tables;
//! * [`scenarios`] — the calibrated base scenario every figure varies;
//! * [`load`] — translate between arrival rates and per-server load ρ;
//! * [`adapter`] — resolve a workload trace into engine requests;
//! * [`chaos`] — replay bridge for chaos-search reproducer artifacts;
//! * [`report`] — Markdown rendering for EXPERIMENTS.md.
//!
//! ## Quickstart
//!
//! ```
//! use das_core::prelude::*;
//!
//! // Compare FCFS and DAS at 60% load on a small cluster.
//! let mut experiment = scenarios::base_experiment("demo", 0.6);
//! experiment.cluster.servers = 8;
//! experiment.workload = scenarios::base_workload(0.6, &experiment.cluster);
//! experiment.horizon_secs = 0.5;
//! experiment.warmup_secs = 0.05;
//! experiment.policies = vec![PolicyKind::Fcfs, PolicyKind::das()];
//! let result = experiment.run().unwrap();
//! assert!(result.mean_rct("DAS").unwrap() > 0.0);
//! println!("{}", das_core::report::render_experiment(&result));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Test code asserts on exact deterministic outputs and unwraps freely;
// the machine-checked rules apply to shipped library paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
#![warn(missing_debug_implementations)]

pub mod adapter;
pub mod chaos;
pub mod experiment;
pub mod load;
pub mod report;
pub mod scenarios;

pub use experiment::{ExperimentConfig, ExperimentResult, PolicySummary};

/// Frequently used items across this workspace, re-exported.
pub mod prelude {
    pub use crate::experiment::{ExperimentConfig, ExperimentResult, PolicySummary};
    pub use crate::load::{arrival_rate_for_load, offered_load};
    pub use crate::scenarios;
    pub use das_sched::das::DasConfig;
    pub use das_sched::policy::PolicyKind;
    pub use das_sim::rng::SeedFactory;
    pub use das_sim::time::{SimDuration, SimTime};
    pub use das_store::config::{ClusterConfig, PerfEvent, SimulationConfig};
    pub use das_store::engine::{run_simulation, KeyRead, RunResult, StoreRequest};
    pub use das_workload::generator::{WorkloadGenerator, WorkloadSpec};
}
