//! # das-store — simulated distributed key-value store
//!
//! The substrate the schedulers run on: a partitioned cluster of storage
//! servers, a coordinator that splits multi-get requests into per-server
//! operations, and the discrete-event engine that simulates the whole
//! system deterministically.
//!
//! * [`partition`] — hash / consistent-hash / range key placement with
//!   replication;
//! * [`server`] — scheduler-fronted service stations with time-varying
//!   performance;
//! * [`coordinator`] — piggyback-driven load and rate estimates, in-flight
//!   request tracking;
//! * [`config`] — serde cluster + run configuration (including scheduled
//!   server slowdowns for the adaptivity experiments);
//! * [`engine`] — [`engine::run_simulation`], producing a
//!   [`engine::RunResult`] with RCT distributions, slowdown classes,
//!   traffic accounting, and utilization. `engine/mod.rs` is the clean
//!   dispatch → queue → serve → reply core; `engine/recovery.rs`
//!   (crashes, link faults, retries, hedges) and `engine/overload.rs`
//!   (admission, bounded queues, retry budget, batching) are stages that
//!   exist only when [`config::FaultProfile::is_active`] /
//!   [`config::OverloadProfile::is_active`] say so, and a run with both
//!   off executes nothing outside `mod.rs`.
//!
//! ```
//! use das_store::config::SimulationConfig;
//! use das_store::engine::{run_simulation, KeyRead, StoreRequest};
//! use das_sched::policy::PolicyKind;
//! use das_sim::time::SimTime;
//!
//! let mut cfg = SimulationConfig::new(PolicyKind::das(), 1.0);
//! cfg.cluster.servers = 4;
//! cfg.warmup_secs = 0.0;
//! let reqs = (0..100u64).map(|i| StoreRequest {
//!     id: i,
//!     arrival: SimTime::from_micros(i * 200),
//!     reads: vec![KeyRead::read(i, 1024)],
//! });
//! let result = run_simulation(&cfg, reqs).unwrap();
//! assert_eq!(result.completed, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Test code asserts on exact deterministic outputs and unwraps freely;
// the machine-checked rules apply to shipped library paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod coordinator;
pub mod engine;
pub mod partition;
pub mod server;
mod table;

pub use config::{ClusterConfig, OverloadProfile, PerfEvent, SimulationConfig};
pub use engine::{run_simulation, KeyRead, RunResult, StoreRequest};
pub use partition::{Partitioner, PartitionerConfig};
