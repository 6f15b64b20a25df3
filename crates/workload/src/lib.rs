//! # das-workload — workload generation substrate
//!
//! Synthetic multi-get workloads standing in for the production traces the
//! paper's simulator consumed (see DESIGN.md, "Substitutions"):
//!
//! * [`spec`] — declarative serde configs for arrivals (Poisson / MMPP /
//!   time-varying schedules), fan-outs, value sizes (including the
//!   heavy-tailed ETC shape), and key popularity;
//! * [`keyspace`] — a fixed key population with stable per-key sizes;
//! * [`generator`] — the deterministic request stream;
//! * [`presets`] — named workload shapes from published KV-store studies;
//! * [`scenarios`] — arrival curves and committed traces of the scenario
//!   regression corpus;
//! * [`trace`] — JSON-lines record/replay.
//!
//! ```
//! use das_workload::generator::{WorkloadGenerator, WorkloadSpec};
//! use das_sim::rng::SeedFactory;
//!
//! let mut gen = WorkloadGenerator::new(&WorkloadSpec::example(), &SeedFactory::new(1));
//! let req = gen.next_request().unwrap();
//! assert!(req.fanout() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Test code asserts on exact deterministic outputs and unwraps freely;
// the machine-checked rules apply to shipped library paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]
#![warn(missing_debug_implementations)]

pub mod generator;
pub mod keyspace;
pub mod presets;
pub mod scenarios;
pub mod spec;
pub mod trace;

pub use generator::{RequestSpec, WorkloadGenerator, WorkloadSpec};
pub use keyspace::KeySpace;
pub use presets::WorkloadPreset;
pub use spec::{ArrivalConfig, FanoutConfig, PopularityConfig, SizeConfig, WorkloadError};
