//! # das-bench — the benchmark harness
//!
//! Regenerates every figure and table of the evaluation (see DESIGN.md's
//! experiment index) through one binary over the [`figures::FIGURES`]
//! registry: `das_bench list` prints the ids, `das_bench <id>...` runs the
//! named figures, and `das_bench all` runs the whole suite; each figure is
//! printed as Markdown and persisted as Markdown + JSON under `results/`
//! (`all` adds `ALL.md`).
//!
//! Environment:
//! * `DAS_QUICK=1` — sparse sweeps and short horizons (smoke testing);
//! * `DAS_RESULTS_DIR` — where to persist outputs (default `./results`).
//!
//! Per-decision scheduler cost, simulator throughput and generator
//! throughput are measured by the repo's benchmark, `das_perf` (see
//! `perf/README.md`): `das_perf run --workload all --trace 1` reports the
//! `sched.pair_ns.*`, `sched.hint_ns.*`, `store.run_ns_per_event.*` and
//! `workload.gen_ns_per_req` metrics that feed Table 3's CPU-cost column.

// Test code asserts on exact deterministic outputs and unwraps freely;
// the machine-checked rules apply to shipped library paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

pub mod figures;
pub mod output;
