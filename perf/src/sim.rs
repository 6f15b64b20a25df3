//! The three simulator workloads: their inputs, one pass over an input,
//! and the checks every pass runs.
//!
//! A pass runs FCFS, Rein-SBF and DAS once each over the same
//! pre-materialised `Vec<StoreRequest>`. Host time is wall time of the
//! calls; RCTs are simulated time and repeat exactly for a seed.

use std::time::Instant;

use das_core::adapter::trace_to_requests;
use das_core::experiment::ExperimentConfig;
use das_core::scenarios;
use das_net::accounting::TrafficClass;
use das_sched::policy::PolicyKind;
use das_sim::rng::SeedFactory;
use das_store::config::SimulationConfig;
use das_store::engine::{run_simulation, RunResult, StoreRequest};
use das_trace::telemetry::TelemetryConfig;
use das_trace::{TraceConfig, TraceLog};

use crate::alloc;
use crate::span::Tracer;

/// Divides every size of a workload: 1 for a real run, 20 for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub u32);

impl Scale {
    pub const FULL: Scale = Scale(1);
    pub const SMOKE: Scale = Scale(20);

    pub fn is_smoke(self) -> bool {
        self.0 > 1
    }

    /// `n` scaled down, never below `floor`.
    pub fn count(self, n: usize, floor: usize) -> usize {
        (n / self.0 as usize).max(floor)
    }

    fn secs(self, s: f64) -> f64 {
        s / f64::from(self.0)
    }
}

/// The three policies of a pass, with the labels metric names use.
pub fn policies() -> [(&'static str, PolicyKind); 3] {
    [
        ("fcfs", PolicyKind::Fcfs),
        ("rein", PolicyKind::ReinSbf),
        ("das", PolicyKind::das()),
    ]
}

/// Which simulator input to build. `Probe` is not a workload: it is the
/// small base-cluster input the sim-fed layer drivers run on when the
/// workload itself (`rt_closed`) has no simulator input of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    Wide,
    Backlog,
    FaultsTraced,
    Probe,
}

/// Ring capacity for every traced run here: large enough that nothing is
/// ever evicted (checked: `TraceLog::dropped == 0`).
pub const TRACE_CAPACITY: usize = 32 << 20;

/// The experiment behind `kind`. Sizes were chosen on a 2-core 2.1 GHz
/// box so that one pass takes 3 to 4 s; see `perf/README.md`.
pub fn experiment(kind: SimKind, seed: u64, scale: Scale) -> ExperimentConfig {
    let mut e = match kind {
        // 1024 servers at rho 0.7: per-server queues stay shallow, the
        // event heap and the coordinator's per-server tables are large.
        SimKind::Wide => {
            let mut e = scenarios::cluster_size_experiment(0.7, 1024, scale.secs(0.12));
            // The base 100 k keys put ~98 Pareto-sized keys on each of the
            // 1024 servers, and whichever server draws the heaviest ones
            // saturates: the RCTs then say more about the seed than about
            // the policy (p99 moves 14 % from seed to seed). With 1 M keys
            // a seed changes the sample, not the shape (2.6 %).
            e.workload.n_keys = scale.count(1_000_000, 10_000);
            e
        }
        // 50 servers, a 4x step surge: queues thousands deep, so the DAS
        // pass is mostly `Das::select`.
        SimKind::Backlog => {
            let cluster = scenarios::base_cluster();
            let mut workload = scenarios::base_workload(1.0, &cluster);
            let unit_rate = workload
                .arrival
                .average_rate()
                .expect("the base workload is Poisson");
            workload.arrival = das_workload::scenarios::flash_crowd_arrival(
                0.6 * unit_rate,
                4.0,
                scale.secs(0.1),
                scale.secs(0.27),
            );
            let mut e = ExperimentConfig::new("sim_backlog", workload, cluster);
            e.horizon_secs = scale.secs(1.2);
            e.warmup_secs = 0.0;
            e
        }
        // Crashes + retries + hedging + overload control + event tracing:
        // the engine's other paths, then the whole observability pipeline.
        SimKind::FaultsTraced => {
            let mut e = scenarios::fault_injection_experiment(0.7, 0.1);
            let h = scale.secs(1.5);
            e.horizon_secs = h;
            e.warmup_secs = 0.1 * h;
            // The scenario staggers its crash windows over its own
            // horizon; re-stagger them over ours with the same formula.
            let n = e.faults.crashes.crashes.len();
            for (i, crash) in e.faults.crashes.crashes.iter_mut().enumerate() {
                let start = h * (0.25 + 0.5 * i as f64 / n as f64);
                crash.down_secs = start;
                crash.up_secs = start + 0.15 * h;
            }
            e.faults.hedge.quantile = 0.95;
            e.faults.hedge.min_delay_secs = 1e-4;
            e.overload = scenarios::overload_experiment(0.7, true).overload;
            // With the scenarios' own budget (2000 tokens/s shared with
            // hedges, 4 attempts) about fifty requests abort per run: an op
            // that coalesced two keys onto a crashed server has no other
            // replica holding both, and fails fast. The benchmark contract
            // wants workloads on which nothing fails, so the budget covers
            // the hedge rate and a crash's burst, and the attempts outlast a
            // crash window
            // (backoff 0.5 ms doubling: the 10th attempt is 255 ms out, the
            // window is 225 ms). Those requests then wait for the recovery.
            e.overload.backpressure.tokens_per_sec = 20_000.0;
            e.overload.backpressure.burst = 4096.0;
            e.faults.retry.max_attempts = 12;
            e.trace = TraceConfig {
                enabled: true,
                sample: 0.1,
                capacity: TRACE_CAPACITY,
            };
            e
        }
        SimKind::Probe => {
            let mut e = scenarios::base_experiment("probe", 0.7);
            e.horizon_secs = scale.secs(0.3).max(0.05);
            e.warmup_secs = 0.1 * e.horizon_secs;
            e
        }
    };
    e.seed = seed;
    e.policies = policies().iter().map(|&(_, p)| p).collect();
    e
}

/// `ExperimentConfig`'s per-policy simulation config (its own builder is
/// private to `das-core`).
pub fn sim_config(
    e: &ExperimentConfig,
    policy: PolicyKind,
    trace: TraceConfig,
) -> SimulationConfig {
    SimulationConfig {
        cluster: e.cluster.clone(),
        policy,
        seed: e.seed,
        horizon_secs: e.horizon_secs,
        warmup_secs: e.warmup_secs,
        rct_timeseries_bin_secs: e.rct_timeseries_bin_secs,
        faults: e.faults.clone(),
        trace,
        overload: e.overload,
    }
}

/// A materialised simulator input.
pub struct SimInput {
    pub experiment: ExperimentConfig,
    pub requests: Vec<StoreRequest>,
}

/// Everything before the first pass: build and validate the config, record
/// the workload, resolve it into store requests.
pub fn setup(
    kind: SimKind,
    seed: u64,
    scale: Scale,
    tracer: &mut Tracer,
) -> Result<SimInput, String> {
    let experiment = tracer.span("core.scenario", |_| experiment(kind, seed, scale));
    tracer.span("store.validate", |_| {
        policies().iter().try_for_each(|&(_, policy)| {
            sim_config(&experiment, policy, experiment.trace)
                .validate()
                .map_err(|e| e.to_string())
        })
    })?;
    let recorded = tracer.span("core.record_workload", |_| experiment.record_workload());
    let requests = tracer.span("core.trace_to_requests", |_| {
        trace_to_requests(
            &recorded,
            &experiment.workload,
            &SeedFactory::new(experiment.seed),
        )
    });
    if requests.is_empty() {
        return Err("the workload generated no requests".into());
    }
    Ok(SimInput {
        experiment,
        requests,
    })
}

/// What the observability pipeline of one traced policy run produced.
pub struct Pipeline {
    pub jsonl_bytes: usize,
    pub round_trip_equal: bool,
    pub paths: usize,
    pub paths_sum_to_rct: bool,
    pub telemetry_epochs: usize,
}

/// One policy's part of a pass.
pub struct PolicyRun {
    pub label: &'static str,
    pub result: RunResult,
    /// Wall time of `run_simulation` alone.
    pub engine_ns: u64,
    /// Wall time of the whole policy pass (engine + pipeline when traced).
    pub ns: u64,
    pub allocs: u64,
    pub peak_bytes: u64,
    pub pipeline: Option<Pipeline>,
}

/// Runs one policy over `input` with the given trace setting; with
/// `pipeline` the recorded log then goes through the observability
/// pipeline, inside the timed region.
pub fn run_policy(
    input: &SimInput,
    label: &'static str,
    policy: PolicyKind,
    trace: TraceConfig,
    pipeline: bool,
    tracer: &mut Tracer,
) -> Result<PolicyRun, String> {
    let config = sim_config(&input.experiment, policy, trace);
    // The engine consumes its requests; the copy is the harness's cost,
    // so it is made before the clock starts.
    let requests = tracer.span("harness.clone_input", |_| input.requests.clone());
    alloc::reset_peak();
    let allocs = alloc::allocs();
    let start = Instant::now();
    let result = tracer.span("store.run_simulation", |_| {
        run_simulation(&config, requests)
    })?;
    let engine_ns = start.elapsed().as_nanos() as u64;
    let pipeline = match (&result.trace, pipeline) {
        (Some(log), true) => Some(run_pipeline(log, &input.experiment, tracer)?),
        _ => None,
    };
    Ok(PolicyRun {
        label,
        ns: start.elapsed().as_nanos() as u64,
        engine_ns,
        allocs: alloc::allocs() - allocs,
        peak_bytes: alloc::peak_bytes(),
        result,
        pipeline,
    })
}

/// JSONL export, re-import, critical paths and telemetry of one log —
/// what `das_experiment run --trace` followed by `top` does. Every stage
/// runs in a span of its own.
pub fn run_pipeline(
    log: &TraceLog,
    e: &ExperimentConfig,
    tracer: &mut Tracer,
) -> Result<Pipeline, String> {
    let mut jsonl = Vec::new();
    tracer
        .span("trace.write_jsonl", |_| {
            das_trace::export::write_jsonl(log, &mut jsonl)
        })
        .map_err(|e| format!("write_jsonl: {e}"))?;
    let back = tracer
        .span("trace.read_jsonl", |_| {
            das_trace::export::read_jsonl(&jsonl[..])
        })
        .map_err(|e| format!("read_jsonl: {e}"))?;
    let paths = tracer.span("trace.critical_paths", |_| das_trace::critical_paths(&back));
    let telemetry = tracer.span("trace.fold", |_| {
        let cfg = TelemetryConfig {
            workers: e.cluster.workers_per_server,
            ..TelemetryConfig::default()
        };
        das_trace::telemetry::fold(&back, &cfg)
    });
    Ok(tracer.span("harness.checks", |_| Pipeline {
        jsonl_bytes: jsonl.len(),
        // JSONL carries the events only, not the sampling header.
        round_trip_equal: back.events == log.events,
        paths: paths.len(),
        paths_sum_to_rct: paths.iter().all(|p| p.sum_ns() == p.rct_ns),
        telemetry_epochs: telemetry.epochs,
    }))
}

/// The FCFS-vs-DAS blame diff that closes a traced pass.
pub struct DiffOutcome {
    pub matched: u64,
    pub telescopes: bool,
}

pub fn run_diff(
    fcfs: &TraceLog,
    das: &TraceLog,
    tracer: &mut Tracer,
) -> Result<DiffOutcome, String> {
    let diff = tracer
        .span("trace.diff_traces", |_| das_trace::diff_traces(fcfs, das))
        .map_err(|e| format!("diff_traces: {e}"))?;
    let telescopes = tracer.span("harness.checks", |_| {
        let total: i64 = diff.deltas.iter().map(|d| d.rct_delta_ns).sum();
        diff.deltas.iter().all(|d| d.sum_ns() == d.rct_delta_ns)
            && total == diff.sum_rct_b_ns as i64 - diff.sum_rct_a_ns as i64
            && diff.sum_a_ns.iter().sum::<u64>() == diff.sum_rct_a_ns
            && diff.sum_b_ns.iter().sum::<u64>() == diff.sum_rct_b_ns
    });
    Ok(DiffOutcome {
        matched: diff.matched,
        telescopes,
    })
}

/// One pass: the three policies, then the diff when the workload traces.
pub struct SimPass {
    pub runs: Vec<PolicyRun>,
    pub diff: Option<DiffOutcome>,
}

pub fn pass(input: &SimInput, tracer: &mut Tracer) -> Result<SimPass, String> {
    let mut runs = Vec::with_capacity(3);
    for (label, policy) in policies() {
        let trace = input.experiment.trace;
        runs.push(run_policy(
            input,
            label,
            policy,
            trace,
            trace.enabled,
            tracer,
        )?);
    }
    let diff = match (&runs[0].result.trace, &runs[2].result.trace) {
        (Some(fcfs), Some(das)) => Some(run_diff(fcfs, das, tracer)?),
        _ => None,
    };
    Ok(SimPass { runs, diff })
}

/// Every simulated statistic of a run that does not depend on whether
/// tracing was on. Two runs that agree here modelled the same thing.
pub fn fingerprint(r: &RunResult) -> Vec<u64> {
    let mut f = vec![
        r.completed,
        r.measured,
        r.events_processed,
        r.rct.count(),
        r.mean_rct().to_bits(),
        r.rct.p50().to_bits(),
        r.rct.p99().to_bits(),
        r.rct.p999().to_bits(),
        r.mean_utilization.to_bits(),
        r.max_utilization.to_bits(),
        r.lower_bound_mean_rct.to_bits(),
        r.mean_ops_per_request.to_bits(),
        r.recovery.accepted,
        r.recovery.aborted,
        r.recovery.timeouts,
        r.recovery.retries,
        r.recovery.hedges,
        r.recovery.duplicate_responses,
        r.recovery.crash_drops,
        r.recovery.shed_admission,
        r.recovery.shed_queue,
        r.recovery.retries_denied,
        r.recovery.hedges_denied,
        r.recovery.batching.batches,
        r.recovery.wasted_service_secs.to_bits(),
    ];
    for class in TrafficClass::ALL {
        f.push(r.traffic.messages(class));
        f.push(r.traffic.bytes(class));
    }
    f
}

/// FNV-1a over the fingerprints of a pass, policy order fixed.
pub fn digest(runs: &[PolicyRun]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in runs.iter().flat_map(|r| fingerprint(&r.result)) {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The invariants every simulated run must satisfy, as `(name, ok,
/// detail)`; `injected` is the number of requests fed in.
pub fn run_checks(run: &PolicyRun, injected: u64) -> Vec<(String, bool, String)> {
    let r = &run.result;
    let accounted = r.completed + r.recovery.aborted + r.recovery.shed();
    let max_util = r.per_server_utilization.iter().copied().fold(0.0, f64::max);
    let mut checks = vec![
        (
            format!("{}: completed + aborted + shed == injected", run.label),
            accounted == injected,
            format!(
                "{} + {} + {} vs {injected}",
                r.completed,
                r.recovery.aborted,
                r.recovery.shed()
            ),
        ),
        (
            format!("{}: lower bound <= mean RCT", run.label),
            r.lower_bound_mean_rct <= r.mean_rct(),
            format!("{:e} vs {:e}", r.lower_bound_mean_rct, r.mean_rct()),
        ),
        (
            format!("{}: per-server utilization <= 1", run.label),
            max_util <= 1.0 + 1e-9,
            format!("max {max_util}"),
        ),
    ];
    if let Some(log) = &r.trace {
        checks.push((
            format!("{}: TraceLog::dropped == 0", run.label),
            log.dropped == 0,
            format!("dropped {} of capacity {TRACE_CAPACITY}", log.dropped),
        ));
    }
    if let Some(p) = &run.pipeline {
        checks.push((
            format!("{}: read_jsonl(write_jsonl(log)) == log", run.label),
            p.round_trip_equal,
            format!("{} bytes", p.jsonl_bytes),
        ));
        checks.push((
            format!("{}: critical-path segments sum to each RCT", run.label),
            p.paths_sum_to_rct && p.paths > 0,
            format!("{} paths, {} telemetry epochs", p.paths, p.telemetry_epochs),
        ));
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_pass(kind: SimKind) -> (SimInput, SimPass) {
        let mut tracer = Tracer::new(false);
        let input = setup(kind, 42, Scale::SMOKE, &mut tracer).unwrap();
        let pass = pass(&input, &mut tracer).unwrap();
        (input, pass)
    }

    #[test]
    fn digest_is_stable_across_passes_and_sensitive_to_the_seed() {
        let (input, first) = smoke_pass(SimKind::Backlog);
        let mut tracer = Tracer::new(false);
        let second = pass(&input, &mut tracer).unwrap();
        assert_eq!(digest(&first.runs), digest(&second.runs));
        let other = setup(SimKind::Backlog, 7, Scale::SMOKE, &mut tracer).unwrap();
        let third = pass(&other, &mut tracer).unwrap();
        assert_ne!(digest(&first.runs), digest(&third.runs));
    }

    #[test]
    fn every_smoke_pass_satisfies_the_run_checks() {
        for kind in [
            SimKind::Wide,
            SimKind::Backlog,
            SimKind::FaultsTraced,
            SimKind::Probe,
        ] {
            let (input, pass) = smoke_pass(kind);
            for run in &pass.runs {
                for (name, ok, detail) in run_checks(run, input.requests.len() as u64) {
                    assert!(ok, "{kind:?} {name}: {detail}");
                }
            }
            assert_eq!(pass.diff.is_some(), kind == SimKind::FaultsTraced);
            if let Some(diff) = &pass.diff {
                assert!(diff.telescopes && diff.matched > 0);
            }
        }
    }

    #[test]
    fn the_backlog_surge_is_four_times_a_sub_saturation_base() {
        use das_workload::spec::ArrivalConfig;
        let e = experiment(SimKind::Backlog, 42, Scale::FULL);
        let unit = scenarios::base_workload(1.0, &e.cluster)
            .arrival
            .average_rate()
            .unwrap();
        let ArrivalConfig::Schedule { steps, .. } = &e.workload.arrival else {
            panic!("flash crowd is a schedule");
        };
        assert!((steps[0].1 / unit - 0.6).abs() < 1e-12);
        assert!((steps[1].1 / steps[0].1 - 4.0).abs() < 1e-12);
        assert!((steps[2].1 / steps[0].1 - 1.0).abs() < 1e-12);
    }
}
