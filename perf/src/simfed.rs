//! Layer drivers fed with a simulator input's own recorded behaviour.
//!
//! `run_simulation` is one opaque call from outside, so the shares of its
//! layers come from replaying what the run recorded (the program's
//! existing `TraceLog`, at sample 1.0) through the same public functions
//! the engine calls — not from new instrumentation inside it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use das_net::accounting::TrafficClass;
use das_sched::policy::PolicyKind;
use das_sched::scheduler::Scheduler;
use das_sched::types::{HintUpdate, OpId, OpTag, QueuedOp, RequestId};
use das_sim::time::{SimDuration, SimTime};
use das_trace::{DispatchKind, TraceConfig, TraceEvent, TraceLog, TraceRecorder};

use crate::alloc;
use crate::doc::Report;
use crate::sim::{
    fingerprint, policies, run_diff, run_pipeline, run_policy, PolicyRun, SimInput, TRACE_CAPACITY,
};
use crate::span::Tracer;
use crate::stats::{rank_quantile, Summary};

/// One step of a server's recorded queue history.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayStep {
    Enqueue {
        server: u32,
        op: QueuedOp,
        /// Recorded queue length after the enqueue.
        len_after: u32,
    },
    Dequeue {
        server: u32,
        at: SimTime,
        /// Recorded queue length before the removal (`None` for a batch
        /// follower, whose pull the log does not size).
        len_before: Option<u32>,
    },
    Hint {
        server: u32,
        request: RequestId,
        update: HintUpdate,
        at: SimTime,
    },
    /// A crash-stop empties the queue.
    Crash { server: u32 },
}

/// A log's per-server queue history, ready to replay.
pub struct Replay {
    pub steps: Vec<ReplayStep>,
    pub servers: usize,
    /// Queue length seen by every recorded scheduling decision.
    pub depths: Vec<u32>,
    pub requests: u64,
}

/// Rebuilds every server's `OpEnqueue` / `SchedDecision` / `HintArrive`
/// sequence from a sample-1.0 log. Each op's tag is reconstructed from its
/// dispatch record (local estimate; the request's bottleneck demand is the
/// largest first-dispatch estimate among its ops), which is what the
/// coordinator stamped up to estimate noise.
pub fn build_replay(log: &TraceLog) -> Replay {
    struct Request {
        arrival: SimTime,
        fanout: u32,
        demand_ns: u64,
    }
    let mut requests: HashMap<u64, Request> = HashMap::new();
    let mut estimates: HashMap<(u64, u32, u32), u64> = HashMap::new();
    let mut last_decision: HashMap<u32, (u64, u32)> = HashMap::new();
    let mut steps = Vec::new();
    let mut depths = Vec::new();
    let mut servers = 0usize;
    for event in &log.events {
        match *event {
            TraceEvent::RequestArrive {
                t_ns,
                request,
                fanout,
                ..
            } => {
                requests.insert(
                    request,
                    Request {
                        arrival: SimTime::from_nanos(t_ns),
                        fanout,
                        demand_ns: 0,
                    },
                );
            }
            TraceEvent::OpDispatch {
                request,
                op,
                server,
                kind,
                est_ns,
                ..
            } => {
                estimates.insert((request, op, server), est_ns);
                if kind == DispatchKind::First {
                    if let Some(r) = requests.get_mut(&request) {
                        r.demand_ns = r.demand_ns.max(est_ns);
                    }
                }
            }
            TraceEvent::OpEnqueue {
                t_ns,
                request,
                op,
                server,
                queue_len,
            } => {
                let at = SimTime::from_nanos(t_ns);
                let local = SimDuration::from_nanos(
                    estimates.get(&(request, op, server)).copied().unwrap_or(0),
                );
                let (arrival, fanout, demand) =
                    requests.get(&request).map_or((at, 1, local), |r| {
                        (r.arrival, r.fanout, SimDuration::from_nanos(r.demand_ns))
                    });
                servers = servers.max(server as usize + 1);
                steps.push(ReplayStep::Enqueue {
                    server,
                    op: QueuedOp {
                        tag: OpTag {
                            op: OpId {
                                request: RequestId(request),
                                index: op,
                            },
                            request_arrival: arrival,
                            fanout,
                            local_estimate: local,
                            bottleneck_eta: at + demand,
                            bottleneck_demand: demand,
                        },
                        local_estimate: local,
                        enqueued_at: at,
                    },
                    len_after: queue_len,
                });
            }
            TraceEvent::SchedDecision {
                t_ns,
                request,
                op,
                server,
                queue_len,
                ..
            } => {
                last_decision.insert(server, (request, op));
                depths.push(queue_len);
                steps.push(ReplayStep::Dequeue {
                    server,
                    at: SimTime::from_nanos(t_ns),
                    len_before: Some(queue_len),
                });
            }
            // A batch lists its leader (already dequeued by the decision
            // just before) and its followers (pulled without a decision).
            TraceEvent::Batched {
                t_ns,
                request,
                op,
                server,
                ..
            } if last_decision.get(&server) != Some(&(request, op)) => {
                steps.push(ReplayStep::Dequeue {
                    server,
                    at: SimTime::from_nanos(t_ns),
                    len_before: None,
                });
            }
            TraceEvent::HintArrive {
                t_ns,
                request,
                server,
                eta_ns,
                remaining_ns,
            } => steps.push(ReplayStep::Hint {
                server,
                request: RequestId(request),
                update: HintUpdate {
                    bottleneck_eta: SimTime::from_nanos(eta_ns),
                    remaining_demand: SimDuration::from_nanos(remaining_ns),
                },
                at: SimTime::from_nanos(t_ns),
            }),
            TraceEvent::ServerCrash { server, .. } => {
                servers = servers.max(server as usize + 1);
                steps.push(ReplayStep::Crash { server });
            }
            _ => {}
        }
    }
    Replay {
        steps,
        servers,
        depths,
        requests: requests.len() as u64,
    }
}

/// Replays `replay` through one fresh `policy` scheduler per server.
/// Returns the wall time of the scheduler calls and how many recorded
/// queue lengths the replay failed to reproduce.
pub fn run_replay(policy: PolicyKind, replay: &Replay) -> (u64, u64) {
    let mut schedulers: Vec<Box<dyn Scheduler>> =
        (0..replay.servers).map(|_| policy.build()).collect();
    let mut mismatches = 0u64;
    let start = Instant::now();
    for step in &replay.steps {
        match step {
            ReplayStep::Enqueue {
                server,
                op,
                len_after,
            } => {
                let s = &mut schedulers[*server as usize];
                s.enqueue(*op, op.enqueued_at);
                mismatches += u64::from(s.len() as u32 != *len_after);
            }
            ReplayStep::Dequeue {
                server,
                at,
                len_before,
            } => {
                let s = &mut schedulers[*server as usize];
                if let Some(expected) = len_before {
                    mismatches += u64::from(s.len() as u32 != *expected);
                }
                mismatches += u64::from(black_box(s.dequeue(*at)).is_none());
            }
            ReplayStep::Hint {
                server,
                request,
                update,
                at,
            } => schedulers[*server as usize].on_hint(*request, *update, *at),
            ReplayStep::Crash { server } => schedulers[*server as usize] = policy.build(),
        }
    }
    (start.elapsed().as_nanos() as u64, mismatches)
}

/// The log a run with `TraceConfig::sample = sample` would have recorded,
/// cut from a sample-1.0 log of the same run: sampling is a pure hash of
/// (seed, request id), cluster events are always kept, and a queue sample
/// rides on a sampled op's enqueue.
pub fn subsample(full: &TraceLog, seed: u64, sample: f64) -> TraceLog {
    let recorder = TraceRecorder::new(
        &TraceConfig {
            enabled: true,
            sample,
            capacity: 1,
        },
        seed,
    );
    let mut events = Vec::new();
    let mut kept_enqueue = false;
    for event in &full.events {
        let keep = match event {
            TraceEvent::QueueSample { .. } => kept_enqueue,
            other => other.request().is_none_or(|r| recorder.is_sampled(r)),
        };
        kept_enqueue = keep && matches!(event, TraceEvent::OpEnqueue { .. });
        if keep {
            events.push(event.clone());
        }
    }
    TraceLog {
        sample,
        dropped: 0,
        events,
    }
}

/// What the three full-trace runs leave behind.
struct FullTrace {
    /// Per policy: replay wall ns.
    replay_ns: Vec<u64>,
    das_depths: Vec<u32>,
    das_events: u64,
    das_engine_ns: u64,
    /// FCFS and DAS logs cut down to `PIPELINE_EVENTS`.
    sampled: Vec<TraceLog>,
    requests: u64,
}

/// Events the trace-pipeline driver works on: enough for stable per-event
/// costs, few enough to stay under a second per stage.
const PIPELINE_EVENTS: f64 = 300_000.0;

fn full_trace_runs(
    input: &SimInput,
    untraced: &[PolicyRun],
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<FullTrace, String> {
    let full_config = TraceConfig {
        enabled: true,
        sample: 1.0,
        capacity: TRACE_CAPACITY,
    };
    let mut out = FullTrace {
        replay_ns: Vec::new(),
        das_depths: Vec::new(),
        das_events: 0,
        das_engine_ns: 0,
        sampled: Vec::new(),
        requests: 0,
    };
    for ((label, policy), plain) in policies().into_iter().zip(untraced) {
        let mut run = tracer.span("layer.full_trace_run", |t| {
            run_policy(input, label, policy, full_config, false, t)
        })?;
        let log = run.result.trace.take().expect("tracing was enabled");
        report.check(
            &format!("{label}: traced and untraced results agree"),
            fingerprint(&run.result) == fingerprint(&plain.result),
            format!("{} events recorded", log.events.len()),
        );
        report.check(
            &format!("{label}: full TraceLog::dropped == 0"),
            log.dropped == 0,
            format!("dropped {}", log.dropped),
        );
        let replay = tracer.span("layer.build_replay", |_| build_replay(&log));
        let (ns, mismatches) = tracer.span("layer.sched_replay", |_| run_replay(policy, &replay));
        report.check(
            &format!("{label}: replay reproduces the recorded queue_len sequence"),
            mismatches == 0 && !replay.depths.is_empty(),
            format!("{mismatches} mismatches over {} steps", replay.steps.len()),
        );
        out.replay_ns.push(ns);
        out.requests = replay.requests;
        if label != "rein" {
            let sample = (PIPELINE_EVENTS / log.events.len().max(1) as f64).clamp(0.01, 1.0);
            out.sampled
                .push(subsample(&log, input.experiment.seed, sample));
        }
        if label == "das" {
            out.das_depths = replay.depths;
            out.das_events = log.events.len() as u64;
            out.das_engine_ns = run.engine_ns;
        }
    }
    Ok(out)
}

/// Wall ns and allocator calls of the first span called `name` recorded
/// at or after index `from`.
fn span_cost(tracer: &Tracer, from: usize, name: &str) -> (f64, f64) {
    tracer.spans()[from..]
        .iter()
        .find(|s| s.name == name)
        .map_or((f64::NAN, f64::NAN), |s| {
            (s.duration_ns() as f64, s.allocs as f64)
        })
}

/// The pass's own pipeline (export, re-import, critical paths, telemetry,
/// then the diff) over the sampled FCFS and DAS logs; each stage's cost is
/// read back from the span it ran in.
fn trace_pipeline(
    input: &SimInput,
    fcfs: &TraceLog,
    das: &TraceLog,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let from = tracer.spans().len();
    let pipeline = run_pipeline(das, &input.experiment, tracer)?;
    let diff = run_diff(fcfs, das, tracer)?;
    report.check(
        "read_jsonl(write_jsonl(log)) == log",
        pipeline.round_trip_equal,
        format!(
            "{} events, {} bytes",
            das.events.len(),
            pipeline.jsonl_bytes
        ),
    );
    report.check(
        "critical-path segments sum to each RCT",
        pipeline.paths > 0 && pipeline.paths_sum_to_rct,
        format!("{} paths", pipeline.paths),
    );
    report.check(
        "diff_traces telescopes",
        diff.telescopes && diff.matched > 0,
        format!("{} matched requests", diff.matched),
    );
    let events = das.events.len().max(1) as f64;
    let (write_ns, write_allocs) = span_cost(tracer, from, "trace.write_jsonl");
    let (read_ns, read_allocs) = span_cost(tracer, from, "trace.read_jsonl");
    let per_event = [
        ("trace.write_jsonl_ns_per_event", write_ns),
        ("trace.read_jsonl_ns_per_event", read_ns),
        (
            "trace.fold_ns_per_event",
            span_cost(tracer, from, "trace.fold").0,
        ),
    ];
    for (name, ns) in per_event {
        report.put(name, Summary::exact(ns / events));
    }
    report.put_exact(
        "trace.jsonl_bytes_per_event",
        pipeline.jsonl_bytes as f64 / events,
    );
    report.put_exact("trace.write_jsonl_allocs_per_event", write_allocs / events);
    report.put_exact("trace.read_jsonl_allocs_per_event", read_allocs / events);
    report.put(
        "trace.critical_paths_ns_per_req",
        Summary::exact(
            span_cost(tracer, from, "trace.critical_paths").0 / pipeline.paths.max(1) as f64,
        ),
    );
    report.put(
        "trace.diff_ns_per_req",
        Summary::exact(span_cost(tracer, from, "trace.diff_traces").0 / diff.matched.max(1) as f64),
    );

    // The vendored JSON layer on its own: the config and the log as single
    // documents, to text and back.
    let text = tracer.span("serde_json.to_string", |_| {
        (
            serde_json::to_string(&input.experiment).expect("config serializes"),
            serde_json::to_string(das).expect("log serializes"),
        )
    });
    let parsed = tracer.span("serde_json.from_str", |_| {
        (
            serde_json::from_str::<das_core::ExperimentConfig>(&text.0),
            serde_json::from_str::<TraceLog>(&text.1),
        )
    });
    let bytes = (text.0.len() + text.1.len()) as f64;
    report.check(
        "serde_json round trip",
        parsed.0.is_ok_and(|c| c == input.experiment) && parsed.1.is_ok_and(|l| l == *das),
        format!("{bytes} bytes"),
    );
    // bytes per ns * 1e3 = MB/s
    for (metric, span) in [
        ("serde_json.ser_mb_per_s", "serde_json.to_string"),
        ("serde_json.de_mb_per_s", "serde_json.from_str"),
    ] {
        let ns = span_cost(tracer, from, span).0;
        report.put(metric, Summary::exact(bytes / ns * 1e3));
    }
    Ok(())
}

/// Reports what the untraced runs cost the host and what they modelled.
fn store_and_net(untraced: &[PolicyRun], requests: f64, report: &mut Report) {
    for run in untraced {
        let events = run.result.events_processed.max(1) as f64;
        report.put(
            &format!("store.run_ns_per_event.{}", run.label),
            Summary::exact(run.engine_ns as f64 / events),
        );
        if run.label != "rein" {
            report.put_exact(
                &format!("store.events_per_req.{}", run.label),
                events / requests,
            );
            report.put_exact(
                &format!("store.allocs_per_req.{}", run.label),
                run.allocs as f64 / requests,
            );
            report.put_exact(
                &format!("net.msgs_per_req.{}", run.label),
                run.result.traffic.total_messages() as f64 / requests,
            );
        }
    }
    let (rein, das_run) = (&untraced[1].result, &untraced[2]);
    let das = &das_run.result;
    report.put_exact("store.ops_per_req", das.mean_ops_per_request);
    report.put_exact("store.peak_heap_mib.das", alloc::mib(das_run.peak_bytes));
    report.put_exact("store.util_mean", das.mean_utilization);
    report.put_exact("store.util_max", das.max_utilization);
    report.put_exact(
        "store.lower_bound_gap_pct.das",
        (das.mean_rct() / das.lower_bound_mean_rct - 1.0) * 100.0,
    );
    report.put_exact("store.rct_p50_us.das", das.rct.p50() * 1e6);
    report.put_exact("store.rct_p999_us.das", das.rct.p999() * 1e6);
    report.put_exact("store.das_over_rein_rct", das.mean_rct() / rein.mean_rct());
    report.put_exact(
        "store.retries_per_req",
        das.recovery.retries as f64 / requests,
    );
    report.put_exact(
        "store.hedges_per_req",
        das.recovery.hedges as f64 / requests,
    );
    report.put_exact("store.crash_drops", das.recovery.crash_drops as f64);
    report.put_exact("store.shed_frac", das.recovery.shed_fraction());
    report.put_exact("store.wasted_service_frac", das.recovery.wasted_fraction());
    report.put_exact(
        "net.hints_per_req.das",
        das.traffic.messages(TrafficClass::ProgressHint) as f64 / requests,
    );
    report.put_exact(
        "net.overhead_bytes_per_req.das",
        das.traffic.overhead_bytes() as f64 / requests,
    );
}

/// Runs every sim-fed driver on `input`. `untraced` are the three
/// tracing-off policy runs of the workload's reference pass when it has
/// them; otherwise they are made here. Returns the untraced DAS result for
/// the drivers that want one.
pub fn run(
    input: &SimInput,
    untraced: Option<Vec<PolicyRun>>,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Vec<PolicyRun>, String> {
    let untraced = match untraced {
        Some(runs) => runs,
        None => policies()
            .into_iter()
            .map(|(label, policy)| {
                tracer.span("layer.untraced_run", |t| {
                    run_policy(input, label, policy, TraceConfig::default(), false, t)
                })
            })
            .collect::<Result<_, _>>()?,
    };
    let requests = input.requests.len() as f64;
    store_and_net(&untraced, requests, report);

    let full = full_trace_runs(input, &untraced, report, tracer)?;
    for ((label, _), ns) in policies().iter().zip(&full.replay_ns) {
        report.put(
            &format!("sched.replay_ns_per_req.{label}"),
            Summary::exact(*ns as f64 / requests),
        );
    }
    let das_untraced_ns = untraced[2].engine_ns as f64;
    report.put(
        "sched.share.das",
        Summary::exact(full.replay_ns[2] as f64 / das_untraced_ns),
    );
    let mut depths = full.das_depths;
    depths.sort_unstable();
    let mean = depths.iter().map(|&d| f64::from(d)).sum::<f64>() / depths.len().max(1) as f64;
    report.put_exact("sched.queue_depth_mean", mean);
    report.put_exact(
        "sched.queue_depth_p99",
        f64::from(rank_quantile(&depths, 0.99)),
    );
    report.put_exact(
        "sched.queue_depth_peak",
        f64::from(depths.last().copied().unwrap_or(0)),
    );
    report.put(
        "trace.capture_ns_per_event",
        Summary::exact(
            (full.das_engine_ns as f64 - das_untraced_ns) / full.das_events.max(1) as f64,
        ),
    );
    report.put_exact(
        "trace.events_per_req",
        full.das_events as f64 / full.requests.max(1) as f64,
    );
    report.check(
        "the full trace saw every request",
        full.requests == input.requests.len() as u64,
        format!("{} of {}", full.requests, input.requests.len()),
    );
    trace_pipeline(input, &full.sampled[0], &full.sampled[1], report, tracer)?;
    Ok(untraced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{setup, Scale, SimKind};

    #[test]
    fn subsampling_a_full_log_equals_a_sampled_run() {
        let mut tracer = Tracer::new(false);
        for kind in [SimKind::Probe, SimKind::FaultsTraced] {
            let input = setup(kind, 42, Scale::SMOKE, &mut tracer).unwrap();
            let trace = |sample| TraceConfig {
                enabled: true,
                sample,
                capacity: TRACE_CAPACITY,
            };
            let policy = PolicyKind::das();
            let full = run_policy(&input, "das", policy, trace(1.0), false, &mut tracer).unwrap();
            let part = run_policy(&input, "das", policy, trace(0.3), false, &mut tracer).unwrap();
            let cut = subsample(
                full.result.trace.as_ref().unwrap(),
                input.experiment.seed,
                0.3,
            );
            assert!(!cut.events.is_empty());
            assert_eq!(&cut, part.result.trace.as_ref().unwrap(), "{kind:?}");
        }
    }

    #[test]
    fn replay_reproduces_recorded_depths_even_with_crashes_and_batches() {
        let mut tracer = Tracer::new(false);
        for kind in [SimKind::Backlog, SimKind::FaultsTraced] {
            let input = setup(kind, 42, Scale::SMOKE, &mut tracer).unwrap();
            for (label, policy) in policies() {
                let trace = TraceConfig {
                    enabled: true,
                    sample: 1.0,
                    capacity: TRACE_CAPACITY,
                };
                let run = run_policy(&input, label, policy, trace, false, &mut tracer).unwrap();
                let replay = build_replay(run.result.trace.as_ref().unwrap());
                assert_eq!(replay.requests, input.requests.len() as u64);
                let (_, mismatches) = run_replay(policy, &replay);
                assert_eq!(mismatches, 0, "{kind:?} {label}");
            }
        }
    }
}
