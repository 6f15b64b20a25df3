//! One run of one workload: the untraced run that produces the nine
//! end-to-end metrics, and the traced run that produces the per-layer
//! ones. Both do a fixed amount of work.

use std::time::Instant;

use crate::alloc;
use crate::doc::{self, Document, Report};
use crate::host;
use crate::micro;
use crate::rt::{self, RtInput, RtPolicyRun, RtSpec};
use crate::rtfed;
use crate::sim::{self, policies, Scale, SimInput, SimKind, SimPass};
use crate::simfed;
use crate::span::{self, Tracer};
use crate::stats::{summarize, Summary};

/// The four workloads, in the order `--workload all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimWide,
    SimBacklog,
    SimFaultsTraced,
    RtClosed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimWide,
        Workload::SimBacklog,
        Workload::SimFaultsTraced,
        Workload::RtClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimWide => "sim_wide",
            Workload::SimBacklog => "sim_backlog",
            Workload::SimFaultsTraced => "sim_faults_traced",
            Workload::RtClosed => "rt_closed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn sim_kind(self) -> Option<SimKind> {
        match self {
            Workload::SimWide => Some(SimKind::Wide),
            Workload::SimBacklog => Some(SimKind::Backlog),
            Workload::SimFaultsTraced => Some(SimKind::FaultsTraced),
            Workload::RtClosed => None,
        }
    }
}

/// What the command line chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    pub seed: u64,
    /// Timed passes of an untraced run (a traced run always makes one).
    pub passes: usize,
    pub scale: Scale,
    pub trace: bool,
    /// CPUs the process could use before it pinned itself to one.
    pub nproc: usize,
}

/// Repetitions of set-up behind `setup_s` on the simulator workloads.
const SETUP_REPS: usize = 5;

/// What one pass contributes to the end-to-end metrics.
struct PassSample {
    /// fcfs, rein, das.
    ns_per_req: [f64; 3],
    allocs_per_req: f64,
    peak_mib: f64,
    das_rct_mean_us: f64,
    das_rct_p99_us: f64,
    das_over_fcfs_rct: f64,
    attempted: u64,
    failed: u64,
}

fn sim_sample(input: &SimInput, pass: &SimPass) -> PassSample {
    let n = input.requests.len() as f64;
    let runs = &pass.runs;
    let (fcfs, das) = (&runs[0].result, &runs[2].result);
    PassSample {
        ns_per_req: [0, 1, 2].map(|i| runs[i].ns as f64 / n),
        allocs_per_req: runs.iter().map(|r| r.allocs).sum::<u64>() as f64 / (3.0 * n),
        peak_mib: alloc::mib(runs.iter().map(|r| r.peak_bytes).max().unwrap_or(0)),
        das_rct_mean_us: das.mean_rct() * 1e6,
        das_rct_p99_us: das.p99_rct() * 1e6,
        das_over_fcfs_rct: das.mean_rct() / fcfs.mean_rct(),
        attempted: 3 * input.requests.len() as u64,
        failed: runs
            .iter()
            .map(|r| input.requests.len() as u64 - r.result.completed)
            .sum(),
    }
}

fn rt_sample(input: &RtInput, runs: &[RtPolicyRun]) -> PassSample {
    let n = input.batches.len() as f64;
    let (fcfs, das) = (&runs[0].rct, &runs[2].rct);
    PassSample {
        ns_per_req: [0, 1, 2].map(|i| runs[i].ns as f64 / n),
        allocs_per_req: runs.iter().map(|r| r.allocs).sum::<u64>() as f64 / (3.0 * n),
        peak_mib: alloc::mib(runs.iter().map(|r| r.peak_bytes).max().unwrap_or(0)),
        das_rct_mean_us: das.mean() * 1e6,
        das_rct_p99_us: das.p99() * 1e6,
        das_over_fcfs_rct: das.mean() / fcfs.mean(),
        attempted: 3 * input.batches.len() as u64,
        // A multi-get the closed loop did not record a latency for.
        failed: runs
            .iter()
            .map(|r| (input.batches.len() as u64).saturating_sub(r.rct.count()))
            .sum(),
    }
}

/// Totals a run hands back beside its report.
struct Totals {
    attempted: u64,
    failed: u64,
    sim_digest: Option<u64>,
}

fn record_sim_checks(report: &mut Report, input: &SimInput, pass: &SimPass) {
    for run in &pass.runs {
        for (name, ok, detail) in sim::run_checks(run, input.requests.len() as u64) {
            report.check(&name, ok, detail);
        }
    }
    if let Some(diff) = &pass.diff {
        report.check(
            "diff_traces telescopes",
            diff.telescopes && diff.matched > 0,
            format!("{} matched requests", diff.matched),
        );
    }
}

fn record_rt_checks(report: &mut Report, spec: &RtSpec, runs: &[RtPolicyRun], nproc: usize) {
    let expected = 1 + spec.servers * spec.workers_per_server;
    // `None`: no /proc here, nothing to compare with.
    let observed_ok = runs.iter().all(|r| r.threads.is_none_or(|t| t == expected));
    report.check(
        "rt: spawned threads <= 3, load threads <= nproc",
        spec.spawned_threads() <= 3 && observed_ok && spec.clients <= nproc,
        format!(
            "{} workers + {} client on {nproc} CPUs; process threads after start {:?} (expected {expected})",
            spec.servers * spec.workers_per_server,
            spec.clients,
            runs.iter().map(|r| r.threads).collect::<Vec<_>>()
        ),
    );
    for run in runs {
        if let Some(v) = run.verified {
            report.check(
                &format!("{}: every rt value equals the loaded bytes", run.label),
                v.bad == 0,
                format!(
                    "{} of {} multi-gets wrong or timed out",
                    v.bad, v.multi_gets
                ),
            );
            report.check(
                &format!("{}: rt.retries == 0", run.label),
                v.retries == 0,
                format!("{} retries", v.retries),
            );
        }
    }
}

fn put_end_to_end(report: &mut Report, samples: &[PassSample], setup_secs: &[f64]) {
    let column = |f: &dyn Fn(&PassSample) -> f64| -> Summary {
        summarize(&samples.iter().map(f).collect::<Vec<_>>())
    };
    for (i, (label, _)) in policies().iter().enumerate() {
        report.put(&format!("ns_per_req_{label}"), column(&|s| s.ns_per_req[i]));
    }
    report.put("allocs_per_req", column(&|s| s.allocs_per_req));
    report.put("peak_heap_mib", column(&|s| s.peak_mib));
    report.put("setup_s", summarize(setup_secs));
    report.put("das_rct_mean_us", column(&|s| s.das_rct_mean_us));
    report.put("das_rct_p99_us", column(&|s| s.das_rct_p99_us));
    report.put("das_over_fcfs_rct", column(&|s| s.das_over_fcfs_rct));
}

/// The untraced run: set-up, one warm-up pass that also carries the
/// checks, then `opts.passes` timed passes.
fn run_untraced(workload: Workload, opts: &Options, report: &mut Report) -> Result<Totals, String> {
    let mut off = Tracer::new(false);
    let mut samples = Vec::with_capacity(opts.passes);
    let mut setup_secs = Vec::new();
    let mut sim_digest = None;
    match workload.sim_kind() {
        Some(kind) => {
            let mut last = None;
            for _ in 0..SETUP_REPS {
                // Set-up never holds two inputs: free the previous one first.
                drop(last.take());
                let t = Instant::now();
                last = Some(sim::setup(kind, opts.seed, opts.scale, &mut off)?);
                setup_secs.push(t.elapsed().as_secs_f64());
            }
            let input = last.expect("SETUP_REPS > 0");
            let warm = sim::pass(&input, &mut off)?;
            record_sim_checks(report, &input, &warm);
            let digest = sim::digest(&warm.runs);
            drop(warm);
            let mut stable = true;
            for _ in 0..opts.passes {
                let pass = sim::pass(&input, &mut off)?;
                stable &= sim::digest(&pass.runs) == digest;
                stable &= pass.diff.as_ref().is_none_or(|d| d.telescopes);
                samples.push(sim_sample(&input, &pass));
            }
            report.check(
                "sim_digest identical across all passes",
                stable,
                format!("{digest:016x} over {} passes", opts.passes + 1),
            );
            sim_digest = Some(digest);
        }
        None => {
            let input = rt::input(RtSpec::workload(opts.scale), opts.seed);
            let warm = rt::pass(&input, true, &mut off);
            record_rt_checks(report, &input.spec, &warm, opts.nproc);
            let cluster_secs = |runs: &[RtPolicyRun]| -> Vec<f64> {
                runs.iter()
                    .map(|r| (r.start_ns + r.load_ns) as f64 * 1e-9)
                    .collect()
            };
            setup_secs.extend(cluster_secs(&warm));
            for _ in 0..opts.passes {
                let runs = rt::pass(&input, false, &mut off);
                setup_secs.extend(cluster_secs(&runs));
                samples.push(rt_sample(&input, &runs));
            }
        }
    }
    put_end_to_end(report, &samples, &setup_secs);
    Ok(Totals {
        attempted: samples.iter().map(|s| s.attempted).sum(),
        failed: samples.iter().map(|s| s.failed).sum(),
        sim_digest,
    })
}

/// `(traced - reference) / reference` of a pass's total host time, in %.
fn overhead_pct(reference: &[f64; 3], traced: &[f64; 3]) -> f64 {
    let (r, t): (f64, f64) = (reference.iter().sum(), traced.iter().sum());
    (t - r) / r * 100.0
}

/// A self-validation threshold: enforced at full size, reported only at
/// smoke size (a 1/20 workload cannot have the queue depths it is named for).
fn validate(report: &mut Report, smoke: bool, name: &str, ok: bool, detail: String) {
    if smoke {
        report.check(name, true, format!("not enforced at smoke size: {detail}"));
    } else {
        report.check(name, ok, detail);
    }
}

/// The traced run: a reference pass with spans off, the same pass with
/// spans on, then every layer driver.
fn run_traced(
    workload: Workload,
    opts: &Options,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Totals, String> {
    let smoke = opts.scale.is_smoke();
    let calib_before = host::calib_ms();
    let mut off = Tracer::new(false);
    let totals;
    let overhead;
    match workload.sim_kind() {
        Some(kind) => {
            let input = tracer.span("setup", |t| sim::setup(kind, opts.seed, opts.scale, t))?;
            // One discarded run so the reference pass does not pay for
            // first-touch page faults the traced pass would not.
            let (label, policy) = policies()[0];
            drop(sim::run_policy(
                &input,
                label,
                policy,
                input.experiment.trace,
                false,
                &mut off,
            )?);
            let reference = sim::pass(&input, &mut off)?;
            tracer.set_pass(1);
            let traced = tracer.span("pass", |t| sim::pass(&input, t))?;
            tracer.set_pass(0);
            record_sim_checks(report, &input, &traced);
            let digest = sim::digest(&traced.runs);
            report.check(
                "sim_digest identical across all passes",
                digest == sim::digest(&reference.runs),
                format!("{digest:016x} with spans on and off"),
            );
            let (r, t) = (sim_sample(&input, &reference), sim_sample(&input, &traced));
            overhead = overhead_pct(&r.ns_per_req, &t.ns_per_req);
            totals = Totals {
                attempted: t.attempted,
                failed: t.failed,
                sim_digest: Some(digest),
            };
            drop(traced);
            let untraced = (!input.experiment.trace.enabled).then_some(reference.runs);
            let untraced = simfed::run(&input, untraced, report, tracer)?;
            let probe = rt::input(RtSpec::probe(opts.scale), opts.seed);
            tracer.span("layer.rt", |t| rtfed::run_rt(&probe, report, t));
            micro::run(
                report,
                tracer,
                &input.experiment.workload,
                &untraced[2].result,
                opts.scale,
            );
        }
        None => {
            let input = rt::input(RtSpec::workload(opts.scale), opts.seed);
            // The checked sweep doubles as the warm-up.
            tracer.span("layer.rt", |t| rtfed::run_rt(&input, report, t));
            let reference = rt::pass(&input, false, &mut off);
            tracer.set_pass(1);
            let traced = tracer.span("pass", |t| rt::pass(&input, false, t));
            tracer.set_pass(0);
            record_rt_checks(report, &input.spec, &traced, opts.nproc);
            let (r, t) = (rt_sample(&input, &reference), rt_sample(&input, &traced));
            overhead = overhead_pct(&r.ns_per_req, &t.ns_per_req);
            totals = Totals {
                attempted: t.attempted,
                failed: t.failed,
                sim_digest: None,
            };
            let probe = tracer.span("setup", |t| {
                sim::setup(SimKind::Probe, opts.seed, opts.scale, t)
            })?;
            let untraced = simfed::run(&probe, None, report, tracer)?;
            micro::run(
                report,
                tracer,
                &probe.experiment.workload,
                &untraced[2].result,
                opts.scale,
            );
        }
    }
    rtfed::run_chaos(report, tracer);

    // What the spans say about the traced pass itself.
    let spans = tracer.spans();
    let own = span::self_times_ns(spans);
    let (pass_ns, pass_self_ns) = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "pass")
        .fold((0u64, 0u64), |(d, o), (s, own)| {
            (d + s.duration_ns(), o + own)
        });
    let trace_ns = span::total_ns(spans, |s| s.pass == 1 && s.name.starts_with("trace."));
    let pass_ns = pass_ns.max(1) as f64;
    report.put_exact("trace.share", trace_ns as f64 / pass_ns);
    report.put_exact("harness.untracked_share", pass_self_ns as f64 / pass_ns);
    report.put("harness.trace_overhead_pct", Summary::exact(overhead));
    report.put(
        "host.calib_ms",
        summarize(&[calib_before, host::calib_ms()]),
    );

    // Self-validation: the workload measures what it is named for.
    let value = |name: &str| report.value(name).unwrap_or(f64::NAN);
    let (share, p99, peak, trace_share, untracked, retries) = (
        value("sched.share.das"),
        value("sched.queue_depth_p99"),
        value("sched.queue_depth_peak"),
        value("trace.share"),
        value("harness.untracked_share"),
        value("rt.retries"),
    );
    match workload {
        Workload::SimWide => validate(
            report,
            smoke,
            "sim_wide: sched.share.das <= 0.1 and sched.queue_depth_p99 <= 32",
            share <= 0.1 && p99 <= 32.0,
            format!("share {share:.3}, p99 {p99}"),
        ),
        Workload::SimBacklog => validate(
            report,
            smoke,
            "sim_backlog: sched.share.das >= 0.6 and sched.queue_depth_peak >= 1000",
            share >= 0.6 && peak >= 1000.0,
            format!("share {share:.3}, peak {peak}"),
        ),
        Workload::SimFaultsTraced => validate(
            report,
            smoke,
            "sim_faults_traced: 0.3 <= trace.share <= 0.7",
            (0.3..=0.7).contains(&trace_share),
            format!("share {trace_share:.3}"),
        ),
        Workload::RtClosed => {}
    }
    report.check(
        "rt.retries == 0",
        retries == 0.0,
        format!("{retries} retries"),
    );
    report.check(
        "harness.untracked_share <= 0.02",
        untracked <= 0.02,
        format!("{untracked:.4}"),
    );
    Ok(totals)
}

/// Runs `workload` once and returns its document and (for a traced run)
/// its spans.
pub fn run_workload(workload: Workload, opts: &Options) -> (Document, Tracer) {
    let start = Instant::now();
    host::pin_to_one_cpu();
    let mut report = Report::new(opts.trace);
    let mut tracer = Tracer::new(opts.trace);
    let outcome = if opts.trace {
        run_traced(workload, opts, &mut report, &mut tracer)
    } else {
        run_untraced(workload, opts, &mut report)
    };
    let totals = outcome.unwrap_or_else(|e| {
        report.check("run completed", false, e);
        Totals {
            attempted: 1,
            failed: 1,
            sim_digest: None,
        }
    });
    match std::fs::read_to_string(doc::benchmark_json_path()) {
        Ok(text) => doc::check_against_benchmark_json(&mut report, workload.name(), &text),
        Err(e) => report.check(
            "metric names == BENCHMARK.json",
            false,
            format!("BENCHMARK.json: {e}"),
        ),
    }
    let document = Document {
        workload: workload.name().to_string(),
        seed: opts.seed,
        passes: if opts.trace { 1 } else { opts.passes as u64 },
        smoke: opts.scale.is_smoke(),
        trace: opts.trace,
        correct: report.checks.iter().all(|c| c.ok),
        attempted: totals.attempted.max(1),
        failed: totals.failed,
        sim_digest: totals
            .sim_digest
            .map_or(String::new(), |d| format!("{d:016x}")),
        nproc: opts.nproc as u64,
        wall_s: start.elapsed().as_secs_f64(),
        checks: report.checks,
        metrics: report.metrics,
    };
    (document, tracer)
}
