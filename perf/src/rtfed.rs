//! Layer drivers fed with an rt input, and the chaos-corpus replay.

use std::time::Instant;

use das_chaos::{corpus_dir, read_corpus, OracleConfig};
use das_core::chaos::experiment_config;
use das_sched::policy::PolicyKind;

use crate::doc::Report;
use crate::rt::{start_loaded, verify, RtInput};
use crate::span::Tracer;
use crate::stats::Summary;

/// `RtCluster::{start, load, try_multi_get}` under DAS on `input`: a
/// checked sweep, so the counts (ops, retries) are exact and every value
/// is compared with what was loaded.
pub fn run_rt(input: &RtInput, report: &mut Report, tracer: &mut Tracer) {
    let loaded = start_loaded(&input.spec, PolicyKind::das(), tracer);
    let start = Instant::now();
    let (seen, rct) = verify(&loaded.cluster, input, tracer);
    let wall_ns = start.elapsed().as_nanos() as f64;
    loaded.cluster.shutdown();

    let multi_gets = seen.multi_gets.max(1) as f64;
    let ops_per_multi_get = seen.ops as f64 / multi_gets;
    let ns_per_multi_get = wall_ns / multi_gets;
    report.put("rt.start_ms", Summary::exact(loaded.start_ns as f64 * 1e-6));
    report.put(
        "rt.load_ns_per_key",
        Summary::exact(loaded.load_ns as f64 / input.spec.keys.max(1) as f64),
    );
    report.put_exact("rt.ops_per_multi_get", ops_per_multi_get);
    report.put("rt.multigets_per_s", Summary::exact(1e9 / ns_per_multi_get));
    // What one op costs beyond its emulated service time. The process is
    // pinned to one CPU, so the ops of a multi-get are served one after
    // another and their busy-waits add up.
    report.put(
        "rt.overhead_ns_per_op",
        Summary::exact(
            (ns_per_multi_get - ops_per_multi_get * input.spec.per_op_nanos as f64)
                / ops_per_multi_get.max(1.0),
        ),
    );
    report.put("rt.rct_p50_us.das", Summary::exact(rct.p50() * 1e6));
    report.put("rt.rct_p999_us.das", Summary::exact(rct.p999() * 1e6));
    report.put_exact("rt.retries", seen.retries as f64);
    report.check(
        "every rt value equals the loaded bytes",
        seen.bad == 0,
        format!(
            "{} of {} multi-gets wrong or timed out",
            seen.bad, seen.multi_gets
        ),
    );
}

/// Loads the committed chaos corpus, replays every case under FCFS and
/// DAS through the ordinary experiment path, and re-checks each recorded
/// oracle verdict.
pub fn run_chaos(report: &mut Report, tracer: &mut Tracer) {
    let start = Instant::now();
    let outcome = tracer.span("chaos.corpus_replay", |_| -> Result<(usize, f64), String> {
        let corpus = read_corpus(&corpus_dir())?;
        let mut worst = 0.0f64;
        for reproducer in &corpus {
            let replay = experiment_config(&reproducer.case).run_trace(&reproducer.case.trace)?;
            let fcfs = replay.mean_rct("FCFS").unwrap_or(0.0);
            if let Some(das) = replay.mean_rct("DAS").filter(|_| fcfs > 0.0) {
                worst = worst.max(das / fcfs);
            }
            reproducer.verify(&OracleConfig::default())?;
        }
        Ok((corpus.len(), worst))
    });
    report.put(
        "chaos.corpus_replay_ms",
        Summary::exact(start.elapsed().as_secs_f64() * 1e3),
    );
    match outcome {
        Ok((cases, worst)) => {
            report.put_exact("chaos.corpus_worst_das_over_fcfs", worst);
            report.check(
                "chaos corpus verdicts match the committed ones",
                cases > 0,
                format!("{cases} cases, worst DAS/FCFS {worst:.3}"),
            );
        }
        Err(e) => {
            report.put_exact("chaos.corpus_worst_das_over_fcfs", 0.0);
            report.check("chaos corpus verdicts match the committed ones", false, e);
        }
    }
}
