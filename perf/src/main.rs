//! `das_perf`: the repo's benchmark.
//!
//! ```text
//! das_perf run [--workload W|all] [--seed N] [--seconds S] [--trace 0|1]
//!              [--out FILE] [--smoke]
//! das_perf compare A.json B.json
//! ```
//!
//! `run` does a fixed amount of work per workload (fixed request count x
//! fixed pass count; `--seconds` only picks the number of timed passes),
//! prints every metric as `name value unit q1 q3 n`, runs the correctness
//! checks, writes one JSON document, and ends with the one-line JSON
//! result the benchmark contract asks for. See `perf/README.md`.

mod alloc;
mod compare;
mod doc;
mod host;
mod micro;
mod rt;
mod rtfed;
mod run;
mod sim;
mod simfed;
mod span;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::Value;

use doc::{Document, RunSet};
use run::{Options, Workload};
use sim::Scale;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seconds of measurement one timed pass stands for when `--seconds` is
/// turned into a pass count: every workload is sized so that a pass takes
/// 3 to 4 s on the reference box.
const SECONDS_PER_PASS: u64 = 4;
const DEFAULT_PASSES: usize = 5;

fn usage() -> String {
    "usage: das_perf run [--workload sim_wide|sim_backlog|sim_faults_traced|rt_closed|all] \
     [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]\n       \
     das_perf compare A.json B.json"
        .to_string()
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    passes: usize,
    trace_modes: Vec<bool>,
    scale: Scale,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 42,
        passes: DEFAULT_PASSES,
        trace_modes: vec![false],
        scale: Scale::FULL,
        out: None,
    };
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => parsed.workloads.push(
                Workload::parse(value)
                    .ok_or_else(|| format!("unknown workload `{value}`\n{}", usage()))?,
            ),
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                let seconds: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                parsed.passes = (seconds / SECONDS_PER_PASS).clamp(1, 64) as usize;
            }
            "--trace" => {
                parsed.trace_modes = vec![match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }]
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`\n{}", usage())),
        }
    }
    if smoke {
        // Everything, small: all workloads in both modes, two timed passes.
        parsed.scale = Scale::SMOKE;
        parsed.passes = 2;
        parsed.trace_modes = vec![false, true];
        if parsed.workloads.is_empty() {
            parsed.workloads = Workload::ALL.to_vec();
        }
    }
    if parsed.workloads.is_empty() {
        return Err(format!("--workload is required\n{}", usage()));
    }
    Ok(parsed)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The one-line result of the benchmark contract.
fn contract_line(d: &Document) -> String {
    let metrics = d
        .metrics
        .iter()
        .map(|(name, m)| {
            let fields = vec![
                ("value".to_string(), Value::F64(m.value)),
                ("unit".to_string(), Value::Str(m.unit.clone())),
            ];
            (name.clone(), Value::Object(fields))
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(d.correct)),
        ("attempted".to_string(), Value::U64(d.attempted)),
        ("failed".to_string(), Value::U64(d.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a Value always serializes")
}

fn print_document(d: &Document) {
    println!(
        "# {} seed {} trace {} passes {}{} wall {:.1}s attempted {} failed {}{}",
        d.workload,
        d.seed,
        u8::from(d.trace),
        d.passes,
        if d.smoke { " smoke" } else { "" },
        d.wall_s,
        d.attempted,
        d.failed,
        if d.sim_digest.is_empty() {
            String::new()
        } else {
            format!(" sim_digest {}", d.sim_digest)
        }
    );
    for (name, m) in &d.metrics {
        println!("{name} {} {} {} {} {}", m.value, m.unit, m.q1, m.q3, m.n);
    }
    let failed: Vec<_> = d.checks.iter().filter(|c| !c.ok).collect();
    println!(
        "# checks: {} passed, {} failed",
        d.checks.len() - failed.len(),
        failed.len()
    );
    for c in failed {
        println!("# FAILED {}: {}", c.name, c.detail);
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let nproc = host::nproc();
    let out = args.out.clone().unwrap_or_else(|| {
        let name = match (args.scale.is_smoke(), args.workloads.as_slice()) {
            (true, _) => "smoke".to_string(),
            (false, [one]) => format!("{}.trace{}", one.name(), u8::from(args.trace_modes[0])),
            (false, _) => format!("all.trace{}", u8::from(args.trace_modes[0])),
        };
        out_dir().join(format!("{name}.json"))
    });
    let dir = out
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let mut set = RunSet { runs: Vec::new() };
    for &workload in &args.workloads {
        for &trace in &args.trace_modes {
            let opts = Options {
                seed: args.seed,
                passes: args.passes,
                scale: args.scale,
                trace,
                nproc,
            };
            let (document, tracer) = run::run_workload(workload, &opts);
            if trace {
                let path = dir.join(format!("{}.spans.jsonl", workload.name()));
                let file = std::fs::File::create(&path)
                    .map_err(|e| format!("create {}: {e}", path.display()))?;
                tracer
                    .write_jsonl(std::io::BufWriter::new(file))
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            set.runs.push(document);
        }
    }
    let text = serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("write {}: {e}", out.display()))?;
    // Human-readable metrics first; the contract's JSON object is the
    // last line of standard output (one per document, in run order).
    for d in &set.runs {
        print_document(d);
    }
    for d in &set.runs {
        println!("{}", contract_line(d));
    }
    Ok(set.runs.iter().all(|d| d.correct))
}

fn read_set(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(usage());
    };
    let benchmark = std::fs::read_to_string(doc::benchmark_json_path())
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let bounds = compare::bounds(&benchmark)?;
    let (text, pass) = compare::compare(&read_set(a)?, &read_set(b)?, &bounds)?;
    print!("{text}");
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("das_perf: {e}");
            ExitCode::from(2)
        }
    }
}
