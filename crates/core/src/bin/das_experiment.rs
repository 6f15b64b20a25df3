//! `das-experiment` — run DAS reproduction experiments from JSON configs.
//!
//! ```text
//! das_experiment run <config.json> [--out <dir>] [--trace <base>] [--trace-sample <rate>]
//!                    [--record-workload <out.jsonl>]
//!                                                  run an experiment, print tables
//! das_experiment template [rho]                    print a ready-to-edit config
//! das_experiment policies                          list available policies
//! das_experiment check <config.json>               validate the whole config, then
//!                                                  check per-server offered load
//! das_experiment trace <config.json> <out.jsonl>   record the workload as a trace
//! das_experiment replay <config.json> <workload.jsonl> [--out <dir>]
//!                       [--trace <base>] [--trace-sample <rate>]
//!                       [--faults <faults.json>] [--overload <overload.json>]
//!                                                  replay a recorded workload
//! das_experiment chaos [--seed N] [--budget N] [--out <dir>]
//!                      [--oracles a,b,...] [--shrink-budget N] [--no-shrink]
//!                                                  adversarial fault-schedule search
//! das_experiment chaos-verify <dir> [--oracles a,b,...]
//!                                                  replay a reproducer corpus and
//!                                                  assert every verdict still fires
//! das_experiment blame-diff <a.jsonl> <b.jsonl> [<c.jsonl> ...]
//!                           [--ladder n1,n2,...] [--out <summary.json>]
//!                                                  attribute the RCT delta between
//!                                                  two or more event traces per segment
//! das_experiment top <trace.jsonl> [--epoch-ms N] [--workers N]
//!                                                  per-server telemetry report folded
//!                                                  from one event trace
//! ```
//!
//! `--trace <base>` enables structured event tracing and writes, per
//! policy, `<base>-<policy>.jsonl` (one event per line) and
//! `<base>-<policy>.chrome.json` (Chrome `trace_event` format, loadable in
//! Perfetto / `chrome://tracing`), plus the critical-path blame table.
//! `--trace-sample <rate>` traces that fraction of requests (default 1).
//!
//! ## Record → replay
//!
//! `--record-workload <out.jsonl>` additionally writes the exact request
//! stream the run consumed (ids, integer-ns arrival instants, keys, write
//! marks) as a `das_workload::trace` JSONL file. Recording is opt-in and a
//! pure observation: the generator is deterministic, so runs with and
//! without it are bit-identical. `replay` then injects that stream —
//! pinned to ascending `(arrival, id)` order — against *any* config's
//! policy/cluster/fault/overload composition, with the same reporting and
//! `--trace` event-log emission as `run`. Replaying under the recording
//! config reproduces the original event logs byte for byte; replaying
//! under a different policy yields logs that `blame-diff` (or `--ladder`)
//! consumes directly, with matching ids and exactly telescoping deltas.
//!
//! `blame-diff` takes two or more such `.jsonl` event logs recorded from
//! the *same seeded workload* under different policies, matches requests by
//! id across every trace, and attributes the per-request RCT delta to the
//! five critical-path segments (the signed deltas telescope exactly, in
//! integer ns, to each RCT delta — and with three or more traces the
//! per-step deltas telescope exactly across the whole ladder). It refuses
//! traces whose arrival timestamps disagree. `--ladder` overrides the rung
//! labels (default: file stems).
//!
//! ## Chaos search
//!
//! `chaos` runs the [`das_chaos`] adversarial search: a seeded, budgeted
//! loop that generates fault-schedule/workload/overload combinations (and
//! mutates interesting ones near scheduling decisions), replays each under
//! the FCFS/DAS pair, checks the oracle suite, and delta-debug shrinks
//! every violation to a minimal reproducer. The run is a pure function of
//! `(--seed, --budget, --oracles)`: the `chaos_report.json` it
//! writes is byte-identical across invocations. `--out` lays each finding
//! out as a replayable artifact set (`<slug>.case.json`, `.config.json`,
//! `.workload.jsonl`, `.faults.json`, `.overload.json`) so
//! `replay <slug>.config.json <slug>.workload.jsonl` reproduces the
//! violating pair directly. `chaos-verify` re-runs every `*.case.json`
//! under a directory and fails unless each recorded oracle verdict still
//! fires — what CI does for the committed corpus in `crates/chaos/corpus`.
//!
//! `replay --faults/--overload` swap in a fault or overload profile from a
//! JSON file (e.g. a reproducer's `.faults.json`) without editing the
//! config — grafting an adversarial schedule onto any experiment.
//!
//! `top` folds one `.jsonl` event log into per-server occupancy telemetry
//! (busy %, queue depth, reorder/shed/retry/hedge/batch/hint rates) and
//! prints a sorted report with per-epoch busy sparklines. It refuses a
//! `--workers` value below the log's own evidence (overlapping service
//! spans on one server), naming the inferred minimum — otherwise the
//! busy/idle complement would silently report occupancy above 100%.
//!
//! Configs are [`das_core::ExperimentConfig`] JSON — `template` prints one.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use das_core::experiment::{ExperimentConfig, ExperimentResult, PolicySummary};
use das_core::{report, scenarios};
use das_sched::policy::PolicyKind;
use das_sim::rng::SeedFactory;
use das_workload::generator::RequestSpec;
use das_workload::trace::{read_trace, validate_trace, write_trace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("template") => cmd_template(&args[1..]),
        Some("policies") => cmd_policies(),
        Some("check") => cmd_check(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("chaos-verify") => cmd_chaos_verify(&args[1..]),
        Some("blame-diff") => cmd_blame_diff(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "das-experiment — run DAS reproduction experiments from JSON configs\n\n\
         USAGE:\n  \
         das_experiment run <config.json> [--out <dir>] [--trace <base>] [--trace-sample <rate>] [--record-workload <out.jsonl>]\n  \
         das_experiment template [rho]\n  \
         das_experiment policies\n  \
         das_experiment check <config.json>    (validates the whole config, then checks per-server offered load)\n  \
         das_experiment trace <config.json> <out.jsonl>\n  \
         das_experiment replay <config.json> <workload.jsonl> [--out <dir>] [--trace <base>] [--trace-sample <rate>] [--faults <faults.json>] [--overload <overload.json>]\n  \
         das_experiment chaos [--seed N] [--budget N] [--out <dir>] [--oracles a,b,...] [--shrink-budget N] [--no-shrink]\n  \
         das_experiment chaos-verify <dir> [--oracles a,b,...]\n  \
         das_experiment blame-diff <a.jsonl> <b.jsonl> [<c.jsonl> ...] [--ladder n1,n2,...] [--out <summary.json>]\n  \
         das_experiment top <trace.jsonl> [--epoch-ms N] [--workers N]"
    );
}

/// Reads and validates a config, so every subcommand rejects a bad knob
/// here with a typed `error: …` line instead of panicking mid-run.
fn load_config(path: &str) -> Result<ExperimentConfig, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let config: ExperimentConfig =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

/// Flags shared by `run` and `replay`: output dir, event-trace emission,
/// (run only) workload recording, and (replay only) fault/overload
/// profile overrides.
#[derive(Debug, Default)]
struct EmitFlags {
    out_dir: Option<String>,
    trace_base: Option<String>,
    trace_sample: Option<f64>,
    record_workload: Option<String>,
    faults: Option<String>,
    overload: Option<String>,
}

impl EmitFlags {
    /// Parses the flag tail of `run`/`replay`. `cmd` labels errors;
    /// `--record-workload` is only accepted when `allow_record` is set,
    /// `--faults`/`--overload` only when `allow_overrides` is.
    fn parse(
        cmd: &str,
        args: &[String],
        allow_record: bool,
        allow_overrides: bool,
    ) -> Result<Self, String> {
        let mut flags = EmitFlags::default();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            match arg.as_str() {
                "--out" => {
                    flags.out_dir = Some(rest.next().ok_or("--out: missing directory")?.clone());
                }
                "--trace" => {
                    flags.trace_base =
                        Some(rest.next().ok_or("--trace: missing output path")?.clone());
                }
                "--trace-sample" => {
                    let s = rest.next().ok_or("--trace-sample: missing rate")?;
                    let rate: f64 = s
                        .parse()
                        .map_err(|_| format!("--trace-sample: `{s}` is not a number"))?;
                    flags.trace_sample = Some(rate);
                }
                "--record-workload" if allow_record => {
                    flags.record_workload =
                        Some(rest.next().ok_or("--record-workload: missing path")?.clone());
                }
                "--faults" if allow_overrides => {
                    flags.faults = Some(rest.next().ok_or("--faults: missing path")?.clone());
                }
                "--overload" if allow_overrides => {
                    flags.overload = Some(rest.next().ok_or("--overload: missing path")?.clone());
                }
                other => return Err(format!("{cmd}: unexpected argument `{other}`")),
            }
        }
        if flags.trace_sample.is_some() && flags.trace_base.is_none() {
            return Err("--trace-sample requires --trace <path>".into());
        }
        Ok(flags)
    }

    /// Applies `--faults`/`--overload` profile overrides to the config,
    /// then re-validates the composition (an override can introduce
    /// invariant violations the original config never had, e.g. loss
    /// without retries).
    fn apply_overrides(&self, config: &mut ExperimentConfig) -> Result<(), String> {
        if let Some(path) = &self.faults {
            let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            config.faults =
                serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        }
        if let Some(path) = &self.overload {
            let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            config.overload =
                serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        }
        config.validate().map_err(|e| e.to_string())
    }

    /// Applies the tracing flags to the loaded config.
    fn arm_tracing(&self, config: &mut ExperimentConfig) {
        if self.trace_base.is_some() {
            config.trace.enabled = true;
            if let Some(rate) = self.trace_sample {
                config.trace.sample = rate;
            }
        }
    }
}

/// Writes a recorded workload stream as a validated JSONL trace file.
fn write_workload(path: &str, trace: &[RequestSpec]) -> Result<(), String> {
    let file = fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
    let mut writer = std::io::BufWriter::new(file);
    write_trace(&mut writer, trace).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    eprintln!("recorded {} requests to {path}", trace.len());
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("run: missing <config.json>")?;
    let flags = EmitFlags::parse("run", &args[1..], true, false)?;
    let mut config = load_config(path)?;
    flags.arm_tracing(&mut config);
    eprintln!(
        "running `{}`: {} servers, {} policies, {}s horizon...",
        config.name,
        config.cluster.servers,
        config.policies.len(),
        config.horizon_secs
    );
    let result = match &flags.record_workload {
        // The recorded specs are the ones the run consumes.
        Some(out) => {
            let trace = config.record_workload();
            let result = config.run_trace(&trace)?;
            write_workload(out, &trace)?;
            result
        }
        None => config.run()?,
    };
    emit_result(&result, &config, &flags)
}

/// The shared reporting/emission tail of `run` and `replay`: Markdown
/// tables and charts on stdout, per-policy event logs (JSONL + Chrome with
/// telemetry counter tracks) under `--trace`, and per-policy summaries
/// under `--out`.
fn emit_result(
    result: &ExperimentResult,
    config: &ExperimentConfig,
    flags: &EmitFlags,
) -> Result<(), String> {
    println!("{}", report::render_experiment(result));
    if let Some(chart) = das_metrics::ascii::bar_chart(&result.table(), "mean (ms)", 40) {
        println!("{chart}");
    }
    println!("{}", report::overhead_table(result).to_markdown());
    println!("{}", report::fairness_table(result).to_markdown());
    if let Some(t) = report::timeseries_table(result, "Mean RCT over time (ms)") {
        println!("{}", t.to_markdown());
    }
    if let Some(t) = report::blame_table(result) {
        println!("{}", t.to_markdown());
        let rows = report::blame_rows(result);
        if let Some(chart) = das_metrics::ascii::stacked_bars(&rows, 40) {
            println!("mean RCT blame per policy (ms)\n{chart}");
        }
    }
    if let Some(base) = &flags.trace_base {
        for run in &result.runs {
            let Some(log) = &run.trace else { continue };
            let policy = sanitize(&run.policy);
            let jsonl = format!("{base}-{policy}.jsonl");
            let f = fs::File::create(&jsonl).map_err(|e| format!("creating {jsonl}: {e}"))?;
            let mut w = std::io::BufWriter::new(f);
            das_trace::export::write_jsonl(log, &mut w).map_err(|e| e.to_string())?;
            w.flush().map_err(|e| e.to_string())?;
            let chrome = format!("{base}-{policy}.chrome.json");
            let f = fs::File::create(&chrome).map_err(|e| format!("creating {chrome}: {e}"))?;
            let mut w = std::io::BufWriter::new(f);
            // Enrich the Perfetto view with per-server counter tracks
            // folded from the same log (busy %, demand, depth, rates).
            let telemetry = das_trace::telemetry::fold(
                log,
                &das_trace::TelemetryConfig {
                    workers: config.cluster.workers_per_server,
                    ..das_trace::TelemetryConfig::default()
                },
            );
            das_trace::export::write_chrome_with_telemetry(log, &telemetry, &mut w)
                .map_err(|e| e.to_string())?;
            w.flush().map_err(|e| e.to_string())?;
            eprintln!(
                "wrote {} events ({} dropped) to {jsonl} and {chrome}",
                log.events.len(),
                log.dropped
            );
        }
    }
    if let Some(dir) = &flags.out_dir {
        let dir = Path::new(dir);
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let summaries: Vec<PolicySummary> =
            result.runs.iter().map(PolicySummary::from_run).collect();
        let json = serde_json::to_string_pretty(&summaries).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}.json", sanitize(&result.name)));
        fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn cmd_template(args: &[String]) -> Result<(), String> {
    let rho: f64 = match args.first() {
        Some(s) => s
            .parse()
            .map_err(|_| format!("template: `{s}` is not a number"))?,
        None => 0.7,
    };
    if !(0.0..1.5).contains(&rho) || rho <= 0.0 {
        return Err(format!("template: rho {rho} out of (0, 1.5)"));
    }
    let mut config = scenarios::base_experiment(format!("custom rho={rho}"), rho);
    config.policies.push(PolicyKind::oracle());
    let json = serde_json::to_string_pretty(&config).map_err(|e| e.to_string())?;
    println!("{json}");
    Ok(())
}

fn cmd_policies() -> Result<(), String> {
    println!("policy          | metadata B/op | hints | piggyback");
    println!("----------------|---------------|-------|----------");
    let mut policies = PolicyKind::standard_set();
    policies.push(PolicyKind::oracle());
    policies.extend(PolicyKind::ablation_set());
    let mut seen = std::collections::HashSet::new();
    for p in policies {
        let s = p.build();
        if seen.insert(s.name()) {
            println!(
                "{:<15} | {:>13} | {:>5} | {}",
                s.name(),
                s.metadata_bytes(),
                if s.wants_hints() { "yes" } else { "no" },
                if s.wants_piggyback() { "yes" } else { "no" },
            );
        }
    }
    Ok(())
}

/// Analytic stability check: computes each shard's *offered* load from the
/// workload's key-popularity distribution and the partitioner, flagging
/// shards that would run at or above capacity — the failure mode that makes
/// simulated "ρ = 0.7" runs silently unstable (see DESIGN.md's calibration
/// notes).
fn cmd_check(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("check: missing <config.json>")?;
    let config = load_config(path)?;
    let w = &config.workload;
    let c = &config.cluster;
    let rate = w
        .arrival
        .average_rate()
        .ok_or("check: schedule-driven arrivals have no single rate; check the peak manually")?;
    let n = w.n_keys;
    let seeds = SeedFactory::new(config.seed);
    let keyspace = das_workload::keyspace::KeySpace::with_hot_key_cap(
        n,
        &w.sizes,
        &w.popularity,
        w.hot_key_size_cap,
        &seeds,
    );
    // Per-key access probability.
    let probs: Vec<f64> = match w.popularity {
        das_workload::spec::PopularityConfig::Uniform => vec![1.0 / n as f64; n],
        das_workload::spec::PopularityConfig::Zipf { theta } => {
            let h: f64 = (1..=n).map(|k| (k as f64).powf(-theta)).sum();
            (1..=n).map(|k| (k as f64).powf(-theta) / h).collect()
        }
    };
    let partitioner = c.partitioner.build(c.servers);
    let op_rate_total = rate * w.mean_fanout();
    let mut load = vec![0.0f64; c.servers as usize];
    for (key, p) in probs.iter().enumerate() {
        let service = c.per_op_overhead.as_secs_f64()
            + keyspace.size_of(key as u64) as f64 / c.base_rate_bytes_per_sec;
        // With replication, least-loaded selection spreads a key across its
        // replica set; assume even spread for the check.
        let replicas = partitioner.replicas(key as u64, c.replication);
        let share = op_rate_total * p * service / replicas.len() as f64;
        for s in replicas {
            load[s.0 as usize] += share;
        }
    }
    let workers = c.workers_per_server as f64;
    let mean = load.iter().sum::<f64>() / load.len() as f64 / workers;
    let mut idx: Vec<usize> = (0..load.len()).collect();
    idx.sort_by(|&a, &b| load[b].total_cmp(&load[a]));
    println!("arrival rate: {rate:.0} req/s; mean offered load per server: {mean:.3}");
    println!("hottest shards:");
    for &i in idx.iter().take(5) {
        println!("  server {i}: offered load {:.3}", load[i] / workers);
    }
    let hottest = load[idx[0]] / workers;
    if hottest >= 0.95 {
        Err(format!(
            "UNSTABLE: server {} offered load {hottest:.3} >= 0.95 — results would be \
             horizon-dependent. Reduce load, add replication, skew, or hot-key caps.",
            idx[0]
        ))
    } else {
        println!("stable: hottest shard at {hottest:.3}");
        Ok(())
    }
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let [config_path, out_path] = args else {
        return Err("trace: expected <config.json> <out.jsonl>".into());
    };
    let config = load_config(config_path)?;
    write_workload(out_path, &config.record_workload())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let [config_path, trace_path, rest @ ..] = args else {
        return Err(
            "replay: expected <config.json> <workload.jsonl> [--out <dir>] [--trace <base>] \
             [--trace-sample <rate>] [--faults <faults.json>] [--overload <overload.json>]"
                .into(),
        );
    };
    let flags = EmitFlags::parse("replay", rest, false, true)?;
    let mut config = load_config(config_path)?;
    flags.arm_tracing(&mut config);
    flags.apply_overrides(&mut config)?;
    let file = fs::File::open(trace_path).map_err(|e| format!("opening {trace_path}: {e}"))?;
    let trace = read_trace(file).map_err(|e| e.to_string())?;
    validate_trace(&trace).map_err(|e| e.to_string())?;
    eprintln!(
        "replaying {} requests against {} policies...",
        trace.len(),
        config.policies.len()
    );
    let result = config.run_trace(&trace)?;
    emit_result(&result, &config, &flags)
}

/// Parses a `--oracles a,b,...` selection into an [`OracleConfig`],
/// defaulting to the full suite.
fn parse_oracles(spec: Option<&String>) -> Result<das_chaos::OracleConfig, String> {
    match spec {
        Some(s) => {
            let names: Vec<&str> = s.split(',').map(str::trim).collect();
            das_chaos::OracleConfig::only(&names)
        }
        None => Ok(das_chaos::OracleConfig::default()),
    }
}

fn cmd_chaos(args: &[String]) -> Result<(), String> {
    let mut cfg = das_chaos::ChaosConfig {
        budget: 25,
        ..das_chaos::ChaosConfig::default()
    };
    let mut out_dir: Option<String> = None;
    let mut oracles_spec: Option<String> = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--seed" => {
                let s = rest.next().ok_or("--seed: missing value")?;
                cfg.seed = s
                    .parse()
                    .map_err(|_| format!("--seed: `{s}` is not an integer"))?;
            }
            "--budget" => {
                let s = rest.next().ok_or("--budget: missing value")?;
                cfg.budget = s
                    .parse()
                    .map_err(|_| format!("--budget: `{s}` is not an integer"))?;
                if cfg.budget == 0 {
                    return Err("--budget: must be positive".into());
                }
            }
            "--shrink-budget" => {
                let s = rest.next().ok_or("--shrink-budget: missing value")?;
                cfg.shrink_budget = s
                    .parse()
                    .map_err(|_| format!("--shrink-budget: `{s}` is not an integer"))?;
            }
            "--no-shrink" => cfg.shrink = false,
            "--out" => out_dir = Some(rest.next().ok_or("--out: missing directory")?.clone()),
            "--oracles" => {
                oracles_spec = Some(rest.next().ok_or("--oracles: missing a,b,...")?.clone());
            }
            other => return Err(format!("chaos: unexpected argument `{other}`")),
        }
    }
    cfg.oracles = parse_oracles(oracles_spec.as_ref())?;

    eprintln!(
        "chaos search: seed {}, budget {} (paired FCFS/DAS runs per case)...",
        cfg.seed, cfg.budget
    );
    let outcome = das_chaos::search(&cfg)?;
    println!("{}", outcome.report.render_markdown());

    if let Some(dir) = out_dir {
        let dir = Path::new(&dir);
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let json = serde_json::to_string_pretty(&outcome.report).map_err(|e| e.to_string())?;
        let report_path = dir.join("chaos_report.json");
        fs::write(&report_path, json + "\n")
            .map_err(|e| format!("writing {}: {e}", report_path.display()))?;
        let md_path = dir.join("chaos_report.md");
        fs::write(&md_path, outcome.report.render_markdown())
            .map_err(|e| format!("writing {}: {e}", md_path.display()))?;
        eprintln!("wrote {} and {}", report_path.display(), md_path.display());
        for f in &outcome.findings {
            let reproducer = das_chaos::Reproducer {
                slug: f.slug.clone(),
                oracle: f.violation.oracle.clone(),
                policy: f.violation.policy.clone(),
                detail: f.violation.detail.clone(),
                measure: f.violation.measure,
                case: f.case.clone(),
            };
            let paths = das_core::chaos::write_artifacts(&reproducer, dir)?;
            eprintln!(
                "wrote reproducer {} ({} -> {} after {} shrink evals): {}",
                f.slug,
                f.size_before,
                f.size_after,
                f.shrink_evals,
                paths.case.display()
            );
        }
    } else if !outcome.findings.is_empty() {
        eprintln!(
            "{} finding(s); pass --out <dir> to write replayable reproducers",
            outcome.findings.len()
        );
    }
    Ok(())
}

fn cmd_chaos_verify(args: &[String]) -> Result<(), String> {
    let dir = args.first().ok_or("chaos-verify: missing <dir>")?;
    if dir.starts_with("--") {
        return Err("chaos-verify: expected <dir> [--oracles a,b,...]".into());
    }
    let mut oracles_spec: Option<String> = None;
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--oracles" => {
                oracles_spec = Some(rest.next().ok_or("--oracles: missing a,b,...")?.clone());
            }
            other => return Err(format!("chaos-verify: unexpected argument `{other}`")),
        }
    }
    let oracles = parse_oracles(oracles_spec.as_ref())?;
    let corpus = das_chaos::read_corpus(Path::new(dir))?;
    if corpus.is_empty() {
        return Err(format!("chaos-verify: no *.case.json reproducers under {dir}"));
    }
    let mut failures = Vec::new();
    for r in &corpus {
        match r.verify(&oracles) {
            Ok(v) => println!(
                "ok   {} — {} ({}) still fires: {}",
                r.slug, v.oracle, v.policy, v.detail
            ),
            Err(e) => {
                println!("FAIL {} — {e}", r.slug);
                failures.push(r.slug.clone());
            }
        }
    }
    if failures.is_empty() {
        println!("verified {} reproducer(s)", corpus.len());
        Ok(())
    } else {
        Err(format!(
            "chaos-verify: {}/{} reproducer(s) no longer reproduce: {}",
            failures.len(),
            corpus.len(),
            failures.join(", ")
        ))
    }
}

fn read_event_log(path: &str) -> Result<das_trace::TraceLog, String> {
    let f = fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    das_trace::export::read_jsonl(std::io::BufReader::new(f))
        .map_err(|e| format!("reading {path}: {e}"))
}

fn file_stem(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

fn cmd_blame_diff(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "blame-diff: expected <a.jsonl> <b.jsonl> [<c.jsonl> ...] \
                         [--ladder n1,n2,...] [--out <summary.json>]";
    let mut paths: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut labels: Option<Vec<String>> = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--out" => out_path = Some(rest.next().ok_or("--out: missing path")?.clone()),
            "--ladder" => {
                let spec = rest.next().ok_or("--ladder: missing name1,name2,...")?;
                labels = Some(spec.split(',').map(|s| s.trim().to_string()).collect());
            }
            other if other.starts_with("--") => {
                return Err(format!("blame-diff: unexpected argument `{other}`"));
            }
            path => paths.push(path.to_string()),
        }
    }
    if paths.len() < 2 {
        return Err(USAGE.into());
    }
    let names: Vec<String> = match labels {
        Some(names) => {
            if names.len() != paths.len() {
                return Err(format!(
                    "--ladder: {} names for {} traces",
                    names.len(),
                    paths.len()
                ));
            }
            names
        }
        None => paths.iter().map(|p| file_stem(p)).collect(),
    };
    let logs: Vec<das_trace::TraceLog> = paths
        .iter()
        .map(|p| read_event_log(p))
        .collect::<Result<_, _>>()?;
    if logs.len() == 2 {
        let diff = das_trace::diff_traces(&logs[0], &logs[1]).map_err(|e| e.to_string())?;
        println!("{}", report::render_blame_diff(&names[0], &names[1], &diff));
        if let Some(out) = out_path {
            let json = serde_json::to_string_pretty(&diff.summary()).map_err(|e| e.to_string())?;
            fs::write(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        return Ok(());
    }
    let refs: Vec<&das_trace::TraceLog> = logs.iter().collect();
    let ladder = das_trace::ladder_diff(&refs).map_err(|e| e.to_string())?;
    println!("{}", report::render_ladder(&names, &ladder));
    if let Some(out) = out_path {
        let json =
            serde_json::to_string_pretty(&ladder.summary(&names)).map_err(|e| e.to_string())?;
        fs::write(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("top: missing <trace.jsonl>")?;
    if path.starts_with("--") {
        return Err("top: expected <trace.jsonl> [--epoch-ms N] [--workers N]".into());
    }
    let mut cfg = das_trace::TelemetryConfig::default();
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--epoch-ms" => {
                let s = rest.next().ok_or("--epoch-ms: missing value")?;
                let ms: u64 = s
                    .parse()
                    .map_err(|_| format!("--epoch-ms: `{s}` is not an integer"))?;
                if ms == 0 {
                    return Err("--epoch-ms: must be positive".into());
                }
                cfg.epoch_ns = ms * 1_000_000;
            }
            "--workers" => {
                let s = rest.next().ok_or("--workers: missing value")?;
                let w: u32 = s
                    .parse()
                    .map_err(|_| format!("--workers: `{s}` is not an integer"))?;
                if w == 0 {
                    return Err("--workers: must be positive".into());
                }
                cfg.workers = w;
            }
            other => return Err(format!("top: unexpected argument `{other}`")),
        }
    }
    let log = read_event_log(path)?;
    // Guard the busy/idle complement: overlapping service spans on one
    // server prove more workers than `--workers` claims, and folding with
    // the understated count would render busy > 100% and break the
    // `busy + idle == workers × horizon` conservation law.
    if let Some((server, min)) = das_trace::telemetry::min_workers(&log) {
        if min > cfg.workers {
            return Err(format!(
                "top: --workers {} understates the cluster that produced this trace: \
                 server {server} has up to {min} service spans open concurrently, so busy \
                 occupancy would exceed 100% of the assumed capacity. \
                 Re-run with --workers {min} (or more).",
                cfg.workers
            ));
        }
    }
    let telemetry = das_trace::telemetry::fold(&log, &cfg);
    println!("{}", report::render_top(&telemetry));
    Ok(())
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}
