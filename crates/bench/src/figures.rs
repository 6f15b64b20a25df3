//! The evaluation's figures and tables, as the [`FIGURES`] registry. Most
//! entries are a [`Sweep`] (labelled points, one experiment each, shown as
//! one policies × points table per metric) or a [`Single`] experiment; the
//! rest are functions below the registry. The registry stamps each
//! [`FigureOutput`] with its id for `das_bench` to print and persist.
//!
//! Every figure honours quick mode (`DAS_QUICK=1`): shorter horizons and
//! sparser sweeps so the whole suite smoke-tests in seconds.

use das_core::experiment::{ExperimentConfig, ExperimentResult};
use das_core::report;
use das_core::scenarios;
use das_metrics::summary::ComparisonTable;
use das_sched::das::DasConfig;
use das_sched::policy::PolicyKind;
use das_store::engine::RunResult;
use das_trace::TraceLog;
use das_workload::spec::{ArrivalConfig, FanoutConfig, PopularityConfig, SizeConfig};

use crate::output::{persist_with, FigureOutput};

/// Swept points' labels with their experiments' results, in point order.
type Results = [(String, ExperimentResult)];

/// What a registry entry runs with: the mode, and the load sweep that
/// fig06, fig07, fig08 and table2 share.
#[derive(Debug)]
pub struct Ctx {
    /// Quick mode (`DAS_QUICK=1`).
    pub quick: bool,
    sweep: Option<Vec<(String, ExperimentResult)>>,
}

impl Ctx {
    /// A context with the sweep not yet run.
    pub fn new(quick: bool) -> Self {
        Ctx { quick, sweep: None }
    }

    /// The base scenario across the load sweep, run on first use and at
    /// most once per process.
    fn sweep(&mut self) -> &Results {
        let quick = self.quick;
        self.sweep
            .get_or_insert_with(|| run_points(&load_sweep(quick)))
    }
}

/// One figure or table of the evaluation.
#[derive(Debug)]
pub struct Figure {
    /// The id `das_bench` takes; [`Figure::run`] stamps it into the output,
    /// so it also names `results/<id>.{md,json}`.
    pub id: &'static str,
    /// One line on what the figure shows.
    pub about: &'static str,
    build: Build,
}

/// How a registry entry builds its figure; every function but a load-sweep
/// view is given quick mode.
#[derive(Debug)]
enum Build {
    /// A sweep over its own points.
    Sweep(fn(bool) -> Sweep),
    /// A sweep shown from the shared load sweep's results.
    LoadSweep(fn(bool) -> Sweep),
    /// Another view of the shared load sweep's results.
    LoadView(fn(&Results) -> FigureOutput),
    /// A figure of one experiment.
    Single(fn(bool) -> Single),
    /// Any other figure.
    Custom(fn(bool) -> FigureOutput),
}

impl Figure {
    const fn sweep(id: &'static str, about: &'static str, sweep: fn(bool) -> Sweep) -> Self {
        let build = Build::Sweep(sweep);
        Figure { id, about, build }
    }

    const fn load_sweep(id: &'static str, about: &'static str, sweep: fn(bool) -> Sweep) -> Self {
        let build = Build::LoadSweep(sweep);
        Figure { id, about, build }
    }

    const fn single(id: &'static str, about: &'static str, single: fn(bool) -> Single) -> Self {
        let build = Build::Single(single);
        Figure { id, about, build }
    }

    /// Regenerates the figure.
    pub fn run(&self, ctx: &mut Ctx) -> FigureOutput {
        let output = match self.build {
            Build::Sweep(sweep) => sweep(ctx.quick).run(),
            Build::LoadSweep(sweep) => sweep(ctx.quick).render(ctx.sweep()),
            Build::LoadView(view) => view(ctx.sweep()),
            Build::Single(single) => single(ctx.quick).run(),
            Build::Custom(build) => build(ctx.quick),
        };
        FigureOutput {
            id: self.id.into(),
            ..output
        }
    }
}

/// Every figure and table, in the order `das_bench all` runs them.
pub const FIGURES: [Figure; 29] = [
    Figure::load_sweep("fig06", "Fig. 6: mean RCT vs offered load", |quick| Sweep {
        title: "Mean RCT vs offered load",
        points: load_sweep(quick),
        notes: "Paper claim: DAS cuts mean RCT by 15-50% vs FCFS, more at higher \
                load, and stays below Rein-SBF across the sweep.",
        ..Sweep::MEAN_RCT
    }),
    Figure::load_sweep("fig07", "Fig. 7: p99 RCT vs offered load", |quick| Sweep {
        title: "p99 RCT vs offered load",
        points: load_sweep(quick),
        columns: &[("p99 RCT (ms)", p99_rct_ms)],
        reduction: false,
        notes: "Size-based priorities (SJF, Rein-SBF) often trade tail for mean; \
                DAS's aging and remaining-time view should keep p99 at or below \
                FCFS.",
    }),
    Figure {
        id: "fig08",
        about: "Fig. 8: RCT distribution (quantile table) at the reference load",
        build: Build::LoadView(fig08),
    },
    Figure::sweep("fig09", "Fig. 9: sensitivity to the fan-out distribution", |quick| {
        let cases = [
            ("constant 8", FanoutConfig::Constant { keys: 8 }),
            ("uniform 1-16", FanoutConfig::Uniform { min: 1, max: 16 }),
            ("zipf 32 (base)", scenarios::base_fanout()),
            (
                "bimodal 1/32",
                FanoutConfig::Bimodal {
                    small: 1,
                    p_small: 0.8,
                    large: 32,
                },
            ),
            ("geometric", FanoutConfig::Geometric { p: 0.3, max: 32 }),
        ];
        let sizes = scenarios::base_sizes;
        Sweep {
            title: "Sensitivity to fan-out distribution (rho=0.7)",
            points: cases.map(|(name, f)| workload_point(quick, name, f, sizes())).into(),
            notes: "Multi-get-aware policies matter most when fan-outs are skewed; with \
                    constant fan-out, request-level and op-level priorities converge.",
            ..Sweep::MEAN_RCT
        }
    }),
    Figure::sweep("fig10", "Fig. 10: sensitivity to the value-size distribution", |quick| {
        let cases = [
            ("fixed 16KB", SizeConfig::Fixed { bytes: 16 << 10 }),
            ("etc (base)", scenarios::base_sizes()),
            (
                "bimodal 1K/256K",
                SizeConfig::Bimodal {
                    small_bytes: 1 << 10,
                    p_small: 0.9,
                    large_bytes: 256 << 10,
                },
            ),
            (
                "lognormal 8KB",
                SizeConfig::Lognormal {
                    mean_bytes: 8.0 * 1024.0,
                    sigma: 1.0,
                },
            ),
        ];
        let fanout = scenarios::base_fanout;
        Sweep {
            title: "Sensitivity to value-size distribution (rho=0.7)",
            points: cases.map(|(name, s)| workload_point(quick, name, fanout(), s)).into(),
            notes: "Heavier size tails widen the gap between size-aware policies and \
                    FCFS; with fixed sizes the gap comes from fan-out structure alone.",
            ..Sweep::MEAN_RCT
        }
    }),
    Figure::single("fig11", "Fig. 11: adaptivity to a load spike", |quick| Single {
        title: "Time-varying load: 0.3 -> 0.85 -> 0.3",
        experiment: tune(scenarios::load_spike_experiment(0.3, 0.85), quick),
        tables: timeseries_tables,
        notes: "During the spike every policy degrades; DAS recovers fastest \
                because fresh tags reflect the new backlog immediately, while \
                the whole-run mean stays below Rein-SBF.",
    }),
    Figure::single(
        "fig12",
        "Fig. 12: adaptivity to time-varying server performance",
        |quick| Single {
            title: "Time-varying server performance: 5 of 50 servers 4x slower mid-run",
            experiment: tune(scenarios::server_degradation_experiment(0.6, 5, 4.0), quick),
            tables: timeseries_tables,
            notes: "Rein-SBF's static tags mis-rank ops on degraded servers; DAS's \
                    EWMA rate estimates inflate those ops' demands, so requests \
                    touching slow servers stop blocking everyone else.",
        },
    ),
    Figure::sweep("fig13", "Fig. 13: scalability with cluster size", |quick| Sweep {
        title: "Mean RCT vs cluster size (rho=0.7)",
        points: points(
            pick(quick, &[10, 50], &[10, 25, 50, 100, 200, 400]),
            |n| format!("N={n}"),
            |n| {
                // Larger clusters process proportionally more requests per
                // simulated second; shrink the horizon to keep event counts
                // comparable.
                let horizon = if quick {
                    0.5
                } else {
                    (250.0 / n as f64).clamp(0.6, 5.0)
                };
                tune(scenarios::cluster_size_experiment(0.7, n, horizon), quick)
            },
        ),
        notes: "DAS is fully distributed: its advantage persists as the cluster \
                grows, unlike centralized designs whose coordination costs \
                scale with N.",
        ..Sweep::MEAN_RCT
    }),
    Figure::sweep("fig14", "Fig. 14: skewed key popularity", |quick| Sweep {
        title: "Key popularity skew (rho=0.5, R=3)",
        points: points(
            pick(quick, &[0.0, 0.6], &[0.0, 0.3, 0.6, 0.75]),
            |theta| format!("theta={theta}"),
            |theta| tune(scenarios::key_skew_experiment(0.5, theta), quick),
        ),
        notes: "Skew concentrates load on hot shards; adaptive estimates steer \
                replicated reads away from them, widening DAS's lead.",
        ..Sweep::MEAN_RCT
    }),
    Figure::sweep("fig15", "Fig. 15: DAS component ablation", |quick| Sweep {
        title: "DAS component ablation",
        points: points(
            pick(quick, &[0.7], &[0.5, 0.7, 0.9]),
            |rho| format!("rho={rho}"),
            |rho| {
                let mut e = tune(scenarios::base_experiment(format!("rho={rho}"), rho), quick);
                e.policies = [vec![PolicyKind::Fcfs], PolicyKind::ablation_set()].concat();
                e
            },
        ),
        notes: "Removing the remaining-bottleneck term (DAS-noLRPT) degenerates \
                to aged SJF; removing adaptivity freezes tags at dispatch; \
                removing aging risks starvation (visible in Table 4, not here).",
        ..Sweep::MEAN_RCT
    }),
    Figure::sweep("fig16", "Fig. 16 (extension): bursty MMPP arrivals vs Poisson", |quick| {
        let point = |name: &str, e| (name.to_string(), tune(e, quick));
        Sweep {
            title: "Bursty arrivals (MMPP) vs Poisson",
            points: vec![
                point("poisson 0.7", scenarios::base_experiment("poisson", 0.7)),
                point("mmpp 0.4/1.0", scenarios::bursty_experiment(0.4, 1.0, [0.5, 0.5])),
                point("mmpp 0.2/1.2", scenarios::bursty_experiment(0.2, 1.2, [0.5, 0.25])),
            ],
            notes: "Bursts push servers into transient overload where scheduling \
                    matters most; DAS's piggybacked backlog estimates keep its tags \
                    honest through each burst.",
            ..Sweep::MEAN_RCT
        }
    }),
    Figure::sweep("fig17", "Fig. 17 (extension): robustness to size-estimate noise", |quick| Sweep {
        title: "Robustness to size-estimate noise (rho=0.7)",
        points: points(
            pick(quick, &[0.0, 0.5], &[0.0, 0.2, 0.5, 1.0]),
            |noise| format!("sigma={noise}"),
            |noise| tune(scenarios::estimate_noise_experiment(0.7, noise), quick),
        ),
        notes: "All size-aware policies (SJF, Rein, DAS) degrade gracefully as \
                estimates blur; FCFS is the noise-free floor they must still \
                beat. The oracle ignores noise by construction.",
        ..Sweep::MEAN_RCT
    }),
    Figure {
        id: "fig18",
        about: "Fig. 18 (extension): DAS design-parameter sensitivity",
        build: Build::Custom(fig18),
    },
    Figure::sweep("fig19", "Fig. 19 (extension): coordinator fragmentation", |quick| Sweep {
        title: "Coordinator fragmentation under server degradation (rho=0.6, 5 servers 4x slower)",
        points: points(
            pick(quick, &[1, 16], &[1, 4, 16, 64]),
            |n| format!("C={n}"),
            |n| {
                // Use the degradation scenario: with stable server rates the
                // coordinators' shared state barely matters (DAS ranks by
                // demand, not global waits); fragmentation bites when rate
                // estimates must *adapt* and each coordinator sees only a
                // slice of the reports.
                let mut e = tune(scenarios::server_degradation_experiment(0.6, 5, 4.0), quick);
                e.rct_timeseries_bin_secs = None;
                e.cluster.coordinators = n;
                e
            },
        ),
        notes: "With many coordinators each sees only a slice of the \
                responses, so per-server rate estimates adapt more slowly to \
                the degradation. DAS's advantage shrinks gracefully rather \
                than collapsing — each report still carries server-side \
                truth, only the sampling rate drops. (With stable rates, \
                fragmentation measured <0.1% effect: DAS ranks by demand, \
                not by globally shared wait state.)",
        ..Sweep::MEAN_RCT
    }),
    Figure::sweep("fig20", "Fig. 20 (extension): hint-loss robustness", |quick| Sweep {
        title: "Hint-loss robustness (rho=0.7)",
        points: points(
            pick(quick, &[0.0, 1.0], &[0.0, 0.25, 0.5, 0.9, 1.0]),
            |loss| format!("loss={loss}"),
            |loss| {
                let mut e = tune(scenarios::base_experiment("hint loss", 0.7), quick);
                e.cluster.hint_loss = loss;
                e
            },
        ),
        notes: "Losing every hint degrades DAS to dispatch-time Rein-like tags \
                with adaptive rate estimates; it must never fall below the \
                static baselines. (The oracle's hints bypass the network and \
                are unaffected by construction.)",
        ..Sweep::MEAN_RCT
    }),
    Figure::sweep("fig21", "Fig. 21 (extension): read/write mix", |quick| Sweep {
        title: "Read/write mix (rho=0.7)",
        points: points(
            pick(quick, &[0.0, 0.5], &[0.0, 0.1, 0.3, 0.5]),
            |wf| format!("writes={:.0}%", wf * 100.0),
            |wf| {
                let mut e = tune(scenarios::base_experiment("writes", 0.7), quick);
                e.workload.write_fraction = wf;
                e
            },
        ),
        notes: "Writes behave like reads for scheduling (same service model, \
                payload travels in the request instead of the response), so \
                the policy ordering is preserved across the mix; write sizes \
                are exactly known to the client, which slightly *helps* \
                size-aware policies.",
        ..Sweep::MEAN_RCT
    }),
    Figure {
        id: "fig22",
        about: "Fig. 22: fault injection — crash-stop failures with coordinator retry",
        build: Build::Sweep(|quick| Sweep {
            title: "Fault injection: crash-stop + retry (rho=0.7, R=2)",
            points: points(
                pick(quick, &[0.0, 0.1], &[0.0, 0.04, 0.1, 0.2]),
                |frac| format!("crashed={:.0}%", frac * 100.0),
                |frac| {
                    let mut e = tune(scenarios::fault_injection_experiment(0.7, frac), quick);
                    e.policies = fault_policies();
                    e
                },
            ),
            columns: &[
                ("Mean RCT (ms)", mean_rct_ms),
                ("Availability (%)", |r| r.recovery.availability() * 100.0),
                ("Retries per 1k requests", |r| per_1k_accepted(r, r.recovery.retries)),
                ("Wasted work (%)", wasted_pct),
            ],
            reduction: false,
            notes: "Crashes drop in-flight work; the retry path redispatches it to \
                    surviving replicas, so availability stays near 100% while mean \
                    RCT absorbs the redo cost. The policy ordering (DAS < Rein-SBF \
                    < FCFS) must survive the fault sweep: recovery traffic is \
                    scheduled like any other work.",
        }),
    },
    Figure {
        id: "fig23",
        about: "Fig. 23: hedged reads under gray failure, swept over the hedge quantile",
        build: Build::Sweep(|quick| Sweep {
            title: "Hedged reads under gray failure (rho=0.5, R=3, 3 servers 50x slower)",
            points: points(
                pick(quick, &[0.0, 0.95], &[0.0, 0.5, 0.9, 0.95, 0.99]),
                |q| {
                    if q == 0.0 {
                        "off".to_string()
                    } else {
                        format!("p{:.0}", q * 100.0)
                    }
                },
                |q| {
                    let mut e = tune(scenarios::hedging_experiment(0.5, q), quick);
                    e.policies = fault_policies();
                    e
                },
            ),
            columns: &[
                ("Mean RCT (ms)", mean_rct_ms),
                ("p99 RCT (ms)", p99_rct_ms),
                ("Hedges per 1k requests", |r| per_1k_accepted(r, r.recovery.hedges)),
                ("Wasted work (%)", wasted_pct),
            ],
            reduction: false,
            notes: "Gray servers answer, just 50x slower, so crash detection never \
                    fires; hedging a straggling read to another replica is the only \
                    defense. Aggressive quantiles (p50) hedge nearly everything and \
                    pay in wasted service; conservative ones (p99) fire rarely and \
                    trim only the deep tail. Load-aware policies need hedging less: \
                    their dispatch already steers around the slow replicas.",
        }),
    },
    Figure {
        id: "fig24",
        about: "Fig. 24: overload collapse vs graceful degradation past saturation",
        build: Build::Custom(fig24),
    },
    Figure {
        id: "table2",
        about: "Table 2: headline mean-RCT reductions vs FCFS (the 15-50% claim)",
        build: Build::LoadView(table2),
    },
    Figure::single("table3", "Table 3: scheduling overhead per request", |quick| Single {
        title: "Scheduling overhead (rho=0.7)",
        experiment: tune(scenarios::base_experiment("rho=0.7", 0.7), quick),
        tables: |result| vec![report::overhead_table(result)],
        notes: "Per-request coordination cost. DAS adds tens of bytes of tags \
                plus ~1 hint per completed bottleneck op; run \
                `das_perf run --workload all --trace 1` for per-decision CPU \
                cost (`sched.pair_ns.*` / `sched.hint_ns.*`).",
    }),
    Figure::single(
        "table4",
        "Table 4: slowdown by fan-out class (fairness / starvation)",
        |quick| {
            let mut experiment = tune(scenarios::base_experiment("rho=0.8", 0.8), quick);
            // Include the no-aging ablation: the starvation risk it exposes
            // is the point of this table.
            let config = DasConfig::without_aging();
            experiment.policies.push(PolicyKind::Das { config });
            Single {
                title: "Slowdown by fan-out class (rho=0.8)",
                experiment,
                tables: |result| vec![report::fairness_table(result)],
                notes: "Slowdown = RCT / zero-queueing ideal. Size-based priorities \
                        starve wide requests; DAS's aging bounds the damage.",
            }
        },
    ),
    Figure::sweep("table5", "Table 5 (extension): named workload presets at rho=0.7", |quick| {
        use das_workload::presets::WorkloadPreset::{self, CacheTier, SessionStore};
        Sweep {
            title: "Workload presets (rho=0.7)",
            points: points(
                pick(quick, &[CacheTier, SessionStore], &WorkloadPreset::ALL),
                |preset| preset.label().to_string(),
                |preset| {
                    // Single-copy reads: the skewed presets stay servable
                    // because their hottest keys are size-capped (the
                    // published hot-small correlation), so scheduling — not
                    // replica balancing — is what differentiates policies
                    // here.
                    let cluster = scenarios::base_cluster();
                    let mut workload = preset.spec(100_000, 1.0);
                    let rate = das_core::load::arrival_rate_for_load(0.7, &workload, &cluster);
                    workload.arrival = ArrivalConfig::Poisson { rate };
                    tune(ExperimentConfig::new(preset.label(), workload, cluster), quick)
                },
            ),
            notes: "The session-store preset (single-key reads) is the control: \
                    multi-get scheduling cannot help much there, and any large \
                    'gain' would indicate a bug. The social-graph preset (wide, \
                    skewed fan-outs) is where request-aware scheduling pays most.",
            ..Sweep::MEAN_RCT
        }
    }),
    Figure::single("table6", "Table 6 (extension): SLO attainment per policy", |quick| Single {
        title: "SLO attainment (rho=0.8)",
        experiment: tune(scenarios::base_experiment("rho=0.8", 0.8), quick),
        tables: |result| {
            let slos_ms = [1.0, 2.0, 5.0, 10.0];
            let columns = slos_ms.iter().map(|s| format!("<= {s} ms")).collect();
            let mut t = ComparisonTable::new("Requests meeting SLO (%)", columns);
            for run in &result.runs {
                let met = slos_ms.map(|s| run.rct.fraction_within(s * 1e-3) * 100.0);
                t.push_row(run.policy.clone(), met.into());
            }
            vec![t]
        },
        notes: "The user-experience view of the same data: tight budgets favour \
                policies that compress the body of the distribution, loose \
                budgets favour tail control.",
    }),
    Figure {
        id: "table7_rct_breakdown",
        about: "Table 7 (extension): RCT critical-path blame per policy, from the structured event trace",
        build: Build::Custom(table7),
    },
    Figure {
        id: "table8_blame_diff",
        about: "Table 8 (extension): paired blame diff FCFS → DAS at rho=0.7, the RCT delta per critical-path segment",
        build: Build::Custom(table8),
    },
    Figure {
        id: "table9_policy_ladder",
        about: "Table 9 (extension): N-way policy-ladder blame diff FCFS → Rein-SBF → DAS → DAS-tuned at rho=0.7, plus per-server occupancy telemetry",
        build: Build::Custom(table9),
    },
    Figure {
        id: "table10_scenario_corpus",
        about: "Table 10 (extension): the scenario regression corpus — committed workload traces replayed FCFS vs DAS, blame-diffed per scenario",
        build: Build::Custom(|_| table10()),
    },
    Figure {
        id: "table11_chaos_search",
        about: "Table 11 (extension): chaos search — adversarial fault schedules, oracle suite, and the committed minimized-reproducer corpus",
        build: Build::Custom(table11),
    },
];

/// The policy set shown in every figure: the standard five plus the
/// centralized oracle reference.
fn figure_policies() -> Vec<PolicyKind> {
    let mut p = PolicyKind::standard_set();
    p.push(PolicyKind::oracle());
    p
}

/// The policy set for the fault figures: the scheduling baselines the
/// paper compares against, without the oracle (whose out-of-band hints
/// would sidestep the failure model under test).
fn fault_policies() -> Vec<PolicyKind> {
    vec![PolicyKind::Fcfs, PolicyKind::ReinSbf, PolicyKind::das()]
}

/// Shortens an experiment for quick mode, rescaling every time-dependent
/// piece of the configuration (perf-event and crash windows,
/// arrival-schedule steps) onto the shorter horizon so the scenario's
/// *shape* is preserved; an unbounded window stays unbounded.
fn tune(mut e: ExperimentConfig, quick: bool) -> ExperimentConfig {
    if quick {
        let scale = 0.8 / e.horizon_secs;
        e.horizon_secs = 0.8;
        e.warmup_secs = 0.1;
        if e.rct_timeseries_bin_secs.is_some() {
            e.rct_timeseries_bin_secs = Some(0.1);
            e.warmup_secs = 0.0;
        }
        for ev in &mut e.cluster.perf_events {
            ev.start_secs *= scale;
            ev.end_secs *= scale;
        }
        for w in &mut e.faults.crashes.crashes {
            w.down_secs *= scale;
            w.up_secs *= scale;
        }
        if let ArrivalConfig::Schedule { steps, period_secs } = &mut e.workload.arrival {
            steps.iter_mut().for_each(|(start, _)| *start *= scale);
            period_secs.iter_mut().for_each(|p| *p *= scale);
        }
    }
    e.policies = figure_policies();
    e
}

/// The quick-mode or the full-mode points of a sweep.
fn pick<T: Clone>(quick: bool, quick_points: &[T], full_points: &[T]) -> Vec<T> {
    if quick { quick_points } else { full_points }.to_vec()
}

/// A number a sweep table shows for every policy at every point.
type Metric = fn(&RunResult) -> f64;

fn mean_rct_ms(r: &RunResult) -> f64 {
    r.mean_rct() * 1e3
}

fn p99_rct_ms(r: &RunResult) -> f64 {
    r.p99_rct() * 1e3
}

fn wasted_pct(r: &RunResult) -> f64 {
    r.recovery.wasted_fraction() * 100.0
}

/// `count` events per thousand accepted requests (0 for an idle run).
fn per_1k_accepted(r: &RunResult, count: u64) -> f64 {
    if r.recovery.accepted == 0 {
        0.0
    } else {
        count as f64 * 1e3 / r.recovery.accepted as f64
    }
}

/// Goodput: the fraction of *offered* requests that completed within the
/// 20 ms SLO. Unlike raw throughput, goodput charges the run for every
/// request that was shed at admission, shed from a full queue, or
/// finished too late to be useful.
fn goodput_pct(r: &RunResult) -> f64 {
    let offered = r.recovery.offered();
    if offered == 0 {
        return 0.0;
    }
    r.rct.fraction_within(scenarios::OVERLOAD_SLO_SECS) * r.completed as f64 * 100.0
        / offered as f64
}

/// A swept figure: labelled points, each one tuned experiment, shown as one
/// policies × points table per metric column, optionally followed by the
/// mean-RCT reduction vs FCFS.
struct Sweep {
    title: &'static str,
    points: Vec<(String, ExperimentConfig)>,
    columns: &'static [(&'static str, Metric)],
    reduction: bool,
    notes: &'static str,
}

impl Sweep {
    /// The usual shape, completed per figure: mean RCT, then the reduction
    /// vs FCFS.
    const MEAN_RCT: Sweep = Sweep {
        title: "",
        points: Vec::new(),
        columns: &[("Mean RCT (ms)", mean_rct_ms)],
        reduction: true,
        notes: "",
    };

    /// Runs every point, then renders the figure.
    fn run(self) -> FigureOutput {
        self.render(&run_points(&self.points))
    }

    /// Renders the figure from the points' results.
    fn render(&self, results: &Results) -> FigureOutput {
        let mut f = FigureOutput::new(self.title);
        f.tables = self
            .columns
            .iter()
            .map(|&(title, metric)| cross_scenario_table(title, results, metric))
            .collect();
        if self.reduction {
            f.tables.push(reduction_table(results));
        }
        f.notes = self.notes.into();
        f
    }
}

/// A figure of one experiment: the tables `tables` builds from its result.
struct Single {
    title: &'static str,
    experiment: ExperimentConfig,
    tables: fn(&ExperimentResult) -> Vec<ComparisonTable>,
    notes: &'static str,
}

impl Single {
    /// Runs the experiment, then renders the figure.
    fn run(self) -> FigureOutput {
        let result = self.experiment.run().expect("valid experiment");
        FigureOutput {
            tables: (self.tables)(&result),
            notes: self.notes.into(),
            ..FigureOutput::new(self.title)
        }
    }
}

/// Figs. 11 and 12: mean RCT per time bin, then the whole-run table.
fn timeseries_tables(result: &ExperimentResult) -> Vec<ComparisonTable> {
    let per_bin = report::timeseries_table(result, "Mean RCT per bin (ms)");
    per_bin.into_iter().chain([result.table()]).collect()
}

/// One point per swept value: its label and its experiment.
fn points<T: Copy>(
    values: Vec<T>,
    label: impl Fn(T) -> String,
    experiment: impl Fn(T) -> ExperimentConfig,
) -> Vec<(String, ExperimentConfig)> {
    values
        .into_iter()
        .map(|v| (label(v), experiment(v)))
        .collect()
}

/// Runs every point's experiment.
fn run_points(points: &[(String, ExperimentConfig)]) -> Vec<(String, ExperimentResult)> {
    points
        .iter()
        .map(|(label, e)| (label.clone(), e.run().expect("valid sweep experiment")))
        .collect()
}

/// One row per policy of the first point but `skip`, one column per point,
/// `value` in each cell (NaN where it has none).
fn points_table(
    title: &str,
    results: &Results,
    skip: &str,
    value: impl Fn(&ExperimentResult, &str) -> Option<f64>,
) -> ComparisonTable {
    let columns = results.iter().map(|(name, _)| name.clone()).collect();
    let mut t = ComparisonTable::new(title, columns);
    for run in results[0].1.runs.iter().filter(|r| r.policy != skip) {
        let values = results.iter().map(|(_, res)| value(res, &run.policy));
        t.push_row(&run.policy, values.map(|v| v.unwrap_or(f64::NAN)).collect());
    }
    t
}

/// A policies × points table of `metric`.
fn cross_scenario_table(title: &str, results: &Results, metric: Metric) -> ComparisonTable {
    points_table(title, results, "", |res, p| res.run(p).map(metric))
}

/// The mean-RCT reduction vs FCFS of every other policy, per point.
fn reduction_table(results: &Results) -> ComparisonTable {
    let title = "Mean RCT reduction vs FCFS (%)";
    points_table(title, results, "FCFS", |res, p| res.reduction_vs(p, "FCFS"))
}

/// Owned column names.
fn names(columns: &[&str]) -> Vec<String> {
    columns.iter().map(|c| c.to_string()).collect()
}

/// The base scenario across the Fig. 6/7 loads (shared by Figs. 6–8 and
/// Table 2).
fn load_sweep(quick: bool) -> Vec<(String, ExperimentConfig)> {
    let full = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    points(
        pick(quick, &[0.3, 0.7], &full),
        |rho| format!("rho={rho}"),
        |rho| tune(scenarios::base_experiment(format!("rho={rho}"), rho), quick),
    )
}

/// Fig. 8: RCT CDF at the reference load, the load sweep's rho=0.7 point.
fn fig08(sweep: &Results) -> FigureOutput {
    let (rho, result) = sweep
        .iter()
        .find(|(rho, _)| rho == "rho=0.7")
        .expect("the load sweep has rho=0.7");
    let mut f = FigureOutput::new(format!("RCT distribution at {rho}"));
    let quantiles = [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999];
    let mut t = ComparisonTable::new(
        "RCT quantiles (ms)",
        result.runs.iter().map(|r| r.policy.clone()).collect(),
    );
    for q in quantiles {
        t.push_row(
            format!("p{}", q * 100.0),
            result
                .runs
                .iter()
                .map(|r| r.rct.quantile(q).unwrap_or(f64::NAN) * 1e3)
                .collect(),
        );
    }
    f.tables.push(t);
    f.notes = "The CDF shape: DAS compresses the body (small requests finish \
               fast) without fattening the extreme tail."
        .into();
    f
}

/// A point of Figs. 9 and 10: the base cluster at rho=0.7 under a workload
/// with the given fan-out and size distributions and uniform popularity.
fn workload_point(
    quick: bool,
    name: &str,
    fanout: FanoutConfig,
    sizes: SizeConfig,
) -> (String, ExperimentConfig) {
    let cluster = scenarios::base_cluster();
    let workload =
        scenarios::custom_workload(0.7, &cluster, fanout, sizes, PopularityConfig::Uniform);
    let e = ExperimentConfig::new(name, workload, cluster);
    (name.to_string(), tune(e, quick))
}

/// Fig. 18's columns; the fallback table shows the first two.
const KNOB_COLUMNS: [(&str, Metric); 3] = [
    ("mean RCT (ms)", mean_rct_ms),
    ("p99 RCT (ms)", p99_rct_ms),
    ("max slowdown", |r| r.slowdown.overall_max()),
];

/// One Fig. 18 table, `title`: the base experiment at rho=0.8 run once,
/// with one DAS policy per value of the knob `set` writes, shown a row per
/// value labelled `row` + value.
fn das_knob_table<T: Copy + std::fmt::Display>(
    quick: bool,
    title: &str,
    row: &str,
    values: Vec<T>,
    set: fn(&mut DasConfig, T),
    columns: &[(&str, Metric)],
) -> ComparisonTable {
    let mut e = tune(scenarios::base_experiment(title, 0.8), quick);
    let policy = |&v: &T| {
        let mut config = DasConfig::default();
        set(&mut config, v);
        PolicyKind::Das { config }
    };
    e.policies = values.iter().map(policy).collect();
    let result = e.run().expect("valid DAS parameter sweep");
    let mut t = ComparisonTable::new(title, columns.iter().map(|c| c.0.to_string()).collect());
    for (v, run) in values.iter().zip(&result.runs) {
        t.push_row(
            format!("{row}{v}"),
            columns.iter().map(|(_, m)| m(run)).collect(),
        );
    }
    t
}

/// Fig. 18 (extension): DAS design-parameter sensitivity — the aging
/// factor and the FCFS fallback threshold called out in DESIGN.md.
fn fig18(quick: bool) -> FigureOutput {
    let mut f = FigureOutput::new("DAS parameter sensitivity (rho=0.8)");
    f.tables = vec![
        das_knob_table(
            quick,
            "Starvation-guard factor sweep",
            "guard=",
            pick(quick, &[0.0, 8.0], &[0.0, 2.0, 4.0, 8.0, 16.0, 64.0]),
            |c, v| c.starvation_factor = v,
            &KNOB_COLUMNS,
        ),
        das_knob_table(
            quick,
            "Load-normalized aging sweep",
            "aging=",
            pick(quick, &[0.0, 0.1], &[0.0, 0.03, 0.1, 0.3, 1.0, 3.0]),
            |c, v| c.aging = v,
            &KNOB_COLUMNS,
        ),
        das_knob_table(
            quick,
            "FCFS fallback threshold sweep",
            "fallback<=",
            pick(quick, &[1, 8], &[0, 1, 2, 4, 8, 16]),
            |c, v| c.fcfs_fallback_len = v,
            &KNOB_COLUMNS[..2],
        ),
    ];
    f.notes = "The adaptive guard bounds the worst case at negligible mean \
               cost because its threshold scales with congestion; a \
               continuous aging credit instead grows past the demand scale \
               at high load and collapses the ranking toward FCFS. The \
               fallback threshold only matters once it exceeds typical \
               queue depths."
        .into();
    f
}

/// Fig. 24 (extension): overload collapse and graceful degradation —
/// offered load swept through and past saturation, with timeout-based
/// retries armed, comparing the uncontrolled store against the full
/// overload-control layer (deadline admission + bounded queues + retry
/// token budget + tiny-op batching).
fn fig24(quick: bool) -> FigureOutput {
    let loads = pick(quick, &[0.7, 1.3], &[0.5, 0.7, 0.9, 1.1, 1.3, 1.5]);
    let arm = |controlled: bool| {
        run_points(&points(
            loads.clone(),
            |rho| format!("rho={rho}"),
            |rho| {
                let mut e = tune(scenarios::overload_experiment(rho, controlled), quick);
                // The paper's FCFS baseline against DAS, with and without
                // the overload-control layer.
                e.policies = vec![PolicyKind::Fcfs, PolicyKind::das()];
                e
            },
        ))
    };
    let (unc, ctl) = (arm(false), arm(true));
    let tables: [(&str, &Results, Metric); 8] = [
        (
            "Goodput, uncontrolled (% of offered within SLO)",
            &unc,
            goodput_pct,
        ),
        (
            "Goodput, controlled (% of offered within SLO)",
            &ctl,
            goodput_pct,
        ),
        ("Shed, controlled (% of offered)", &ctl, |r| {
            r.recovery.shed_fraction() * 100.0
        }),
        ("p99 RCT, uncontrolled (ms)", &unc, p99_rct_ms),
        ("p99 RCT, controlled (ms)", &ctl, p99_rct_ms),
        ("Retries per 1k accepted, uncontrolled", &unc, |r| {
            per_1k_accepted(r, r.recovery.retries)
        }),
        ("Retries denied per 1k accepted, controlled", &ctl, |r| {
            per_1k_accepted(r, r.recovery.retries_denied)
        }),
        ("Mean batch size, controlled", &ctl, |r| {
            r.recovery.batching.mean_batch_size()
        }),
    ];
    let mut f =
        FigureOutput::new("Overload collapse vs graceful degradation (R=2, 20ms SLO, retry x3)");
    f.tables = tables
        .iter()
        .map(|&(title, results, metric)| cross_scenario_table(title, results, metric))
        .collect();
    f.notes = "Past rho=1 the uncontrolled store enters congestion collapse: \
               queues grow without bound, every attempt blows its 20ms \
               deadline, and the retry path multiplies the offered work, so \
               goodput heads toward zero. The controlled store sheds exactly \
               the work it cannot finish in time (deadline admission + \
               128-deep queues), caps recovery traffic with a token budget, \
               and coalesces tiny ops; accepted requests keep completing \
               within the SLO, so goodput degrades gracefully and p99 stays \
               bounded."
        .into();
    f
}

/// Table 2: headline mean-RCT reductions (the abstract's 15-50% claim).
fn table2(sweep: &Results) -> FigureOutput {
    let mut f = FigureOutput::new("Headline reductions vs FCFS");
    let mut t = ComparisonTable::new(
        "Mean RCT and reductions",
        names(&[
            "FCFS (ms)",
            "Rein-SBF (ms)",
            "DAS (ms)",
            "Rein vs FCFS (%)",
            "DAS vs FCFS (%)",
            "DAS vs Rein (%)",
        ]),
    );
    for (label, res) in sweep {
        let ms = |p| res.mean_rct(p).unwrap_or(f64::NAN) * 1e3;
        let vs = |p, base| -res.reduction_vs(p, base).unwrap_or(f64::NAN);
        t.push_row(
            format!("base {label}"),
            vec![
                ms("FCFS"),
                ms("Rein-SBF"),
                ms("DAS"),
                vs("Rein-SBF", "FCFS"),
                vs("DAS", "FCFS"),
                vs("DAS", "Rein-SBF"),
            ],
        );
    }
    f.tables.push(t);
    f.notes = "Negative percentages are reductions. Paper claim: DAS cuts mean \
               RCT by more than 15-50% vs FCFS and outperforms Rein-SBF."
        .into();
    f
}

/// The rho=0.7 base experiment under `policies` with structured tracing
/// on, as Tables 7–9 run it. Full runs see far more requests than the ring
/// can hold, so they trace a deterministic per-request sample; the sampling
/// hash depends only on (seed, request id), so every policy traces the
/// *same* request set and every sampled request matches across them.
fn traced_base(quick: bool, policies: Vec<PolicyKind>) -> ExperimentConfig {
    let mut e = tune(scenarios::base_experiment("rho=0.7", 0.7), quick);
    e.policies = policies;
    e.trace = das_trace::TraceConfig::enabled();
    if !quick {
        e.trace.sample = 0.25;
    }
    e
}

/// Every run's event log, in policy order.
fn traces(result: &ExperimentResult) -> Vec<&TraceLog> {
    result
        .runs
        .iter()
        .map(|r| r.trace.as_ref().expect("every run was traced"))
        .collect()
}

/// Folds `log` into per-server counter tracks (busy %, demand, depth,
/// rates) for `e`'s cluster — the numbers `das_experiment top` prints.
fn telemetry(e: &ExperimentConfig, log: &TraceLog) -> das_trace::Telemetry {
    let cfg = das_trace::TelemetryConfig {
        workers: e.cluster.workers_per_server,
        ..das_trace::TelemetryConfig::default()
    };
    das_trace::telemetry::fold(log, &cfg)
}

/// Table 7 (extension): RCT critical-path blame at rho=0.7 — for each
/// policy, which pipeline stage (coordinator stall, request network,
/// queueing, service, response network) the *last-finishing* op of each
/// traced request spent its RCT in, reconstructed from the structured
/// event trace. Also writes the DAS run's Chrome `trace_event` file
/// (loadable in Perfetto) next to the table.
fn table7(quick: bool) -> FigureOutput {
    let e = traced_base(quick, figure_policies());
    let result = e.run().expect("valid base experiment");
    let mut f = FigureOutput::new("RCT critical-path blame (rho=0.7)");
    f.tables
        .push(report::blame_table(&result).expect("tracing was enabled"));
    f.notes = String::from(
        "Where the completion time actually goes: the five segments follow \
         the last-finishing op of each traced request and sum exactly to \
         its RCT. Queue share is what scheduling can attack — DAS trades a \
         slice of bottleneck-op queueing for shorter requests overall.",
    );
    if let Some(chart) = das_metrics::ascii::stacked_bars(&report::blame_rows(&result), 40) {
        f.notes.push_str("\n\nmean RCT blame per policy (ms):\n");
        f.notes.push_str(&chart);
    }
    if let Some(das) = result.run("DAS").and_then(|r| r.trace.as_ref()) {
        // The telemetry tracks ride along in the Perfetto view.
        let telemetry = telemetry(&e, das);
        persist_with("table7_das.chrome.json", |w| {
            das_trace::export::write_chrome_with_telemetry(das, &telemetry, w)
        });
    }
    f
}

/// Table 8 (extension): blame diff of fig06's rho=0.7 point, FCFS vs DAS —
/// the same seeded workload traced under both policies, requests matched by
/// id, and the RCT *delta* attributed per critical-path segment (the signed
/// per-request deltas telescope exactly to each RCT delta). Also persists
/// both JSONL event logs next to the table so
/// `das_experiment blame-diff` can be run on them directly.
fn table8(quick: bool) -> FigureOutput {
    // Exactly the baseline and the paper's policy.
    let e = traced_base(quick, vec![PolicyKind::Fcfs, PolicyKind::das()]);
    let result = e.run().expect("valid base experiment");
    let logs = traces(&result);
    let diff = das_trace::diff_traces(logs[0], logs[1]).expect("same seeded workload");

    let mut f = FigureOutput::new("Blame diff FCFS → DAS (rho=0.7)");
    f.tables = report::blame_diff_tables("FCFS", "DAS", &diff);
    f.notes = String::from(
        "Where DAS's speedup actually comes from: the same seeded workload \
         traced under both policies, requests matched by id, and the RCT \
         delta attributed per critical-path segment. The per-request segment \
         deltas telescope exactly (integer ns) to each RCT delta, so the \
         'mean Δ' column sums to the total-RCT row without residue.",
    );
    let chart = report::delta_chart("FCFS", "DAS", &diff, "dominant improvement");
    if !chart.is_empty() {
        f.notes.push_str("\n\n");
        f.notes.push_str(&chart);
    }

    // Persist the raw event logs so the CLI path (`das_experiment
    // blame-diff results/table8_fcfs.jsonl results/table8_das.jsonl`) can
    // be exercised on exactly this data — CI smokes that end to end.
    for (name, log) in ["table8_fcfs.jsonl", "table8_das.jsonl"].iter().zip(logs) {
        persist_with(name, |w| das_trace::export::write_jsonl(log, w));
    }
    f
}

/// Table 9 (extension): N-way policy-ladder blame diff at rho=0.7 — the
/// same seeded workload traced under FCFS → Rein-SBF → DAS → DAS-tuned
/// (stronger aging), requests matched by id across *all four* rungs, and
/// each adjacent step's RCT delta attributed per critical-path segment.
/// Because every step is diffed over the single common request population,
/// the per-step deltas telescope exactly (integer ns) to the end-to-end
/// FCFS → DAS-tuned delta. Also folds the DAS rung's event stream into
/// per-server occupancy telemetry and persists all four JSONL event logs
/// so `das_experiment blame-diff --ladder` can be run on them directly.
fn table9(quick: bool) -> FigureOutput {
    // Exactly these rungs, in this order. The tuned rung triples the aging
    // strength — the knob Fig. 18 sweeps — so the last step isolates what
    // aging alone buys. `Das::name()` still reports "DAS" for any aged
    // config, so rung labels are fixed here (and in the CLI via
    // `--ladder`), not derived from the scheduler.
    let tuned = DasConfig {
        aging: 0.3,
        ..DasConfig::default()
    };
    let policies = vec![
        PolicyKind::Fcfs,
        PolicyKind::ReinSbf,
        PolicyKind::das(),
        PolicyKind::Das { config: tuned },
    ];
    let e = traced_base(quick, policies);
    let result = e.run().expect("valid base experiment");
    let rungs = names(&["FCFS", "Rein-SBF", "DAS", "DAS-tuned"]);
    // Runs are positional: the two DAS configs share the name "DAS", so
    // lookups by name would both find the default rung.
    let logs = traces(&result);
    assert_eq!(logs.len(), rungs.len(), "one run per rung");
    let ladder = das_trace::ladder_diff(&logs).expect("same seeded workload");

    let mut f =
        FigureOutput::new("Policy-ladder blame diff FCFS → Rein-SBF → DAS → DAS-tuned (rho=0.7)");
    f.tables = report::ladder_tables(&rungs, &ladder);
    // Fold the default-DAS rung into per-server occupancy telemetry.
    f.tables
        .push(report::telemetry_table(&telemetry(&e, logs[2])));
    f.notes = String::from(
        "The pairwise blame diff generalized to a ladder: one seeded \
         workload, four policies, requests matched by id across every rung, \
         each adjacent step's RCT delta attributed per critical-path \
         segment. All steps share one common request population, so the \
         per-step deltas telescope exactly (integer ns) to the end-to-end \
         column — improvements decompose rung by rung without residue. The \
         telemetry table folds the DAS rung's event stream into per-server \
         occupancy counters (busy + idle == workers x horizon, exactly).",
    );
    let dominant = "dominant end-to-end improvement";
    let chart = report::delta_chart("FCFS", "DAS-tuned", &ladder.end_to_end, dominant);
    if !chart.is_empty() {
        f.notes.push_str("\n\n");
        f.notes.push_str(&chart);
    }

    // Persist the raw event logs so the CLI path (`das_experiment
    // blame-diff --ladder FCFS,Rein-SBF,DAS,DAS-tuned <logs...>`) can be
    // exercised on exactly this data — CI smokes that end to end.
    for (stem, log) in ["fcfs", "rein_sbf", "das", "das_tuned"].iter().zip(logs) {
        persist_with(&format!("table9_{stem}.jsonl"), |w| {
            das_trace::export::write_jsonl(log, w)
        });
    }
    f
}

/// Table 10 (extension): the scenario regression corpus — four committed
/// workload traces (diurnal load curve, flash-crowd key storm, slow-disk
/// gray failure, rolling restart) replayed under FCFS vs DAS via the
/// record→replay pipeline, with each scenario's RCT delta blame-diffed
/// per critical-path segment. Unlike every other figure, the workloads
/// are *not* regenerated or rescaled by quick mode: the committed traces
/// under `crates/workload/corpus/` are the regression corpus, pinned
/// byte-for-byte by the test suite, so this table is reproducible down to
/// the bit across machines and sessions.
fn table10() -> FigureOutput {
    let mut rows: Vec<(String, das_trace::TraceDiff)> = Vec::new();
    let mut results: Vec<(String, ExperimentResult)> = Vec::new();
    for s in scenarios::scenario_corpus() {
        let trace = s.load_trace().unwrap_or_else(|e| {
            panic!(
                "{}: committed corpus trace unreadable ({e}); regenerate with \
                 `cargo test --release --test scenario_corpus -- --ignored`",
                s.slug
            )
        });
        let mut e = s.experiment;
        e.policies = vec![PolicyKind::Fcfs, PolicyKind::das()];
        e.trace = das_trace::TraceConfig::enabled();
        let result = e.run_trace(&trace).expect("valid corpus scenario");
        let logs = traces(&result);
        let diff = das_trace::diff_traces(logs[0], logs[1]).expect("both replay the same trace");
        // Persist both event logs so `das_experiment blame-diff` (and
        // `top`) can be exercised on exactly this data — CI smokes that.
        for (log, policy) in logs.into_iter().zip(["fcfs", "das"]) {
            persist_with(&format!("table10_{}_{policy}.jsonl", s.slug), |w| {
                das_trace::export::write_jsonl(log, w)
            });
        }
        rows.push((s.title.to_string(), diff));
        results.push((s.slug.to_string(), result));
    }
    let mut f =
        FigureOutput::new("Scenario regression corpus — FCFS vs DAS over committed replay traces");
    f.tables = vec![
        cross_scenario_table("Mean RCT (ms)", &results, mean_rct_ms),
        reduction_table(&results),
        report::corpus_diff_table("FCFS", "DAS", &rows),
    ];
    f.notes = "Each scenario replays a committed, validated workload trace \
               (exact integer-ns arrivals, ids preserved) against FCFS and \
               DAS; the per-scenario blame diff matches requests by id, and \
               its five Δ columns sum exactly to the Δ total column — the \
               telescoping invariant, corpus-wide. Quick mode does not \
               rescale these runs: the corpus is the fixed regression \
               baseline."
        .into();
    f
}

/// Table 11 (extension): chaos search — adversarial fault-schedule
/// fuzzing over the FCFS/DAS pair. Runs a seeded, budgeted search
/// (deterministic: same seed, same bytes), reports oracle hit counts, the
/// worst DAS-vs-FCFS inversion, and the delta-debug shrink audit of every
/// finding — then replays the **committed** reproducer corpus
/// (`crates/chaos/corpus/`) and panics unless every recorded verdict
/// still fires. Quick mode shrinks the search budget; the corpus replay
/// is identical in both modes (minimized cases are sub-second runs).
fn table11(quick: bool) -> FigureOutput {
    let cfg = das_chaos::ChaosConfig {
        seed: 3,
        budget: if quick { 4 } else { 40 },
        shrink_budget: if quick { 20 } else { 150 },
        ..das_chaos::ChaosConfig::default()
    };
    let outcome = das_chaos::search(&cfg).expect("chaos search runs");
    let report = &outcome.report;

    let mut f = FigureOutput::new(
        "Chaos search — adversarial fault schedules, oracle suite, minimized reproducers",
    );

    let mut hits = ComparisonTable::new(
        format!(
            "Oracle hits (seed {}, {} cases, {} simulations)",
            report.seed, report.cases_run, report.sim_runs
        ),
        names(&["hits"]),
    );
    for oracle in das_chaos::oracle::ALL_ORACLES {
        let count = report.oracle_hits.get(oracle).copied().unwrap_or(0);
        hits.push_row(oracle, vec![count as f64]);
    }
    f.tables.push(hits);

    if let Some(w) = &report.worst_inversion {
        let mut t = ComparisonTable::new(
            "Worst DAS-vs-FCFS inversion found",
            names(&["DAS/FCFS ratio", "FCFS mean (ms)", "DAS mean (ms)"]),
        );
        t.push_row(
            format!("case{:04}", w.case_index),
            vec![w.ratio, w.fcfs_mean_ms, w.das_mean_ms],
        );
        f.tables.push(t);
    }

    if !report.findings.is_empty() {
        let mut t = ComparisonTable::new(
            "Findings (delta-debug shrink audit)",
            names(&["size before", "size after", "shrink evals", "measure"]),
        );
        for s in &report.findings {
            t.push_row(
                format!("{} ({}, {})", s.slug, s.oracle, s.policy),
                vec![
                    s.size_before as f64,
                    s.size_after as f64,
                    s.shrink_evals as f64,
                    s.measure,
                ],
            );
        }
        f.tables.push(t);
    }

    // The committed corpus: replay every minimized reproducer and show
    // what each one demonstrates. Verdict drift is a hard failure — the
    // corpus is the regression baseline, not an illustration.
    let corpus =
        das_chaos::read_corpus(&das_chaos::corpus_dir()).expect("committed corpus readable");
    let mut t = ComparisonTable::new(
        "Committed reproducer corpus (crates/chaos/corpus)",
        names(&[
            "trace reqs",
            "case size",
            "FCFS mean (ms)",
            "DAS mean (ms)",
            "measure",
        ]),
    );
    for r in &corpus {
        let paired = r.case.run_paired().expect("reproducer case runs");
        r.verify(&das_chaos::OracleConfig::default())
            .unwrap_or_else(|e| panic!("corpus verdict drifted: {e}"));
        t.push_row(
            format!("{} ({}, {})", r.slug, r.oracle, r.policy),
            vec![
                r.case.trace.len() as f64,
                das_chaos::size_metric(&r.case) as f64,
                paired.fcfs.mean_rct() * 1e3,
                paired.das.mean_rct() * 1e3,
                r.measure,
            ],
        );
    }
    f.tables.push(t);

    f.notes = "The search is a pure function of (seed, budget): oracle hit \
               counts and findings are byte-stable across machines. Physics \
               oracles (conservation, exactly-once, telescoping) hitting \
               zero is the pass condition — they fire only on engine bugs. \
               das-regression findings are adversarial fault schedules that \
               make DAS *lose* to FCFS (ratio > 1.05); each committed \
               reproducer is delta-debug minimized and re-verified on every \
               run of this table. Regenerate the corpus with `cargo test \
               --release --test chaos_corpus -- --ignored`."
        .into();
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let ids: std::collections::BTreeSet<&str> = FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(ids.len(), 29);
    }

    #[test]
    fn quick_mode_keeps_every_window_inside_the_horizon() {
        // Every experiment a registry sweep or single-experiment figure runs
        // in quick mode, plus fig24's two arms.
        let mut experiments: Vec<ExperimentConfig> = FIGURES
            .iter()
            .flat_map(|f| match f.build {
                Build::Sweep(s) | Build::LoadSweep(s) => {
                    s(true).points.into_iter().map(|p| p.1).collect()
                }
                Build::Single(s) => vec![s(true).experiment],
                Build::LoadView(_) | Build::Custom(_) => Vec::new(),
            })
            .collect();
        experiments
            .extend([false, true].map(|c| tune(scenarios::overload_experiment(1.3, c), true)));
        let (mut perf, mut crashes, mut schedules) = (0, 0, 0);
        for e in &experiments {
            let h = e.horizon_secs;
            assert_eq!(h, 0.8, "{}", e.name);
            let starts = |t: f64| (0.0..h).contains(&t);
            let ends = |t: f64| (0.0..=h).contains(&t) || t == f64::INFINITY;
            for ev in &e.cluster.perf_events {
                assert!(starts(ev.start_secs) && ends(ev.end_secs), "{}", e.name);
                perf += 1;
            }
            for w in &e.faults.crashes.crashes {
                assert!(starts(w.down_secs) && ends(w.up_secs), "{}", e.name);
                crashes += 1;
            }
            if let ArrivalConfig::Schedule { steps, period_secs } = &e.workload.arrival {
                assert!(steps.iter().all(|&(t, _)| starts(t)), "{}", e.name);
                assert!(period_secs.is_none_or(|p| p <= h), "{}", e.name);
                schedules += 1;
            }
        }
        // Every kind of window occurs, so no check above is vacuous.
        assert!(perf > 0 && crashes > 0 && schedules > 0);
    }
}
