//! One function per figure/table of the evaluation, reached through the
//! [`FIGURES`] registry. Each returns a [`FigureOutput`] that `das_bench`
//! prints and persists.
//!
//! Every function honours quick mode (`DAS_QUICK=1`): shorter horizons and
//! sparser sweeps so the whole suite smoke-tests in seconds.

use das_core::experiment::{ExperimentConfig, ExperimentResult};
use das_core::report;
use das_core::scenarios;
use das_metrics::summary::ComparisonTable;
use das_sched::policy::PolicyKind;
use das_workload::spec::{FanoutConfig, PopularityConfig, SizeConfig};

use crate::output::{persist_with, FigureOutput};

/// What a registry entry runs with: the mode, and the load sweep that
/// fig06, fig07, fig08 and table2 share.
#[derive(Debug)]
pub struct Ctx {
    /// Quick mode (`DAS_QUICK=1`).
    pub quick: bool,
    sweep: Option<Vec<(f64, ExperimentResult)>>,
}

impl Ctx {
    /// A context with the sweep not yet run.
    pub fn new(quick: bool) -> Self {
        Ctx { quick, sweep: None }
    }

    /// The base scenario across the load sweep, run on first use and at
    /// most once per process.
    fn sweep(&mut self) -> &[(f64, ExperimentResult)] {
        let quick = self.quick;
        self.sweep.get_or_insert_with(|| run_load_sweep(quick))
    }
}

/// One figure or table of the evaluation.
#[derive(Debug)]
pub struct Figure {
    /// The id `das_bench` takes; equals the [`FigureOutput::id`] that `run`
    /// returns, so it also names `results/<id>.{md,json}`.
    pub id: &'static str,
    /// One line on what the figure shows.
    pub about: &'static str,
    /// Regenerates the figure.
    pub run: fn(&mut Ctx) -> FigureOutput,
}

/// Every figure and table, in the order `das_bench all` runs them.
pub const FIGURES: [Figure; 29] = [
    Figure {
        id: "fig06",
        about: "Fig. 6: mean RCT vs offered load",
        run: |c| fig06(c.sweep()),
    },
    Figure {
        id: "fig07",
        about: "Fig. 7: p99 RCT vs offered load",
        run: |c| fig07(c.sweep()),
    },
    Figure {
        id: "fig08",
        about: "Fig. 8: RCT distribution (quantile table) at the reference load",
        run: |c| fig08(c.sweep()),
    },
    Figure {
        id: "fig09",
        about: "Fig. 9: sensitivity to the fan-out distribution",
        run: |c| fig09(c.quick),
    },
    Figure {
        id: "fig10",
        about: "Fig. 10: sensitivity to the value-size distribution",
        run: |c| fig10(c.quick),
    },
    Figure {
        id: "fig11",
        about: "Fig. 11: adaptivity to a load spike",
        run: |c| fig11(c.quick),
    },
    Figure {
        id: "fig12",
        about: "Fig. 12: adaptivity to time-varying server performance",
        run: |c| fig12(c.quick),
    },
    Figure {
        id: "fig13",
        about: "Fig. 13: scalability with cluster size",
        run: |c| fig13(c.quick),
    },
    Figure {
        id: "fig14",
        about: "Fig. 14: skewed key popularity",
        run: |c| fig14(c.quick),
    },
    Figure {
        id: "fig15",
        about: "Fig. 15: DAS component ablation",
        run: |c| fig15(c.quick),
    },
    Figure {
        id: "fig16",
        about: "Fig. 16 (extension): bursty MMPP arrivals vs Poisson",
        run: |c| fig16(c.quick),
    },
    Figure {
        id: "fig17",
        about: "Fig. 17 (extension): robustness to size-estimate noise",
        run: |c| fig17(c.quick),
    },
    Figure {
        id: "fig18",
        about: "Fig. 18 (extension): DAS design-parameter sensitivity",
        run: |c| fig18(c.quick),
    },
    Figure {
        id: "fig19",
        about: "Fig. 19 (extension): coordinator fragmentation",
        run: |c| fig19(c.quick),
    },
    Figure {
        id: "fig20",
        about: "Fig. 20 (extension): hint-loss robustness",
        run: |c| fig20(c.quick),
    },
    Figure {
        id: "fig21",
        about: "Fig. 21 (extension): read/write mix",
        run: |c| fig21(c.quick),
    },
    Figure {
        id: "fig22",
        about: "Fig. 22: fault injection — crash-stop failures with coordinator retry",
        run: |c| fig22(c.quick),
    },
    Figure {
        id: "fig23",
        about: "Fig. 23: hedged reads under gray failure, swept over the hedge quantile",
        run: |c| fig23(c.quick),
    },
    Figure {
        id: "fig24",
        about: "Fig. 24: overload collapse vs graceful degradation past saturation",
        run: |c| fig24(c.quick),
    },
    Figure {
        id: "table2",
        about: "Table 2: headline mean-RCT reductions vs FCFS (the 15-50% claim)",
        run: |c| table2(c.sweep()),
    },
    Figure {
        id: "table3",
        about: "Table 3: scheduling overhead per request",
        run: |c| table3(c.quick),
    },
    Figure {
        id: "table4",
        about: "Table 4: slowdown by fan-out class (fairness / starvation)",
        run: |c| table4(c.quick),
    },
    Figure {
        id: "table5",
        about: "Table 5 (extension): named workload presets at rho=0.7",
        run: |c| table5(c.quick),
    },
    Figure {
        id: "table6",
        about: "Table 6 (extension): SLO attainment per policy",
        run: |c| table6(c.quick),
    },
    Figure {
        id: "table7_rct_breakdown",
        about: "Table 7 (extension): RCT critical-path blame per policy, from the structured event trace",
        run: |c| table7(c.quick),
    },
    Figure {
        id: "table8_blame_diff",
        about: "Table 8 (extension): paired blame diff FCFS → DAS at rho=0.7, the RCT delta per critical-path segment",
        run: |c| table8(c.quick),
    },
    Figure {
        id: "table9_policy_ladder",
        about: "Table 9 (extension): N-way policy-ladder blame diff FCFS → Rein-SBF → DAS → DAS-tuned at rho=0.7, plus per-server occupancy telemetry",
        run: |c| table9(c.quick),
    },
    Figure {
        id: "table10_scenario_corpus",
        about: "Table 10 (extension): the scenario regression corpus — committed workload traces replayed FCFS vs DAS, blame-diffed per scenario",
        run: |_| table10(),
    },
    Figure {
        id: "table11_chaos_search",
        about: "Table 11 (extension): chaos search — adversarial fault schedules, oracle suite, and the committed minimized-reproducer corpus",
        run: |c| table11(c.quick),
    },
];

/// The policy set shown in every figure: the standard five plus the
/// centralized oracle reference.
fn figure_policies() -> Vec<PolicyKind> {
    let mut p = PolicyKind::standard_set();
    p.push(PolicyKind::oracle());
    p
}

/// Shortens an experiment for quick mode, rescaling every time-dependent
/// piece of the configuration (perf-event windows, arrival-schedule steps)
/// onto the shorter horizon so the scenario's *shape* is preserved.
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
            if ev.end_secs.is_finite() {
                ev.end_secs *= scale;
            }
        }
        for w in &mut e.faults.crashes.crashes {
            w.down_secs *= scale;
            if w.up_secs.is_finite() {
                w.up_secs *= scale;
            }
        }
        if let das_workload::spec::ArrivalConfig::Schedule { steps, period_secs } =
            &mut e.workload.arrival
        {
            for (start, _) in steps.iter_mut() {
                *start *= scale;
            }
            if let Some(p) = period_secs {
                *p *= scale;
            }
        }
    }
    e.policies = figure_policies();
    e
}

/// The load points of the Fig. 6/7 sweep.
fn load_points(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.3, 0.7]
    } else {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    }
}

/// Runs the base scenario across the load sweep (shared by Figs. 6–8 and
/// Table 2).
fn run_load_sweep(quick: bool) -> Vec<(f64, ExperimentResult)> {
    load_points(quick)
        .into_iter()
        .map(|rho| {
            let e = tune(scenarios::base_experiment(format!("rho={rho}"), rho), quick);
            (rho, e.run().expect("valid base experiment"))
        })
        .collect()
}

fn per_load_table(
    title: &str,
    sweep: &[(f64, ExperimentResult)],
    metric: impl Fn(&das_store::engine::RunResult) -> f64,
) -> ComparisonTable {
    let columns = sweep.iter().map(|(rho, _)| format!("rho={rho}")).collect();
    let mut t = ComparisonTable::new(title, columns);
    let policies: Vec<String> = sweep[0].1.runs.iter().map(|r| r.policy.clone()).collect();
    for p in policies {
        let values = sweep
            .iter()
            .map(|(_, res)| res.run(&p).map(&metric).unwrap_or(f64::NAN))
            .collect();
        t.push_row(p, values);
    }
    t
}

/// Fig. 6: mean RCT vs offered load.
fn fig06(sweep: &[(f64, ExperimentResult)]) -> FigureOutput {
    let mut f = FigureOutput::new("fig06", "Mean RCT vs offered load");
    f.tables.push(per_load_table("Mean RCT (ms)", sweep, |r| {
        r.mean_rct() * 1e3
    }));
    let mut red = ComparisonTable::new(
        "Mean RCT reduction vs FCFS (%)",
        sweep.iter().map(|(rho, _)| format!("rho={rho}")).collect(),
    );
    for p in ["SJF", "Rein-SBF", "Rein-2L", "DAS", "Oracle"] {
        let values = sweep
            .iter()
            .map(|(_, res)| res.reduction_vs(p, "FCFS").unwrap_or(f64::NAN))
            .collect();
        red.push_row(p, values);
    }
    f.tables.push(red);
    f.notes = "Paper claim: DAS cuts mean RCT by 15-50% vs FCFS, more at higher \
               load, and stays below Rein-SBF across the sweep."
        .into();
    f
}

/// Fig. 7: tail (p99) RCT vs offered load.
fn fig07(sweep: &[(f64, ExperimentResult)]) -> FigureOutput {
    let mut f = FigureOutput::new("fig07", "p99 RCT vs offered load");
    f.tables
        .push(per_load_table("p99 RCT (ms)", sweep, |r| r.p99_rct() * 1e3));
    f.notes = "Size-based priorities (SJF, Rein-SBF) often trade tail for mean; \
               DAS's aging and remaining-time view should keep p99 at or below \
               FCFS."
        .into();
    f
}

/// Fig. 8: RCT CDF at the reference load.
fn fig08(sweep: &[(f64, ExperimentResult)]) -> FigureOutput {
    // Use the highest load <= 0.7 present in the sweep.
    let (rho, result) = sweep
        .iter()
        .rfind(|(rho, _)| *rho <= 0.7 + 1e-9)
        .or_else(|| sweep.last())
        .expect("non-empty sweep");
    let mut f = FigureOutput::new("fig08", format!("RCT distribution at rho={rho}"));
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

/// Fig. 9: sensitivity to the fan-out distribution.
fn fig09(quick: bool) -> FigureOutput {
    let rho = 0.7;
    let cases: Vec<(&str, FanoutConfig)> = vec![
        ("constant 8", FanoutConfig::Constant { keys: 8 }),
        ("uniform 1-16", FanoutConfig::Uniform { min: 1, max: 16 }),
        (
            "zipf 32 (base)",
            FanoutConfig::Zipf {
                max: 32,
                theta: 1.0,
            },
        ),
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
    scenario_comparison(
        "fig09",
        "Sensitivity to fan-out distribution (rho=0.7)",
        cases
            .into_iter()
            .map(|(name, fanout)| {
                let cluster = scenarios::base_cluster();
                let workload = scenarios::custom_workload(
                    rho,
                    &cluster,
                    fanout,
                    scenarios::base_sizes(),
                    PopularityConfig::Uniform,
                );
                (
                    name.to_string(),
                    tune(ExperimentConfig::new(name, workload, cluster), quick),
                )
            })
            .collect(),
        "Multi-get-aware policies matter most when fan-outs are skewed; with \
         constant fan-out, request-level and op-level priorities converge.",
    )
}

/// Fig. 10: sensitivity to the value-size distribution.
fn fig10(quick: bool) -> FigureOutput {
    let rho = 0.7;
    let cases: Vec<(&str, SizeConfig)> = vec![
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
    scenario_comparison(
        "fig10",
        "Sensitivity to value-size distribution (rho=0.7)",
        cases
            .into_iter()
            .map(|(name, sizes)| {
                let cluster = scenarios::base_cluster();
                let workload = scenarios::custom_workload(
                    rho,
                    &cluster,
                    scenarios::base_fanout(),
                    sizes,
                    PopularityConfig::Uniform,
                );
                (
                    name.to_string(),
                    tune(ExperimentConfig::new(name, workload, cluster), quick),
                )
            })
            .collect(),
        "Heavier size tails widen the gap between size-aware policies and \
         FCFS; with fixed sizes the gap comes from fan-out structure alone.",
    )
}

/// Fig. 11: adaptivity to a load spike (RCT over time).
fn fig11(quick: bool) -> FigureOutput {
    let e = tune(scenarios::load_spike_experiment(0.3, 0.85), quick);
    let result = e.run().expect("valid spike experiment");
    let mut f = FigureOutput::new("fig11", "Time-varying load: 0.3 -> 0.85 -> 0.3");
    if let Some(t) = report::timeseries_table(&result, "Mean RCT per bin (ms)") {
        f.tables.push(t);
    }
    f.tables.push(result.table());
    f.notes = "During the spike every policy degrades; DAS recovers fastest \
               because fresh tags reflect the new backlog immediately, while \
               the whole-run mean stays below Rein-SBF."
        .into();
    f
}

/// Fig. 12: adaptivity to time-varying server performance.
fn fig12(quick: bool) -> FigureOutput {
    let e = tune(scenarios::server_degradation_experiment(0.6, 5, 4.0), quick);
    let result = e.run().expect("valid degradation experiment");
    let mut f = FigureOutput::new(
        "fig12",
        "Time-varying server performance: 5 of 50 servers 4x slower mid-run",
    );
    if let Some(t) = report::timeseries_table(&result, "Mean RCT per bin (ms)") {
        f.tables.push(t);
    }
    f.tables.push(result.table());
    f.notes = "Rein-SBF's static tags mis-rank ops on degraded servers; DAS's \
               EWMA rate estimates inflate those ops' demands, so requests \
               touching slow servers stop blocking everyone else."
        .into();
    f
}

/// Fig. 13: scalability with cluster size at fixed per-server load.
fn fig13(quick: bool) -> FigureOutput {
    let sizes: Vec<u32> = if quick {
        vec![10, 50]
    } else {
        vec![10, 25, 50, 100, 200, 400]
    };
    let rho = 0.7;
    let results: Vec<(String, ExperimentResult)> = sizes
        .into_iter()
        .map(|n| {
            // Larger clusters process proportionally more requests per
            // simulated second; shrink the horizon to keep event counts
            // comparable.
            let horizon = if quick {
                0.5
            } else {
                (250.0 / n as f64).clamp(0.6, 5.0)
            };
            let e = tune(scenarios::cluster_size_experiment(rho, n, horizon), quick);
            (format!("N={n}"), e.run().expect("valid cluster-size run"))
        })
        .collect();
    let mut f = FigureOutput::new("fig13", "Mean RCT vs cluster size (rho=0.7)");
    f.tables
        .push(cross_scenario_table("Mean RCT (ms)", &results, |r| {
            r.mean_rct() * 1e3
        }));
    f.tables.push(reduction_table(&results));
    f.notes = "DAS is fully distributed: its advantage persists as the cluster \
               grows, unlike centralized designs whose coordination costs \
               scale with N."
        .into();
    f
}

/// Fig. 14: skewed key popularity with replicated reads.
fn fig14(quick: bool) -> FigureOutput {
    let thetas = if quick {
        vec![0.0, 0.6]
    } else {
        vec![0.0, 0.3, 0.6, 0.75]
    };
    let results: Vec<(String, ExperimentResult)> = thetas
        .into_iter()
        .map(|theta| {
            let e = tune(scenarios::key_skew_experiment(0.5, theta), quick);
            (format!("theta={theta}"), e.run().expect("valid skew run"))
        })
        .collect();
    let mut f = FigureOutput::new("fig14", "Key popularity skew (rho=0.5, R=3)");
    f.tables
        .push(cross_scenario_table("Mean RCT (ms)", &results, |r| {
            r.mean_rct() * 1e3
        }));
    f.tables.push(reduction_table(&results));
    f.notes = "Skew concentrates load on hot shards; adaptive estimates steer \
               replicated reads away from them, widening DAS's lead."
        .into();
    f
}

/// Fig. 15: DAS component ablation.
fn fig15(quick: bool) -> FigureOutput {
    let loads = if quick {
        vec![0.7]
    } else {
        vec![0.5, 0.7, 0.9]
    };
    let results: Vec<(String, ExperimentResult)> = loads
        .into_iter()
        .map(|rho| {
            let mut e = tune(scenarios::base_experiment(format!("rho={rho}"), rho), quick);
            let mut policies = vec![PolicyKind::Fcfs];
            policies.extend(PolicyKind::ablation_set());
            e.policies = policies;
            (format!("rho={rho}"), e.run().expect("valid ablation run"))
        })
        .collect();
    let mut f = FigureOutput::new("fig15", "DAS component ablation");
    f.tables
        .push(cross_scenario_table("Mean RCT (ms)", &results, |r| {
            r.mean_rct() * 1e3
        }));
    f.tables.push(reduction_table(&results));
    f.notes = "Removing the remaining-bottleneck term (DAS-noLRPT) degenerates \
               to aged SJF; removing adaptivity freezes tags at dispatch; \
               removing aging risks starvation (visible in Table 4, not here)."
        .into();
    f
}

/// Fig. 16 (extension): bursty MMPP arrivals vs Poisson at matched
/// average load.
fn fig16(quick: bool) -> FigureOutput {
    let cases: Vec<(String, ExperimentConfig)> = vec![
        (
            "poisson 0.7".into(),
            tune(scenarios::base_experiment("poisson", 0.7), quick),
        ),
        (
            "mmpp 0.4/1.0".into(),
            tune(scenarios::bursty_experiment(0.4, 1.0, [0.5, 0.5]), quick),
        ),
        (
            "mmpp 0.2/1.2".into(),
            tune(scenarios::bursty_experiment(0.2, 1.2, [0.5, 0.25]), quick),
        ),
    ];
    scenario_comparison(
        "fig16",
        "Bursty arrivals (MMPP) vs Poisson",
        cases,
        "Bursts push servers into transient overload where scheduling \
         matters most; DAS's piggybacked backlog estimates keep its tags \
         honest through each burst.",
    )
}

/// Fig. 17 (extension): robustness to service-time estimation error.
fn fig17(quick: bool) -> FigureOutput {
    let noises = if quick {
        vec![0.0, 0.5]
    } else {
        vec![0.0, 0.2, 0.5, 1.0]
    };
    let results: Vec<(String, ExperimentResult)> = noises
        .into_iter()
        .map(|noise| {
            let e = tune(scenarios::estimate_noise_experiment(0.7, noise), quick);
            (
                format!("sigma={noise}"),
                e.run().expect("valid noise experiment"),
            )
        })
        .collect();
    let mut f = FigureOutput::new("fig17", "Robustness to size-estimate noise (rho=0.7)");
    f.tables
        .push(cross_scenario_table("Mean RCT (ms)", &results, |r| {
            r.mean_rct() * 1e3
        }));
    f.tables.push(reduction_table(&results));
    f.notes = "All size-aware policies (SJF, Rein, DAS) degrade gracefully as \
               estimates blur; FCFS is the noise-free floor they must still \
               beat. The oracle ignores noise by construction."
        .into();
    f
}

/// Fig. 18 (extension): DAS design-parameter sensitivity — the aging
/// factor and the FCFS fallback threshold called out in DESIGN.md.
fn fig18(quick: bool) -> FigureOutput {
    use das_sched::das::DasConfig;
    let rho = 0.8;
    let guards = if quick {
        vec![0.0, 8.0]
    } else {
        vec![0.0, 2.0, 4.0, 8.0, 16.0, 64.0]
    };
    let agings = if quick {
        vec![0.0, 0.1]
    } else {
        vec![0.0, 0.03, 0.1, 0.3, 1.0, 3.0]
    };
    let fallbacks: Vec<usize> = if quick {
        vec![1, 8]
    } else {
        vec![0, 1, 2, 4, 8, 16]
    };

    let mut guard_exp = tune(scenarios::base_experiment("guard", rho), quick);
    guard_exp.policies = guards
        .iter()
        .map(|&starvation_factor| PolicyKind::Das {
            config: DasConfig {
                starvation_factor,
                ..Default::default()
            },
        })
        .collect();
    let guard_result = guard_exp.run().expect("valid guard sweep");

    let mut aging_exp = tune(scenarios::base_experiment("aging", rho), quick);
    aging_exp.policies = agings
        .iter()
        .map(|&aging| PolicyKind::Das {
            config: DasConfig {
                aging,
                ..Default::default()
            },
        })
        .collect();
    let aging_result = aging_exp.run().expect("valid aging sweep");

    let mut fb_exp = tune(scenarios::base_experiment("fallback", rho), quick);
    fb_exp.policies = fallbacks
        .iter()
        .map(|&fcfs_fallback_len| PolicyKind::Das {
            config: DasConfig {
                fcfs_fallback_len,
                ..Default::default()
            },
        })
        .collect();
    let fb_result = fb_exp.run().expect("valid fallback sweep");

    let mut f = FigureOutput::new("fig18", "DAS parameter sensitivity (rho=0.8)");
    let mut t = ComparisonTable::new(
        "Starvation-guard factor sweep",
        vec![
            "mean RCT (ms)".into(),
            "p99 RCT (ms)".into(),
            "max slowdown".into(),
        ],
    );
    for (g, run) in guards.iter().zip(&guard_result.runs) {
        t.push_row(
            format!("guard={g}"),
            vec![
                run.mean_rct() * 1e3,
                run.p99_rct() * 1e3,
                run.slowdown.overall_max(),
            ],
        );
    }
    f.tables.push(t);
    let mut t = ComparisonTable::new(
        "Load-normalized aging sweep",
        vec![
            "mean RCT (ms)".into(),
            "p99 RCT (ms)".into(),
            "max slowdown".into(),
        ],
    );
    for (aging, run) in agings.iter().zip(&aging_result.runs) {
        t.push_row(
            format!("aging={aging}"),
            vec![
                run.mean_rct() * 1e3,
                run.p99_rct() * 1e3,
                run.slowdown.overall_max(),
            ],
        );
    }
    f.tables.push(t);
    let mut t = ComparisonTable::new(
        "FCFS fallback threshold sweep",
        vec!["mean RCT (ms)".into(), "p99 RCT (ms)".into()],
    );
    for (fb, run) in fallbacks.iter().zip(&fb_result.runs) {
        t.push_row(
            format!("fallback<={fb}"),
            vec![run.mean_rct() * 1e3, run.p99_rct() * 1e3],
        );
    }
    f.tables.push(t);
    f.notes = "The adaptive guard bounds the worst case at negligible mean \
               cost because its threshold scales with congestion; a \
               continuous aging credit instead grows past the demand scale \
               at high load and collapses the ranking toward FCFS. The \
               fallback threshold only matters once it exceeds typical \
               queue depths."
        .into();
    f
}

/// Fig. 19 (extension): information fragmentation — many independent
/// coordinators, each with its own piggyback-fed estimates.
fn fig19(quick: bool) -> FigureOutput {
    let counts = if quick {
        vec![1, 16]
    } else {
        vec![1, 4, 16, 64]
    };
    let results: Vec<(String, ExperimentResult)> = counts
        .into_iter()
        .map(|n| {
            // Use the degradation scenario: with stable server rates the
            // coordinators' shared state barely matters (DAS ranks by
            // demand, not global waits); fragmentation bites when rate
            // estimates must *adapt* and each coordinator sees only a
            // slice of the reports.
            let mut e = tune(scenarios::server_degradation_experiment(0.6, 5, 4.0), quick);
            e.rct_timeseries_bin_secs = None;
            e.cluster.coordinators = n;
            (format!("C={n}"), e.run().expect("valid coordinator sweep"))
        })
        .collect();
    let mut f = FigureOutput::new(
        "fig19",
        "Coordinator fragmentation under server degradation (rho=0.6, 5 servers 4x slower)",
    );
    f.tables
        .push(cross_scenario_table("Mean RCT (ms)", &results, |r| {
            r.mean_rct() * 1e3
        }));
    f.tables.push(reduction_table(&results));
    f.notes = "With many coordinators each sees only a slice of the \
               responses, so per-server rate estimates adapt more slowly to \
               the degradation. DAS's advantage shrinks gracefully rather \
               than collapsing — each report still carries server-side \
               truth, only the sampling rate drops. (With stable rates, \
               fragmentation measured <0.1% effect: DAS ranks by demand, \
               not by globally shared wait state.)"
        .into();
    f
}

/// Fig. 20 (extension): hint-loss robustness — progress hints are
/// fire-and-forget and may vanish.
fn fig20(quick: bool) -> FigureOutput {
    let losses = if quick {
        vec![0.0, 1.0]
    } else {
        vec![0.0, 0.25, 0.5, 0.9, 1.0]
    };
    let results: Vec<(String, ExperimentResult)> = losses
        .into_iter()
        .map(|loss| {
            let mut e = tune(scenarios::base_experiment("hint loss", 0.7), quick);
            e.cluster.hint_loss = loss;
            (
                format!("loss={loss}"),
                e.run().expect("valid hint-loss sweep"),
            )
        })
        .collect();
    let mut f = FigureOutput::new("fig20", "Hint-loss robustness (rho=0.7)");
    f.tables
        .push(cross_scenario_table("Mean RCT (ms)", &results, |r| {
            r.mean_rct() * 1e3
        }));
    f.tables.push(reduction_table(&results));
    f.notes = "Losing every hint degrades DAS to dispatch-time Rein-like tags \
               with adaptive rate estimates; it must never fall below the \
               static baselines. (The oracle's hints bypass the network and \
               are unaffected by construction.)"
        .into();
    f
}

/// Fig. 21 (extension): read/write mix — multi-get scheduling with an
/// increasing fraction of puts.
fn fig21(quick: bool) -> FigureOutput {
    let fractions = if quick {
        vec![0.0, 0.5]
    } else {
        vec![0.0, 0.1, 0.3, 0.5]
    };
    let results: Vec<(String, ExperimentResult)> = fractions
        .into_iter()
        .map(|wf| {
            let mut e = tune(scenarios::base_experiment("writes", 0.7), quick);
            e.workload.write_fraction = wf;
            (
                format!("writes={:.0}%", wf * 100.0),
                e.run().expect("valid write-mix experiment"),
            )
        })
        .collect();
    let mut f = FigureOutput::new("fig21", "Read/write mix (rho=0.7)");
    f.tables
        .push(cross_scenario_table("Mean RCT (ms)", &results, |r| {
            r.mean_rct() * 1e3
        }));
    f.tables.push(reduction_table(&results));
    f.notes = "Writes behave like reads for scheduling (same service model, \
               payload travels in the request instead of the response), so \
               the policy ordering is preserved across the mix; write sizes \
               are exactly known to the client, which slightly *helps* \
               size-aware policies."
        .into();
    f
}

/// The policy set for the fault figures: the scheduling baselines the
/// paper compares against, without the oracle (whose out-of-band hints
/// would sidestep the failure model under test).
fn fault_policies() -> Vec<PolicyKind> {
    vec![PolicyKind::Fcfs, PolicyKind::ReinSbf, PolicyKind::das()]
}

/// Fig. 22 (extension): fault injection — crash-stop failures with
/// coordinator-side retry, swept over the fraction of servers that fail.
fn fig22(quick: bool) -> FigureOutput {
    let fractions = if quick {
        vec![0.0, 0.1]
    } else {
        vec![0.0, 0.04, 0.1, 0.2]
    };
    let results: Vec<(String, ExperimentResult)> = fractions
        .into_iter()
        .map(|frac| {
            let mut e = tune(scenarios::fault_injection_experiment(0.7, frac), quick);
            e.policies = fault_policies();
            (
                format!("crashed={:.0}%", frac * 100.0),
                e.run().expect("valid fault-injection experiment"),
            )
        })
        .collect();
    let mut f = FigureOutput::new(
        "fig22",
        "Fault injection: crash-stop + retry (rho=0.7, R=2)",
    );
    f.tables
        .push(cross_scenario_table("Mean RCT (ms)", &results, |r| {
            r.mean_rct() * 1e3
        }));
    f.tables
        .push(cross_scenario_table("Availability (%)", &results, |r| {
            r.recovery.availability() * 100.0
        }));
    f.tables.push(cross_scenario_table(
        "Retries per 1k requests",
        &results,
        |r| {
            if r.recovery.accepted == 0 {
                0.0
            } else {
                r.recovery.retries as f64 * 1e3 / r.recovery.accepted as f64
            }
        },
    ));
    f.tables
        .push(cross_scenario_table("Wasted work (%)", &results, |r| {
            r.recovery.wasted_fraction() * 100.0
        }));
    f.notes = "Crashes drop in-flight work; the retry path redispatches it to \
               surviving replicas, so availability stays near 100% while mean \
               RCT absorbs the redo cost. The policy ordering (DAS < Rein-SBF \
               < FCFS) must survive the fault sweep: recovery traffic is \
               scheduled like any other work."
        .into();
    f
}

/// Fig. 23 (extension): hedged reads under gray failure, swept over the
/// hedge-delay quantile (`off` = no hedging).
fn fig23(quick: bool) -> FigureOutput {
    let quantiles = if quick {
        vec![0.0, 0.95]
    } else {
        vec![0.0, 0.5, 0.9, 0.95, 0.99]
    };
    let results: Vec<(String, ExperimentResult)> = quantiles
        .into_iter()
        .map(|q| {
            let mut e = tune(scenarios::hedging_experiment(0.5, q), quick);
            e.policies = fault_policies();
            let label = if q == 0.0 {
                "off".to_string()
            } else {
                format!("p{:.0}", q * 100.0)
            };
            (label, e.run().expect("valid hedging experiment"))
        })
        .collect();
    let mut f = FigureOutput::new(
        "fig23",
        "Hedged reads under gray failure (rho=0.5, R=3, 3 servers 50x slower)",
    );
    f.tables
        .push(cross_scenario_table("Mean RCT (ms)", &results, |r| {
            r.mean_rct() * 1e3
        }));
    f.tables
        .push(cross_scenario_table("p99 RCT (ms)", &results, |r| {
            r.p99_rct() * 1e3
        }));
    f.tables.push(cross_scenario_table(
        "Hedges per 1k requests",
        &results,
        |r| {
            if r.recovery.accepted == 0 {
                0.0
            } else {
                r.recovery.hedges as f64 * 1e3 / r.recovery.accepted as f64
            }
        },
    ));
    f.tables
        .push(cross_scenario_table("Wasted work (%)", &results, |r| {
            r.recovery.wasted_fraction() * 100.0
        }));
    f.notes = "Gray servers answer, just 50x slower, so crash detection never \
               fires; hedging a straggling read to another replica is the only \
               defense. Aggressive quantiles (p50) hedge nearly everything and \
               pay in wasted service; conservative ones (p99) fire rarely and \
               trim only the deep tail. Load-aware policies need hedging less: \
               their dispatch already steers around the slow replicas."
        .into();
    f
}

/// The policy set for the overload figure: the paper's FCFS baseline
/// against DAS, with and without the overload-control layer.
fn overload_policies() -> Vec<PolicyKind> {
    vec![PolicyKind::Fcfs, PolicyKind::das()]
}

/// Goodput: the fraction of *offered* requests that completed within the
/// 20 ms SLO. Unlike raw throughput, goodput charges the run for every
/// request that was shed at admission, shed from a full queue, or
/// finished too late to be useful.
fn goodput_pct(r: &das_store::engine::RunResult) -> f64 {
    let offered = r.recovery.offered();
    if offered == 0 {
        return 0.0;
    }
    r.rct.fraction_within(scenarios::OVERLOAD_SLO_SECS) * r.completed as f64 * 100.0
        / offered as f64
}

/// Fig. 24 (extension): overload collapse and graceful degradation —
/// offered load swept through and past saturation, with timeout-based
/// retries armed, comparing the uncontrolled store against the full
/// overload-control layer (deadline admission + bounded queues + retry
/// token budget + tiny-op batching).
fn fig24(quick: bool) -> FigureOutput {
    let loads = if quick {
        vec![0.7, 1.3]
    } else {
        vec![0.5, 0.7, 0.9, 1.1, 1.3, 1.5]
    };
    let run_arm = |controlled: bool| -> Vec<(String, ExperimentResult)> {
        loads
            .iter()
            .map(|&rho| {
                let mut e = tune(scenarios::overload_experiment(rho, controlled), quick);
                e.policies = overload_policies();
                (
                    format!("rho={rho}"),
                    e.run().expect("valid overload experiment"),
                )
            })
            .collect()
    };
    let uncontrolled = run_arm(false);
    let controlled = run_arm(true);
    let mut f = FigureOutput::new(
        "fig24",
        "Overload collapse vs graceful degradation (R=2, 20ms SLO, retry x3)",
    );
    f.tables.push(cross_scenario_table(
        "Goodput, uncontrolled (% of offered within SLO)",
        &uncontrolled,
        goodput_pct,
    ));
    f.tables.push(cross_scenario_table(
        "Goodput, controlled (% of offered within SLO)",
        &controlled,
        goodput_pct,
    ));
    f.tables.push(cross_scenario_table(
        "Shed, controlled (% of offered)",
        &controlled,
        |r| r.recovery.shed_fraction() * 100.0,
    ));
    f.tables.push(cross_scenario_table(
        "p99 RCT, uncontrolled (ms)",
        &uncontrolled,
        |r| r.p99_rct() * 1e3,
    ));
    f.tables.push(cross_scenario_table(
        "p99 RCT, controlled (ms)",
        &controlled,
        |r| r.p99_rct() * 1e3,
    ));
    f.tables.push(cross_scenario_table(
        "Retries per 1k accepted, uncontrolled",
        &uncontrolled,
        |r| {
            if r.recovery.accepted == 0 {
                0.0
            } else {
                r.recovery.retries as f64 * 1e3 / r.recovery.accepted as f64
            }
        },
    ));
    f.tables.push(cross_scenario_table(
        "Retries denied per 1k accepted, controlled",
        &controlled,
        |r| {
            if r.recovery.accepted == 0 {
                0.0
            } else {
                r.recovery.retries_denied as f64 * 1e3 / r.recovery.accepted as f64
            }
        },
    ));
    f.tables.push(cross_scenario_table(
        "Mean batch size, controlled",
        &controlled,
        |r| r.recovery.batching.mean_batch_size(),
    ));
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
fn table2(sweep: &[(f64, ExperimentResult)]) -> FigureOutput {
    let mut f = FigureOutput::new("table2", "Headline reductions vs FCFS");
    let mut t = ComparisonTable::new(
        "Mean RCT and reductions",
        vec![
            "FCFS (ms)".into(),
            "Rein-SBF (ms)".into(),
            "DAS (ms)".into(),
            "Rein vs FCFS (%)".into(),
            "DAS vs FCFS (%)".into(),
            "DAS vs Rein (%)".into(),
        ],
    );
    for (rho, res) in sweep {
        t.push_row(
            format!("base rho={rho}"),
            vec![
                res.mean_rct("FCFS").unwrap_or(f64::NAN) * 1e3,
                res.mean_rct("Rein-SBF").unwrap_or(f64::NAN) * 1e3,
                res.mean_rct("DAS").unwrap_or(f64::NAN) * 1e3,
                -res.reduction_vs("Rein-SBF", "FCFS").unwrap_or(f64::NAN),
                -res.reduction_vs("DAS", "FCFS").unwrap_or(f64::NAN),
                -res.reduction_vs("DAS", "Rein-SBF").unwrap_or(f64::NAN),
            ],
        );
    }
    f.tables.push(t);
    f.notes = "Negative percentages are reductions. Paper claim: DAS cuts mean \
               RCT by more than 15-50% vs FCFS and outperforms Rein-SBF."
        .into();
    f
}

/// Table 3: scheduling overhead.
fn table3(quick: bool) -> FigureOutput {
    let e = tune(scenarios::base_experiment("rho=0.7", 0.7), quick);
    let result = e.run().expect("valid base experiment");
    let mut f = FigureOutput::new("table3", "Scheduling overhead (rho=0.7)");
    f.tables.push(report::overhead_table(&result));
    f.notes = "Per-request coordination cost. DAS adds tens of bytes of tags \
               plus ~1 hint per completed bottleneck op; run \
               `cargo bench -p das-bench` for per-decision CPU cost."
        .into();
    f
}

/// Table 4: fairness / starvation by fan-out class.
fn table4(quick: bool) -> FigureOutput {
    let mut e = tune(scenarios::base_experiment("rho=0.8", 0.8), quick);
    // Include the no-aging ablation: the starvation risk it exposes is the
    // point of this table.
    e.policies.push(PolicyKind::Das {
        config: das_sched::das::DasConfig::without_aging(),
    });
    let result = e.run().expect("valid base experiment");
    let mut f = FigureOutput::new("table4", "Slowdown by fan-out class (rho=0.8)");
    f.tables.push(report::fairness_table(&result));
    f.notes = "Slowdown = RCT / zero-queueing ideal. Size-based priorities \
               starve wide requests; DAS's aging bounds the damage."
        .into();
    f
}

/// Table 5 (extension): the named workload presets from published
/// key-value-store studies, all at rho=0.7.
fn table5(quick: bool) -> FigureOutput {
    use das_core::load::arrival_rate_for_load;
    use das_workload::presets::WorkloadPreset;
    let rho = 0.7;
    let presets = if quick {
        vec![WorkloadPreset::CacheTier, WorkloadPreset::SessionStore]
    } else {
        WorkloadPreset::ALL.to_vec()
    };
    let results: Vec<(String, ExperimentResult)> = presets
        .into_iter()
        .map(|preset| {
            // Single-copy reads: the skewed presets stay servable because
            // their hottest keys are size-capped (the published hot-small
            // correlation), so scheduling — not replica balancing — is
            // what differentiates policies here.
            let cluster = scenarios::base_cluster();
            let mut workload = preset.spec(100_000, 1.0);
            let rate = arrival_rate_for_load(rho, &workload, &cluster);
            workload.arrival = das_workload::spec::ArrivalConfig::Poisson { rate };
            let e = tune(
                ExperimentConfig::new(preset.label(), workload, cluster),
                quick,
            );
            (
                preset.label().to_string(),
                e.run().expect("valid preset experiment"),
            )
        })
        .collect();
    let mut f = FigureOutput::new("table5", "Workload presets (rho=0.7)");
    f.tables
        .push(cross_scenario_table("Mean RCT (ms)", &results, |r| {
            r.mean_rct() * 1e3
        }));
    f.tables.push(reduction_table(&results));
    f.notes = "The session-store preset (single-key reads) is the control: \
               multi-get scheduling cannot help much there, and any large \
               'gain' would indicate a bug. The social-graph preset (wide, \
               skewed fan-outs) is where request-aware scheduling pays most."
        .into();
    f
}

/// Table 6 (extension): SLO attainment — the fraction of requests
/// completing within each latency budget, at rho=0.8.
fn table6(quick: bool) -> FigureOutput {
    let e = tune(scenarios::base_experiment("rho=0.8", 0.8), quick);
    let result = e.run().expect("valid base experiment");
    let slos_ms = [1.0, 2.0, 5.0, 10.0];
    let mut t = ComparisonTable::new(
        "Requests meeting SLO (%)",
        slos_ms.iter().map(|s| format!("<= {s} ms")).collect(),
    );
    for run in &result.runs {
        t.push_row(
            run.policy.clone(),
            slos_ms
                .iter()
                .map(|&s| run.rct.fraction_within(s * 1e-3) * 100.0)
                .collect(),
        );
    }
    let mut f = FigureOutput::new("table6", "SLO attainment (rho=0.8)");
    f.tables.push(t);
    f.notes = "The user-experience view of the same data: tight budgets favour \
               policies that compress the body of the distribution, loose \
               budgets favour tail control."
        .into();
    f
}

/// Table 7 (extension): RCT critical-path blame at rho=0.7 — for each
/// policy, which pipeline stage (coordinator stall, request network,
/// queueing, service, response network) the *last-finishing* op of each
/// traced request spent its RCT in, reconstructed from the structured
/// event trace. Also writes the DAS run's Chrome `trace_event` file
/// (loadable in Perfetto) next to the table.
fn table7(quick: bool) -> FigureOutput {
    let mut e = tune(scenarios::base_experiment("rho=0.7", 0.7), quick);
    e.trace = das_trace::TraceConfig::enabled();
    if !quick {
        // Full runs see far more requests than the ring can hold; a
        // deterministic per-request sample keeps whole request chains.
        e.trace.sample = 0.25;
    }
    let result = e.run().expect("valid base experiment");
    let mut f = FigureOutput::new("table7_rct_breakdown", "RCT critical-path blame (rho=0.7)");
    f.tables
        .push(report::blame_table(&result).expect("tracing was enabled"));
    let mut notes = String::from(
        "Where the completion time actually goes: the five segments follow \
         the last-finishing op of each traced request and sum exactly to \
         its RCT. Queue share is what scheduling can attack — DAS trades a \
         slice of bottleneck-op queueing for shorter requests overall.",
    );
    if let Some(chart) = das_metrics::ascii::stacked_bars(&report::blame_rows(&result), 40) {
        notes.push_str("\n\nmean RCT blame per policy (ms):\n");
        notes.push_str(&chart);
    }
    f.notes = notes;
    if let Some(das) = result.run("DAS").and_then(|r| r.trace.as_ref()) {
        // Per-server counter tracks (busy %, demand, depth, rates) folded
        // from the same log ride along in the Perfetto view.
        let telemetry = das_trace::telemetry::fold(
            das,
            &das_trace::TelemetryConfig {
                workers: e.cluster.workers_per_server,
                ..das_trace::TelemetryConfig::default()
            },
        );
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
    let mut e = tune(scenarios::base_experiment("rho=0.7", 0.7), quick);
    // tune() resets the policy set; the diff wants exactly the baseline and
    // the paper's policy.
    e.policies = vec![PolicyKind::Fcfs, PolicyKind::das()];
    e.trace = das_trace::TraceConfig::enabled();
    if !quick {
        // Same deterministic per-request sample as table7: the sampling
        // hash depends only on (seed, request id), so both policies trace
        // the *same* request set and every sampled request matches.
        e.trace.sample = 0.25;
    }
    let result = e.run().expect("valid base experiment");
    let fcfs = result
        .run("FCFS")
        .and_then(|r| r.trace.as_ref())
        .expect("FCFS run was traced");
    let das = result
        .run("DAS")
        .and_then(|r| r.trace.as_ref())
        .expect("DAS run was traced");
    let diff = das_trace::diff_traces(fcfs, das).expect("same seeded workload");

    let mut f = FigureOutput::new("table8_blame_diff", "Blame diff FCFS → DAS (rho=0.7)");
    f.tables = report::blame_diff_tables("FCFS", "DAS", &diff);
    let mut notes = String::from(
        "Where DAS's speedup actually comes from: the same seeded workload \
         traced under both policies, requests matched by id, and the RCT \
         delta attributed per critical-path segment. The per-request segment \
         deltas telescope exactly (integer ns) to each RCT delta, so the \
         'mean Δ' column sums to the total-RCT row without residue.",
    );
    if let Some(chart) = das_metrics::ascii::diverging_bars(&report::blame_diff_delta_rows(&diff), 30)
    {
        notes.push_str("\n\nmean Δ per segment, ms (DAS − FCFS):\n");
        notes.push_str(&chart);
    }
    if let Some(s) = diff.dominant_negative_segment() {
        notes.push_str(&format!(
            "\ndominant improvement: {} ({:+.3} ms mean)",
            s.label(),
            diff.mean_delta_secs(s) * 1e3
        ));
    }
    f.notes = notes;

    // Persist the raw event logs so the CLI path (`das_experiment
    // blame-diff results/table8_fcfs.jsonl results/table8_das.jsonl`) can
    // be exercised on exactly this data — CI smokes that end to end.
    for (name, log) in [("table8_fcfs.jsonl", fcfs), ("table8_das.jsonl", das)] {
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
    let mut e = tune(scenarios::base_experiment("rho=0.7", 0.7), quick);
    // tune() resets the policy set; the ladder wants exactly these rungs,
    // in this order. The tuned rung triples the aging strength — the knob
    // Fig. 18 sweeps — so the last step isolates what aging alone buys.
    // `Das::name()` still reports "DAS" for any aged config, so rung
    // labels are fixed here (and in the CLI via `--ladder`), not derived
    // from the scheduler.
    let tuned = das_sched::das::DasConfig {
        aging: 0.3,
        ..das_sched::das::DasConfig::default()
    };
    e.policies = vec![
        PolicyKind::Fcfs,
        PolicyKind::ReinSbf,
        PolicyKind::das(),
        PolicyKind::Das { config: tuned },
    ];
    e.trace = das_trace::TraceConfig::enabled();
    if !quick {
        // Same deterministic per-request sample as tables 7/8: the
        // sampling hash depends only on (seed, request id), so every rung
        // traces the *same* request set.
        e.trace.sample = 0.25;
    }
    let result = e.run().expect("valid base experiment");
    let names: Vec<String> = ["FCFS", "Rein-SBF", "DAS", "DAS-tuned"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    // Runs are positional: the two DAS configs share the name "DAS", so
    // lookups by name would both find the default rung.
    assert_eq!(result.runs.len(), names.len(), "one run per rung");
    let logs: Vec<&das_trace::TraceLog> = result
        .runs
        .iter()
        .map(|r| r.trace.as_ref().expect("every rung was traced"))
        .collect();
    let ladder = das_trace::ladder_diff(&logs).expect("same seeded workload");

    let mut f = FigureOutput::new(
        "table9_policy_ladder",
        "Policy-ladder blame diff FCFS → Rein-SBF → DAS → DAS-tuned (rho=0.7)",
    );
    f.tables = report::ladder_tables(&names, &ladder);
    // Fold the default-DAS rung into per-server occupancy telemetry — the
    // same numbers `das_experiment top` prints from the persisted log.
    let telemetry = das_trace::telemetry::fold(
        logs[2],
        &das_trace::TelemetryConfig {
            workers: e.cluster.workers_per_server,
            ..das_trace::TelemetryConfig::default()
        },
    );
    f.tables.push(report::telemetry_table(&telemetry));
    let mut notes = String::from(
        "The pairwise blame diff generalized to a ladder: one seeded \
         workload, four policies, requests matched by id across every rung, \
         each adjacent step's RCT delta attributed per critical-path \
         segment. All steps share one common request population, so the \
         per-step deltas telescope exactly (integer ns) to the end-to-end \
         column — improvements decompose rung by rung without residue. The \
         telemetry table folds the DAS rung's event stream into per-server \
         occupancy counters (busy + idle == workers x horizon, exactly).",
    );
    if let Some(chart) =
        das_metrics::ascii::diverging_bars(&report::blame_diff_delta_rows(&ladder.end_to_end), 30)
    {
        notes.push_str("\n\nmean Δ per segment, ms (DAS-tuned − FCFS):\n");
        notes.push_str(&chart);
    }
    if let Some(s) = ladder.end_to_end.dominant_negative_segment() {
        notes.push_str(&format!(
            "\ndominant end-to-end improvement: {} ({:+.3} ms mean)",
            s.label(),
            ladder.end_to_end.mean_delta_secs(s) * 1e3
        ));
    }
    f.notes = notes;

    // Persist the raw event logs so the CLI path (`das_experiment
    // blame-diff --ladder FCFS,Rein-SBF,DAS,DAS-tuned <logs...>`) can be
    // exercised on exactly this data — CI smokes that end to end.
    let stems = [
        "table9_fcfs.jsonl",
        "table9_rein_sbf.jsonl",
        "table9_das.jsonl",
        "table9_das_tuned.jsonl",
    ];
    for (name, log) in stems.iter().zip(&logs) {
        persist_with(name, |w| das_trace::export::write_jsonl(log, w));
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
    let corpus = scenarios::scenario_corpus();
    let mut rows: Vec<(String, das_trace::TraceDiff)> = Vec::new();
    let mut results: Vec<(String, ExperimentResult)> = Vec::new();
    for s in &corpus {
        let trace = s.load_trace().unwrap_or_else(|e| {
            panic!(
                "{}: committed corpus trace unreadable ({e}); regenerate with \
                 `cargo test --release --test scenario_corpus -- --ignored`",
                s.slug
            )
        });
        let mut e = s.experiment.clone();
        e.policies = vec![PolicyKind::Fcfs, PolicyKind::das()];
        e.trace = das_trace::TraceConfig::enabled();
        let result = e.run_trace(&trace).expect("valid corpus scenario");
        let diff = das_trace::diff_traces(
            result.runs[0].trace.as_ref().expect("FCFS rung was traced"),
            result.runs[1].trace.as_ref().expect("DAS rung was traced"),
        )
        .expect("both rungs replay the same trace");
        // Persist both event logs so `das_experiment blame-diff` (and
        // `top`) can be exercised on exactly this data — CI smokes that.
        for (run, policy) in result.runs.iter().zip(["fcfs", "das"]) {
            let log = run.trace.as_ref().expect("traced");
            persist_with(&format!("table10_{}_{policy}.jsonl", s.slug), |w| {
                das_trace::export::write_jsonl(log, w)
            });
        }
        rows.push((s.title.to_string(), diff));
        results.push((s.slug.to_string(), result));
    }
    let mut f = FigureOutput::new(
        "table10_scenario_corpus",
        "Scenario regression corpus — FCFS vs DAS over committed replay traces",
    );
    f.tables
        .push(cross_scenario_table("Mean RCT (ms)", &results, |r| {
            r.mean_rct() * 1e3
        }));
    f.tables.push(reduction_table(&results));
    f.tables.push(report::corpus_diff_table("FCFS", "DAS", &rows));
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
        "table11_chaos_search",
        "Chaos search — adversarial fault schedules, oracle suite, minimized reproducers",
    );

    let mut hits = ComparisonTable::new(
        format!(
            "Oracle hits (seed {}, {} cases, {} simulations)",
            report.seed, report.cases_run, report.sim_runs
        ),
        vec!["hits".into()],
    );
    for oracle in das_chaos::oracle::ALL_ORACLES {
        let count = report.oracle_hits.get(oracle).copied().unwrap_or(0);
        hits.push_row(oracle, vec![count as f64]);
    }
    f.tables.push(hits);

    if let Some(w) = &report.worst_inversion {
        let mut t = ComparisonTable::new(
            "Worst DAS-vs-FCFS inversion found",
            vec![
                "DAS/FCFS ratio".into(),
                "FCFS mean (ms)".into(),
                "DAS mean (ms)".into(),
            ],
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
            vec![
                "size before".into(),
                "size after".into(),
                "shrink evals".into(),
                "measure".into(),
            ],
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
        vec![
            "trace reqs".into(),
            "case size".into(),
            "FCFS mean (ms)".into(),
            "DAS mean (ms)".into(),
            "measure".into(),
        ],
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

/// Builds a policies×scenarios table from named experiment results.
fn cross_scenario_table(
    title: &str,
    results: &[(String, ExperimentResult)],
    metric: impl Fn(&das_store::engine::RunResult) -> f64,
) -> ComparisonTable {
    let columns = results.iter().map(|(name, _)| name.clone()).collect();
    let mut t = ComparisonTable::new(title, columns);
    let policies: Vec<String> = results[0].1.runs.iter().map(|r| r.policy.clone()).collect();
    for p in policies {
        t.push_row(
            p.clone(),
            results
                .iter()
                .map(|(_, res)| res.run(&p).map(&metric).unwrap_or(f64::NAN))
                .collect(),
        );
    }
    t
}

/// Reduction-vs-FCFS companion table.
fn reduction_table(results: &[(String, ExperimentResult)]) -> ComparisonTable {
    let columns = results.iter().map(|(name, _)| name.clone()).collect();
    let mut t = ComparisonTable::new("Mean RCT reduction vs FCFS (%)", columns);
    let policies: Vec<String> = results[0]
        .1
        .runs
        .iter()
        .filter(|r| r.policy != "FCFS")
        .map(|r| r.policy.clone())
        .collect();
    for p in policies {
        t.push_row(
            p.clone(),
            results
                .iter()
                .map(|(_, res)| res.reduction_vs(&p, "FCFS").unwrap_or(f64::NAN))
                .collect(),
        );
    }
    t
}

/// Shared shape for Figs. 9/10: one experiment per scenario, standard
/// tables.
fn scenario_comparison(
    id: &str,
    title: &str,
    experiments: Vec<(String, ExperimentConfig)>,
    notes: &str,
) -> FigureOutput {
    let results: Vec<(String, ExperimentResult)> = experiments
        .into_iter()
        .map(|(name, e)| (name, e.run().expect("valid scenario experiment")))
        .collect();
    let mut f = FigureOutput::new(id, title);
    f.tables
        .push(cross_scenario_table("Mean RCT (ms)", &results, |r| {
            r.mean_rct() * 1e3
        }));
    f.tables.push(reduction_table(&results));
    f.notes = notes.into();
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
}
