//! Calibrated scenario presets shared by every experiment binary and the
//! integration tests.
//!
//! The *base scenario* models a mid-size storage tier: 50 servers, ~220 µs
//! mean operation service time (100 µs fixed cost + heavy-tailed value
//! sizes at 50 MB/s), datacenter network latencies, Zipf multi-get
//! fan-outs, and skewed key popularity. Each figure varies exactly one
//! dimension of it.

use das_net::latency::{LatencyConfig, NetworkConfig};
use das_sim::fault::CrashWindow;
use das_sim::time::SimDuration;
use das_store::config::{ClusterConfig, PerfEvent};
use das_store::partition::PartitionerConfig;
use das_workload::generator::WorkloadSpec;
use das_workload::spec::{ArrivalConfig, FanoutConfig, PopularityConfig, SizeConfig};

use crate::experiment::ExperimentConfig;
use crate::load::arrival_rate_for_load;

/// Default number of servers in the base scenario.
pub const BASE_SERVERS: u32 = 50;
/// Default simulated horizon, seconds.
pub const BASE_HORIZON_SECS: f64 = 5.0;
/// Default warmup, seconds.
pub const BASE_WARMUP_SECS: f64 = 0.5;

/// The base cluster: 50 single-worker servers, 100 µs per-op overhead,
/// 50 MB/s service rate, lognormal 50 µs network.
pub fn base_cluster() -> ClusterConfig {
    ClusterConfig {
        servers: BASE_SERVERS,
        workers_per_server: 1,
        base_rate_bytes_per_sec: 5e7,
        per_op_overhead: SimDuration::from_micros(100),
        network: NetworkConfig {
            latency: LatencyConfig::Lognormal {
                mean_micros: 50.0,
                sigma: 0.4,
            },
            bandwidth_bytes_per_sec: Some(1.25e9),
        },
        partitioner: PartitionerConfig::ConsistentHash { vnodes: 128 },
        replication: 1,
        coordinators: 1,
        hint_loss: 0.0,
        perf_events: Vec::new(),
        estimate_noise: 0.0,
    }
}

/// The base value-size distribution: bounded Pareto 512 B – 256 KiB,
/// tail index 1.1 (ETC-like body with a long tail).
///
/// The cap keeps every *individual key's* offered load well under one
/// server's capacity; since sizes are fixed per key, an unbounded tail
/// would let a single unlucky giant key saturate its shard regardless of
/// the nominal load level.
pub fn base_sizes() -> SizeConfig {
    SizeConfig::Etc {
        min_bytes: 512,
        max_bytes: 256 << 10,
        alpha: 1.1,
    }
}

/// The base fan-out distribution: Zipf over `[1, 32]`, skew 1.0 — many
/// small multi-gets, a heavy tail of wide ones.
pub fn base_fanout() -> FanoutConfig {
    FanoutConfig::Zipf {
        max: 32,
        theta: 1.0,
    }
}

/// The base workload at per-server utilization `rho` on `cluster`.
pub fn base_workload(rho: f64, cluster: &ClusterConfig) -> WorkloadSpec {
    // Popularity is uniform in the base scenario: per-key sizes are fixed,
    // so skewed popularity would permanently overload whichever shard owns
    // a hot key (real stores absorb this with caches/replicas). Key-skew
    // effects are studied separately in the Fig. 14 scenario, which pairs
    // moderate skew with replicated reads.
    let mut spec = WorkloadSpec {
        n_keys: 100_000,
        arrival: ArrivalConfig::Poisson { rate: 1.0 },
        fanout: base_fanout(),
        sizes: base_sizes(),
        popularity: PopularityConfig::Uniform,
        hot_key_size_cap: None,
        write_fraction: 0.0,
    };
    let rate = arrival_rate_for_load(rho, &spec, cluster);
    spec.arrival = ArrivalConfig::Poisson { rate };
    spec
}

/// A base-scenario workload with overridden fan-out/size/popularity,
/// recalibrated so the arrival rate still produces per-server load `rho`.
pub fn custom_workload(
    rho: f64,
    cluster: &ClusterConfig,
    fanout: FanoutConfig,
    sizes: SizeConfig,
    popularity: PopularityConfig,
) -> WorkloadSpec {
    let mut spec = WorkloadSpec {
        n_keys: 100_000,
        arrival: ArrivalConfig::Poisson { rate: 1.0 },
        fanout,
        sizes,
        popularity,
        hot_key_size_cap: None,
        write_fraction: 0.0,
    };
    let rate = arrival_rate_for_load(rho, &spec, cluster);
    spec.arrival = ArrivalConfig::Poisson { rate };
    spec
}

/// The base experiment (standard policy set) at load `rho`.
pub fn base_experiment(name: impl Into<String>, rho: f64) -> ExperimentConfig {
    let cluster = base_cluster();
    let workload = base_workload(rho, &cluster);
    let mut e = ExperimentConfig::new(name, workload, cluster);
    e.horizon_secs = BASE_HORIZON_SECS;
    e.warmup_secs = BASE_WARMUP_SECS;
    e
}

/// Fig. 11's load spike: the schedule runs at `low` load, jumps to `high`
/// for the middle third of the horizon, then falls back.
pub fn load_spike_experiment(low_rho: f64, high_rho: f64) -> ExperimentConfig {
    let cluster = base_cluster();
    let probe = base_workload(1.0, &cluster); // rate for rho=1.0
    let unit_rate = match probe.arrival {
        ArrivalConfig::Poisson { rate } => rate,
        _ => unreachable!("base workload is Poisson"),
    };
    let h = BASE_HORIZON_SECS;
    let mut workload = probe;
    workload.arrival = ArrivalConfig::Schedule {
        steps: vec![
            (0.0, unit_rate * low_rho),
            (h / 3.0, unit_rate * high_rho),
            (2.0 * h / 3.0, unit_rate * low_rho),
        ],
        period_secs: None,
    };
    let mut e = ExperimentConfig::new(
        format!("load spike {low_rho}->{high_rho}"),
        workload,
        cluster,
    );
    e.horizon_secs = h;
    e.warmup_secs = 0.0; // the whole trajectory is the result
    e.rct_timeseries_bin_secs = Some(0.25);
    e
}

/// Fig. 12's server degradation: `slow_servers` servers run `slowdown`×
/// slower during the middle third of the horizon.
pub fn server_degradation_experiment(
    rho: f64,
    slow_servers: u32,
    slowdown: f64,
) -> ExperimentConfig {
    let mut e = base_experiment(format!("{slow_servers} servers {slowdown}x slower"), rho);
    let h = e.horizon_secs;
    for s in 0..slow_servers.min(e.cluster.servers) {
        e.cluster.perf_events.push(PerfEvent {
            server: s,
            start_secs: h / 3.0,
            end_secs: 2.0 * h / 3.0,
            multiplier: 1.0 / slowdown,
        });
    }
    e.warmup_secs = 0.0;
    e.rct_timeseries_bin_secs = Some(0.25);
    e
}

/// Fig. 14's key-skew scenario: Zipf popularity with skew `theta`,
/// replicated reads (R=3, least-loaded replica) to keep hot shards
/// servable, and narrow value sizes so the skew effect is isolated from
/// the size tail. Run at moderate load — hot shards run far above the
/// cluster average by construction.
pub fn key_skew_experiment(rho: f64, theta: f64) -> ExperimentConfig {
    let mut cluster = base_cluster();
    cluster.replication = 3;
    let mut workload = WorkloadSpec {
        n_keys: 100_000,
        arrival: ArrivalConfig::Poisson { rate: 1.0 },
        fanout: base_fanout(),
        sizes: SizeConfig::Uniform {
            min_bytes: 1 << 10,
            max_bytes: 16 << 10,
        },
        popularity: if theta == 0.0 {
            PopularityConfig::Uniform
        } else {
            PopularityConfig::Zipf { theta }
        },
        // Hot keys are small (published trace correlation): prevents any
        // single hot shard from being unconditionally overloaded.
        hot_key_size_cap: Some(4 << 10),
        write_fraction: 0.0,
    };
    let rate = arrival_rate_for_load(rho, &workload, &cluster);
    workload.arrival = ArrivalConfig::Poisson { rate };
    let mut e = ExperimentConfig::new(format!("key skew theta={theta}"), workload, cluster);
    e.horizon_secs = BASE_HORIZON_SECS;
    e.warmup_secs = BASE_WARMUP_SECS;
    e
}

/// Fig. 16's bursty-arrival scenario: an MMPP-2 whose two states run at
/// `low_rho` and `high_rho`, with the given mean sojourn times, so the
/// *time-average* load is between them but queues see alternating calm and
/// burst phases.
pub fn bursty_experiment(low_rho: f64, high_rho: f64, sojourn_secs: [f64; 2]) -> ExperimentConfig {
    let cluster = base_cluster();
    let probe = base_workload(1.0, &cluster);
    let unit_rate = probe
        .arrival
        .average_rate()
        // das-lint: allow(unwrap-lib): constructor always produces a Poisson arrival, which has a rate
        .expect("base workload is Poisson");
    let mut workload = probe;
    workload.arrival = ArrivalConfig::Mmpp {
        rates: [unit_rate * low_rho, unit_rate * high_rho],
        sojourn_secs,
    };
    let mut e = ExperimentConfig::new(format!("bursty {low_rho}/{high_rho}"), workload, cluster);
    e.horizon_secs = BASE_HORIZON_SECS;
    e.warmup_secs = BASE_WARMUP_SECS;
    e
}

/// Fig. 17's estimate-noise scenario: the base experiment with the
/// coordinator's service-time estimates perturbed by a lognormal factor of
/// relative sigma `noise` (0 = perfect size knowledge).
pub fn estimate_noise_experiment(rho: f64, noise: f64) -> ExperimentConfig {
    let mut e = base_experiment(format!("noise sigma={noise}"), rho);
    e.cluster.estimate_noise = noise;
    e
}

/// Fig. 22's fault-injection scenario: a fraction of the servers
/// crash-stop mid-run and recover, with replicated reads (R=2) and the
/// coordinator's retry path enabled so dropped work is redispatched.
///
/// Crash starts are staggered across the middle half of the horizon so
/// the cluster never loses more than one server at once at moderate
/// fractions; each outage lasts 15% of the horizon.
pub fn fault_injection_experiment(rho: f64, crash_fraction: f64) -> ExperimentConfig {
    assert!((0.0..=1.0).contains(&crash_fraction));
    let mut cluster = base_cluster();
    cluster.replication = 2;
    let workload = base_workload(rho, &cluster);
    let mut e = ExperimentConfig::new(
        format!("crash fraction {crash_fraction}"),
        workload,
        cluster,
    );
    e.horizon_secs = BASE_HORIZON_SECS;
    e.warmup_secs = BASE_WARMUP_SECS;
    let h = e.horizon_secs;
    let n = (crash_fraction * e.cluster.servers as f64).round() as u32;
    for i in 0..n {
        let start = h * (0.25 + 0.5 * i as f64 / n as f64);
        e.faults.crashes.crashes.push(CrashWindow {
            server: i * e.cluster.servers / n.max(1),
            down_secs: start,
            up_secs: start + 0.15 * h,
        });
    }
    // Retry on a ~20ms deadline: generous against the ~1ms RCT scale, tight
    // against the 750ms outages.
    e.faults.retry.deadline_secs = 0.02;
    e.faults.retry.max_attempts = 4;
    e
}

/// Fig. 23's hedging scenario: a few *gray* servers — up, but 50× slower
/// for the whole run — with replicated reads (R=3) and hedged reads at
/// the given delay quantile (`0` disables hedging: the baseline).
///
/// Gray failures are invisible to crash detection; the only defense is
/// issuing a second copy of a straggling read to another replica.
pub fn hedging_experiment(rho: f64, hedge_quantile: f64) -> ExperimentConfig {
    let mut cluster = base_cluster();
    cluster.replication = 3;
    for s in 0..3 {
        cluster.perf_events.push(PerfEvent {
            server: s * (BASE_SERVERS / 3),
            start_secs: 0.0,
            end_secs: f64::INFINITY,
            multiplier: 0.02,
        });
    }
    let workload = base_workload(rho, &cluster);
    let mut e = ExperimentConfig::new(
        format!("hedge quantile {hedge_quantile}"),
        workload,
        cluster,
    );
    e.horizon_secs = BASE_HORIZON_SECS;
    e.warmup_secs = BASE_WARMUP_SECS;
    e.faults.hedge.quantile = hedge_quantile;
    // ~2 network RTTs: low enough that the aggressive quantiles are not
    // all clamped to the same floor.
    e.faults.hedge.min_delay_secs = 1e-4;
    e
}

/// Fig. 24's overload-collapse scenario: offered load swept past
/// saturation with timeout-based retries armed (20 ms per-attempt
/// deadline, 3 attempts, R=2 replicas). Past `rho = 1` queues grow
/// without bound, every attempt blows its deadline, and the retry storm
/// multiplies the offered work — the classic congestion-collapse spiral.
///
/// With `controlled = true` the overload-control layer is switched on:
/// deadline-aware admission at the same 20 ms budget with 128-deep
/// bounded queues, a 2000 tokens/s retry budget (burst 16) so recovery
/// cannot storm, and pairwise coalescing of tiny ops (a ~1.25x capacity
/// recovery — deliberately not enough to absorb the top of the sweep,
/// so deadline admission visibly takes over as the relief valve).
/// Goodput then degrades gracefully instead of collapsing.
pub fn overload_experiment(rho: f64, controlled: bool) -> ExperimentConfig {
    let mut cluster = base_cluster();
    cluster.replication = 2;
    let workload = base_workload(rho, &cluster);
    let label = if controlled { "controlled" } else { "uncontrolled" };
    let mut e = ExperimentConfig::new(format!("rho={rho} {label}"), workload, cluster);
    // Shorter than the base horizon: past saturation the uncontrolled
    // store's backlog (and with it the cost of simulating each dequeue)
    // grows for the whole run, so horizon cost is superlinear — and the
    // collapse signal is unambiguous well before the base horizon.
    e.horizon_secs = 2.0;
    e.warmup_secs = 0.25;
    // Timeout-based retries: generous at moderate load, but past
    // saturation every attempt times out and is retried.
    e.faults.retry.deadline_secs = OVERLOAD_SLO_SECS;
    e.faults.retry.max_attempts = 3;
    if controlled {
        e.overload.admission.deadline_secs = OVERLOAD_SLO_SECS;
        e.overload.admission.queue_capacity = 128;
        e.overload.admission.write_penalty = 1.0;
        e.overload.backpressure.tokens_per_sec = 2000.0;
        e.overload.backpressure.burst = 16.0;
        e.overload.batch.max_ops = 2;
    }
    e
}

/// The SLO used by Fig. 24's goodput metric, and the retry/admission
/// deadline of [`overload_experiment`]: requests completing within this
/// bound count toward goodput.
pub const OVERLOAD_SLO_SECS: f64 = 0.02;

/// A scaled variant of the base experiment with `servers` servers at the
/// same per-server load (Fig. 13).
pub fn cluster_size_experiment(rho: f64, servers: u32, horizon_secs: f64) -> ExperimentConfig {
    let mut cluster = base_cluster();
    cluster.servers = servers;
    let workload = base_workload(rho, &cluster);
    let mut e = ExperimentConfig::new(format!("N={servers}"), workload, cluster);
    e.horizon_secs = horizon_secs;
    e.warmup_secs = (horizon_secs * 0.1).min(BASE_WARMUP_SECS);
    e
}

/// One scenario of the regression corpus (Table 10): a named experiment
/// whose workload is pinned as a committed JSONL trace under
/// `crates/workload/corpus/`, replayed under FCFS and DAS and blame-diffed
/// request by request. The committed trace is regenerable from
/// [`CorpusScenario::generate_trace`] and byte-pinned by the test suite,
/// so any drift in the generator or the builders is caught immediately.
#[derive(Debug, Clone)]
pub struct CorpusScenario {
    /// File stem of the committed trace (`<slug>.jsonl`).
    pub slug: &'static str,
    /// Human description for tables.
    pub title: &'static str,
    /// The cluster/fault/overload composition the trace is replayed
    /// against (its workload spec is also what generated the trace).
    pub experiment: ExperimentConfig,
}

impl CorpusScenario {
    /// Path of the committed trace for this scenario.
    pub fn trace_path(&self) -> std::path::PathBuf {
        das_workload::scenarios::corpus_dir().join(format!("{}.jsonl", self.slug))
    }

    /// Regenerates the trace the committed file must equal byte-for-byte:
    /// the experiment's recorded workload stream.
    pub fn generate_trace(&self) -> Vec<das_workload::generator::RequestSpec> {
        self.experiment.record_workload()
    }

    /// Loads and validates the committed trace.
    pub fn load_trace(&self) -> std::io::Result<Vec<das_workload::generator::RequestSpec>> {
        let path = self.trace_path();
        let file = std::fs::File::open(&path)?;
        let trace = das_workload::trace::read_trace(file)?;
        das_workload::trace::validate_trace(&trace)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(trace)
    }
}

/// The corpus cluster: a slice of the base scenario (8 servers, same
/// service and network model) so the committed traces stay small enough
/// to check in while every mechanism — schedules, replicas, perf events,
/// crash windows — still has room to matter.
fn corpus_cluster() -> ClusterConfig {
    ClusterConfig {
        servers: 8,
        ..base_cluster()
    }
}

/// The corpus workload skeleton at unit rate: a narrower fan-out and key
/// population than the base scenario, tuned for ~1-2k requests per
/// committed quick-mode trace.
fn corpus_workload(cluster: &ClusterConfig, rho: f64) -> WorkloadSpec {
    let mut spec = WorkloadSpec {
        n_keys: 20_000,
        arrival: ArrivalConfig::Poisson { rate: 1.0 },
        fanout: FanoutConfig::Zipf {
            max: 16,
            theta: 1.0,
        },
        sizes: base_sizes(),
        popularity: PopularityConfig::Uniform,
        hot_key_size_cap: None,
        write_fraction: 0.0,
    };
    let rate = arrival_rate_for_load(rho, &spec, cluster);
    spec.arrival = ArrivalConfig::Poisson { rate };
    spec
}

/// The scenario regression corpus behind `table10_scenario_corpus`: four
/// fixed quick-mode workloads — a diurnal load curve, a flash-crowd key
/// storm, a slow-disk gray failure, and a rolling restart — each with a
/// committed trace and golden blame tables. The corpus is deliberately
/// *not* scaled by quick mode: pinned traces are the whole point.
pub fn scenario_corpus() -> Vec<CorpusScenario> {
    let mut out = Vec::new();

    // Diurnal load curve: one full synthetic day (trough → peak → decay)
    // inside the horizon, with a write mix so the record/replay round trip
    // exercises write marking.
    {
        let cluster = corpus_cluster();
        let mut workload = corpus_workload(&cluster, 1.0);
        let unit_rate = arrival_rate_for_load(1.0, &workload, &cluster);
        let horizon = 0.8;
        workload.arrival = das_workload::scenarios::diurnal_arrival(unit_rate * 0.85, horizon);
        workload.write_fraction = 0.1;
        let mut e = ExperimentConfig::new("diurnal load curve", workload, cluster);
        e.seed = 1001;
        e.horizon_secs = horizon;
        e.warmup_secs = 0.0; // the whole curve is the result
        out.push(CorpusScenario {
            slug: "diurnal",
            title: "diurnal load curve (peak rho 0.85, writes 10%)",
            experiment: e,
        });
    }

    // Flash-crowd key storm: skewed popularity (hot keys size-capped, as
    // in the Fig. 14 scenario) with a sudden 4x arrival surge, absorbed by
    // replicated reads.
    {
        let mut cluster = corpus_cluster();
        cluster.replication = 3;
        let mut workload = corpus_workload(&cluster, 1.0);
        workload.popularity = PopularityConfig::Zipf { theta: 0.9 };
        workload.hot_key_size_cap = Some(4 << 10);
        let unit_rate = arrival_rate_for_load(1.0, &workload, &cluster);
        workload.arrival =
            das_workload::scenarios::flash_crowd_arrival(unit_rate * 0.45, 4.0, 0.2, 0.15);
        let mut e = ExperimentConfig::new("flash-crowd key storm", workload, cluster);
        e.seed = 1002;
        e.horizon_secs = 0.6;
        e.warmup_secs = 0.0;
        out.push(CorpusScenario {
            slug: "flash_crowd",
            title: "flash-crowd key storm (4x surge, Zipf 0.9, R=3)",
            experiment: e,
        });
    }

    // Slow-disk gray failure: two servers run 4x slower for the whole run
    // — up, answering, invisible to crash detection. Replicated reads give
    // load-aware dispatch an escape route; FCFS keeps feeding the slow
    // disks.
    {
        let mut cluster = corpus_cluster();
        cluster.replication = 2;
        for s in [1, 5] {
            cluster.perf_events.push(PerfEvent {
                server: s,
                start_secs: 0.0,
                end_secs: f64::INFINITY,
                multiplier: 0.25,
            });
        }
        let workload = corpus_workload(&cluster, 0.55);
        let mut e = ExperimentConfig::new("slow-disk gray failure", workload, cluster);
        e.seed = 1003;
        e.horizon_secs = 0.6;
        e.warmup_secs = 0.05;
        out.push(CorpusScenario {
            slug: "slow_disk",
            title: "slow-disk gray failure (2 of 8 servers 4x slower, R=2)",
            experiment: e,
        });
    }

    // Rolling restart: half the servers bounce one after another, each
    // down for 10% of the horizon, with replicated reads and the retry
    // path redispatching dropped work.
    {
        let mut cluster = corpus_cluster();
        cluster.replication = 2;
        let workload = corpus_workload(&cluster, 0.5);
        let mut e = ExperimentConfig::new("rolling restart", workload, cluster);
        e.seed = 1004;
        e.horizon_secs = 0.8;
        e.warmup_secs = 0.0;
        let h = e.horizon_secs;
        for i in 0..4u32 {
            let start = h * (0.15 + 0.18 * i as f64);
            e.faults.crashes.crashes.push(CrashWindow {
                server: i * 2,
                down_secs: start,
                up_secs: start + 0.1 * h,
            });
        }
        e.faults.retry.deadline_secs = 0.02;
        e.faults.retry.max_attempts = 4;
        out.push(CorpusScenario {
            slug: "rolling_restart",
            title: "rolling restart (4 of 8 servers bounce, R=2, retry)",
            experiment: e,
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::offered_load;

    #[test]
    fn base_workload_hits_target_load() {
        let cluster = base_cluster();
        for rho in [0.3, 0.7, 0.9] {
            let w = base_workload(rho, &cluster);
            let rate = w.arrival.average_rate().unwrap();
            let back = offered_load(rate, &w, &cluster);
            assert!((back - rho).abs() < 1e-9, "rho {rho} -> {back}");
        }
    }

    #[test]
    fn base_service_time_in_calibrated_range() {
        let cluster = base_cluster();
        let mean_op_secs = cluster.per_op_overhead.as_secs_f64()
            + base_sizes().mean_bytes() / cluster.base_rate_bytes_per_sec;
        // The scenario is calibrated for a ~150-400us mean op.
        assert!(
            (1.5e-4..4e-4).contains(&mean_op_secs),
            "mean op = {mean_op_secs}s"
        );
    }

    #[test]
    fn spike_schedule_has_three_phases() {
        let e = load_spike_experiment(0.3, 0.9);
        match &e.workload.arrival {
            ArrivalConfig::Schedule { steps, .. } => {
                assert_eq!(steps.len(), 3);
                assert!(steps[1].1 > steps[0].1 * 2.0);
                assert_eq!(steps[0].1, steps[2].1);
            }
            other => panic!("expected schedule, got {other:?}"),
        }
        assert!(e.rct_timeseries_bin_secs.is_some());
    }

    #[test]
    fn degradation_adds_perf_events() {
        let e = server_degradation_experiment(0.5, 5, 4.0);
        assert_eq!(e.cluster.perf_events.len(), 5);
        assert!((e.cluster.perf_events[0].multiplier - 0.25).abs() < 1e-12);
        assert_eq!(e.cluster.validate(), Ok(()));
    }

    #[test]
    fn fault_injection_places_staggered_crashes() {
        let e = fault_injection_experiment(0.7, 0.2);
        assert_eq!(e.faults.crashes.crashes.len(), 10);
        assert!(e.faults.retry.enabled());
        assert_eq!(e.faults.validate(e.cluster.servers), Ok(()));
        // Distinct servers, staggered starts within the horizon.
        let servers: std::collections::HashSet<u32> =
            e.faults.crashes.crashes.iter().map(|w| w.server).collect();
        assert_eq!(servers.len(), 10);
        for w in &e.faults.crashes.crashes {
            assert!(w.down_secs >= 0.25 * e.horizon_secs);
            assert!(w.up_secs <= e.horizon_secs);
        }
        // Zero fraction: retry armed but nothing crashes.
        let none = fault_injection_experiment(0.7, 0.0);
        assert!(none.faults.crashes.crashes.is_empty());
    }

    #[test]
    fn hedging_scenario_validates() {
        let e = hedging_experiment(0.7, 0.95);
        assert!(e.faults.hedge.enabled());
        assert_eq!(e.cluster.perf_events.len(), 3);
        assert_eq!(e.faults.validate(e.cluster.servers), Ok(()));
        assert_eq!(e.cluster.validate(), Ok(()));
        let off = hedging_experiment(0.7, 0.0);
        assert!(!off.faults.is_active());
    }

    #[test]
    fn overload_scenario_validates_in_both_modes() {
        let un = overload_experiment(1.3, false);
        assert!(un.faults.retry.enabled());
        assert!(!un.overload.is_active());
        assert_eq!(un.faults.validate(un.cluster.servers), Ok(()));

        let ctl = overload_experiment(1.3, true);
        assert!(ctl.overload.admission.enabled());
        assert!(ctl.overload.backpressure.enabled());
        assert!(ctl.overload.batch.enabled());
        assert_eq!(
            ctl.overload.validate(ctl.faults.retry.deadline_secs),
            Ok(())
        );
        // Same workload/cluster in both arms: only the control knobs differ.
        let ru = un.workload.arrival.average_rate().unwrap();
        let rc = ctl.workload.arrival.average_rate().unwrap();
        assert_eq!(ru, rc);
    }

    #[test]
    fn cluster_size_scales_rate() {
        let small = cluster_size_experiment(0.7, 10, 2.0);
        let big = cluster_size_experiment(0.7, 100, 2.0);
        let rs = small.workload.arrival.average_rate().unwrap();
        let rb = big.workload.arrival.average_rate().unwrap();
        assert!((rb / rs - 10.0).abs() < 1e-6);
    }

    #[test]
    fn corpus_scenarios_are_distinct_and_valid() {
        let corpus = scenario_corpus();
        assert_eq!(corpus.len(), 4);
        let slugs: std::collections::HashSet<&str> =
            corpus.iter().map(|s| s.slug).collect();
        assert_eq!(slugs.len(), corpus.len());
        for s in &corpus {
            assert_eq!(s.experiment.cluster.validate(), Ok(()), "{}", s.slug);
            assert_eq!(
                s.experiment.faults.validate(s.experiment.cluster.servers),
                Ok(()),
                "{}",
                s.slug
            );
            assert!(
                s.trace_path().ends_with(format!("corpus/{}.jsonl", s.slug)),
                "{}",
                s.slug
            );
            // Distinct seeds decorrelate the scenarios' streams.
            assert!(s.experiment.seed >= 1001);
        }
        // The gray-failure and rolling-restart scenarios carry their
        // defining mechanisms.
        assert_eq!(corpus[2].experiment.cluster.perf_events.len(), 2);
        assert_eq!(corpus[3].experiment.faults.crashes.crashes.len(), 4);
        assert!(corpus[3].experiment.faults.retry.enabled());
    }

    #[test]
    fn corpus_traces_are_recordable_and_moderate() {
        // Recording must yield a valid, committed-size trace for every
        // scenario; byte-pinning against the committed files lives in the
        // integration suite.
        for s in scenario_corpus() {
            let trace = s.generate_trace();
            assert!(
                trace.len() > 300 && trace.len() < 10_000,
                "{}: {} requests",
                s.slug,
                trace.len()
            );
            das_workload::trace::validate_trace(&trace).unwrap();
        }
    }

    #[test]
    fn every_scenario_validates_as_a_whole() {
        // `ExperimentConfig::validate` guards `run`, so a constructor that
        // built an invalid config would break its figure.
        let mut all = vec![
            base_experiment("base", 0.7),
            load_spike_experiment(0.4, 0.9),
            server_degradation_experiment(0.7, 5, 4.0),
            key_skew_experiment(0.7, 1.1),
            bursty_experiment(0.4, 0.9, [0.5, 0.25]),
            estimate_noise_experiment(0.7, 0.5),
            fault_injection_experiment(0.7, 0.1),
            hedging_experiment(0.7, 0.95),
            overload_experiment(1.3, false),
            overload_experiment(1.3, true),
            cluster_size_experiment(0.7, 1024, 0.12),
        ];
        all.extend(scenario_corpus().into_iter().map(|s| s.experiment));
        for e in &all {
            assert_eq!(e.validate(), Ok(()), "{}", e.name);
        }
    }
}
