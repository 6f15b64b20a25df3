//! The declared search space chaos cases are drawn from.
//!
//! A [`SearchSpace`] bounds every knob the fuzzer may turn: cluster shape,
//! load factor, crash windows, gray-failure perf events, link faults, and
//! the overload-control toggles. Case generation draws each concern from
//! its **own** [`SeedFactory`] stream (`"chaos-workload"`, `"chaos-faults"`,
//! `"chaos-overload"`), so zeroing the fault bounds cannot perturb the
//! generated workload — the determinism tests byte-diff traces to pin this.
//! Cases are valid by construction: loss implies retries, retry budgets
//! never exceed admission deadlines, and crash windows never overlap.

use rand::RngCore;

use das_net::latency::{LatencyConfig, NetworkConfig};
use das_sim::fault::{CrashWindow, FaultSchedule};
use das_sim::rng::{open_unit, SeedFactory, SimRng};
use das_sim::time::{SimDuration, SimTime};
use das_store::config::{
    AdmissionConfig, BackpressureConfig, BatchConfig, ClusterConfig, FaultProfile, HedgeConfig,
    OverloadProfile, PerfEvent, RetryConfig,
};
use das_store::partition::PartitionerConfig;
use das_workload::generator::{WorkloadGenerator, WorkloadSpec};
use das_workload::spec::{ArrivalConfig, FanoutConfig, PopularityConfig, SizeConfig};

use crate::case::ChaosCase;

/// Uniform draw in `[a, b]` (degenerate bounds return `a`).
fn uniform(rng: &mut SimRng, a: f64, b: f64) -> f64 {
    a + (b - a) * open_unit(rng)
}

/// Uniform integer draw in the inclusive range `[lo, hi]`.
fn pick_u32(rng: &mut SimRng, (lo, hi): (u32, u32)) -> u32 {
    lo + (rng.next_u64() % u64::from(hi.saturating_sub(lo) + 1)) as u32
}

/// Bernoulli draw with success probability `p`.
fn coin(rng: &mut SimRng, p: f64) -> bool {
    open_unit(rng) <= p
}

/// Bounds on every knob chaos search may turn.
///
/// Tuple fields are inclusive `(min, max)` ranges; `*_max` scalars bound a
/// knob that may also be off. The default space is deliberately small and
/// hostile: few servers, high load, noisy DAS inputs (hint loss, estimate
/// noise, many coordinators) — the regime where adaptive scheduling can
/// actually lose to FCFS.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Cluster size range.
    pub servers: (u32, u32),
    /// Workers per server range.
    pub workers_per_server: (u32, u32),
    /// Replication factor range.
    pub replication: (u32, u32),
    /// Independent coordinators range (more = staler DAS estimates).
    pub coordinators: (u32, u32),
    /// Offered-load factor rho range (fraction of cluster service capacity).
    pub rho: (f64, f64),
    /// Simulated horizon range, seconds.
    pub horizon_secs: (f64, f64),
    /// Key-population range.
    pub n_keys: (usize, usize),
    /// Largest multi-get fan-out range.
    pub fanout_max: (usize, usize),
    /// Cap on the per-access write probability.
    pub write_fraction_max: f64,
    /// Cap on the progress-hint loss probability (DAS stress).
    pub hint_loss_max: f64,
    /// Cap on the coordinator's service-time estimate noise (DAS stress).
    pub estimate_noise_max: f64,
    /// Largest number of crash windows per case.
    pub max_crash_windows: u32,
    /// Crash-window duration range, seconds.
    pub crash_len_secs: (f64, f64),
    /// Largest number of gray-failure perf events per case.
    pub max_perf_events: u32,
    /// Perf-event rate-multiplier range (below 1 = slowdown).
    pub perf_multiplier: (f64, f64),
    /// Cap on each link-fault probability (loss, duplication, extra delay).
    pub link_prob_max: f64,
    /// Cap on the extra delay injected by delayed messages, microseconds.
    pub extra_delay_micros_max: f64,
    /// Probability that retries are enabled without loss forcing them.
    pub retry_prob: f64,
    /// Probability that hedged reads are enabled.
    pub hedge_prob: f64,
    /// Probability that each overload-control knob (admission,
    /// backpressure, batching) is switched on.
    pub overload_prob: f64,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            servers: (4, 8),
            workers_per_server: (1, 2),
            replication: (1, 2),
            coordinators: (1, 4),
            rho: (0.55, 0.9),
            horizon_secs: (0.25, 0.5),
            n_keys: (2_000, 10_000),
            fanout_max: (4, 16),
            write_fraction_max: 0.3,
            hint_loss_max: 0.5,
            estimate_noise_max: 0.5,
            max_crash_windows: 3,
            crash_len_secs: (0.02, 0.12),
            max_perf_events: 2,
            perf_multiplier: (0.05, 0.5),
            link_prob_max: 0.05,
            extra_delay_micros_max: 2_000.0,
            retry_prob: 0.3,
            hedge_prob: 0.3,
            overload_prob: 0.5,
        }
    }
}

impl SearchSpace {
    /// A space with every fault, recovery, overload, and DAS-noise bound
    /// zeroed — generated cases carry a default (inactive) fault profile.
    /// Paired with the same seed against the original space, the workload
    /// side of each case must be identical (stream isolation); the
    /// determinism tests byte-diff exactly that.
    pub fn without_faults(&self) -> Self {
        SearchSpace {
            hint_loss_max: 0.0,
            estimate_noise_max: 0.0,
            max_crash_windows: 0,
            max_perf_events: 0,
            link_prob_max: 0.0,
            extra_delay_micros_max: 0.0,
            retry_prob: 0.0,
            hedge_prob: 0.0,
            overload_prob: 0.0,
            ..self.clone()
        }
    }

    /// Draws the cluster and workload (arrival rate solved from rho).
    fn draw_workload(&self, rng: &mut SimRng) -> (ClusterConfig, WorkloadSpec, f64) {
        let servers = pick_u32(rng, self.servers);
        let cluster = ClusterConfig {
            servers,
            workers_per_server: pick_u32(rng, self.workers_per_server),
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
            replication: pick_u32(rng, self.replication).min(servers),
            coordinators: pick_u32(rng, self.coordinators),
            hint_loss: uniform(rng, 0.0, self.hint_loss_max),
            perf_events: Vec::new(),
            estimate_noise: uniform(rng, 0.0, self.estimate_noise_max),
        };
        let n_keys_span = (self.n_keys.1 - self.n_keys.0) as u64 + 1;
        let mut spec = WorkloadSpec {
            n_keys: self.n_keys.0 + (rng.next_u64() % n_keys_span) as usize,
            // Placeholder rate; replaced below once the spec's means exist.
            arrival: ArrivalConfig::Poisson { rate: 1.0 },
            fanout: FanoutConfig::Zipf {
                max: self.fanout_max.0
                    + (rng.next_u64() % ((self.fanout_max.1 - self.fanout_max.0) as u64 + 1))
                        as usize,
                theta: uniform(rng, 0.6, 1.2),
            },
            sizes: SizeConfig::Etc {
                min_bytes: 512,
                max_bytes: 256 << 10,
                alpha: 1.1,
            },
            popularity: PopularityConfig::Zipf {
                theta: uniform(rng, 0.6, 1.1),
            },
            hot_key_size_cap: None,
            write_fraction: uniform(rng, 0.0, self.write_fraction_max),
        };
        let rho = uniform(rng, self.rho.0, self.rho.1);
        let work = spec.work_per_request_secs(
            cluster.per_op_overhead.as_secs_f64(),
            cluster.base_rate_bytes_per_sec,
        );
        let rate = rho * f64::from(cluster.servers) * f64::from(cluster.workers_per_server) / work;
        spec.arrival = ArrivalConfig::Poisson { rate };
        let horizon = uniform(rng, self.horizon_secs.0, self.horizon_secs.1);
        (cluster, spec, horizon)
    }

    /// Draws crash windows, perf events, link faults, and the recovery
    /// policy — all from the fault stream only.
    fn draw_faults(
        &self,
        rng: &mut SimRng,
        servers: u32,
        horizon: f64,
    ) -> (FaultProfile, Vec<PerfEvent>) {
        let mut crashes = Vec::new();
        if self.max_crash_windows > 0 {
            let n = pick_u32(rng, (0, self.max_crash_windows));
            for _ in 0..n {
                let server = pick_u32(rng, (0, servers - 1));
                let down = uniform(rng, 0.0, horizon * 0.8);
                let len = uniform(rng, self.crash_len_secs.0, self.crash_len_secs.1);
                crashes.push(CrashWindow {
                    server,
                    down_secs: down,
                    up_secs: down + len,
                });
            }
        }
        let crashes = dedup_overlaps(crashes);

        let mut perf_events = Vec::new();
        if self.max_perf_events > 0 {
            let n = pick_u32(rng, (0, self.max_perf_events));
            for _ in 0..n {
                let start = uniform(rng, 0.0, horizon * 0.8);
                let len = uniform(rng, self.crash_len_secs.0, self.crash_len_secs.1);
                perf_events.push(PerfEvent {
                    server: pick_u32(rng, (0, servers - 1)),
                    start_secs: start,
                    end_secs: start + len,
                    multiplier: uniform(rng, self.perf_multiplier.0, self.perf_multiplier.1),
                });
            }
        }

        let draw_link = |rng: &mut SimRng| das_net::faults::LinkFaults {
            loss: if coin(rng, 0.5) {
                uniform(rng, 0.0, self.link_prob_max)
            } else {
                0.0
            },
            duplication: if coin(rng, 0.5) {
                uniform(rng, 0.0, self.link_prob_max)
            } else {
                0.0
            },
            extra_delay_prob: if coin(rng, 0.5) {
                uniform(rng, 0.0, self.link_prob_max)
            } else {
                0.0
            },
            extra_delay_micros: uniform(rng, 0.0, self.extra_delay_micros_max),
        };
        let request_faults = draw_link(rng);
        let response_faults = draw_link(rng);

        // Loss without retries would hang a request forever, so any loss
        // forces the retry machinery on (validity by construction).
        let lossy = request_faults.loss > 0.0 || response_faults.loss > 0.0;
        let retry = if lossy || coin(rng, self.retry_prob) {
            RetryConfig {
                deadline_secs: uniform(rng, 0.005, 0.04),
                max_attempts: pick_u32(rng, (2, 4)),
                jitter: uniform(rng, 0.0, 0.5),
            }
        } else {
            RetryConfig::default()
        };
        let hedge = if coin(rng, self.hedge_prob) {
            HedgeConfig {
                quantile: uniform(rng, 0.9, 0.99),
                min_samples: 20,
                ..HedgeConfig::default()
            }
        } else {
            HedgeConfig::default()
        };

        (
            FaultProfile {
                crashes: FaultSchedule { crashes },
                request_faults,
                response_faults,
                retry,
                hedge,
            },
            perf_events,
        )
    }

    /// Draws the overload-control profile from the overload stream only.
    fn draw_overload(&self, rng: &mut SimRng) -> OverloadProfile {
        OverloadProfile {
            admission: if coin(rng, self.overload_prob) {
                AdmissionConfig {
                    deadline_secs: uniform(rng, 0.02, 0.1),
                    queue_capacity: pick_u32(rng, (64, 512)),
                    write_penalty: uniform(rng, 1.0, 2.0),
                }
            } else {
                AdmissionConfig::default()
            },
            backpressure: if coin(rng, self.overload_prob) {
                BackpressureConfig {
                    tokens_per_sec: uniform(rng, 100.0, 2_000.0),
                    burst: uniform(rng, 4.0, 32.0),
                }
            } else {
                BackpressureConfig::default()
            },
            batch: if coin(rng, self.overload_prob) {
                BatchConfig {
                    max_ops: pick_u32(rng, (2, 8)),
                    overhead_fraction: uniform(rng, 0.1, 0.5),
                }
            } else {
                BatchConfig::default()
            },
        }
    }

    /// Generates case `index` of the run seeded by `seeds`. The returned
    /// case is validated; an error here is a bug in the space, not in the
    /// caller.
    pub fn generate(&self, seeds: &SeedFactory, index: u64) -> Result<ChaosCase, String> {
        let mut wl_rng = seeds.stream("chaos-workload", index);
        let mut fault_rng = seeds.stream("chaos-faults", index);
        let mut ov_rng = seeds.stream("chaos-overload", index);

        let (mut cluster, workload, horizon) = self.draw_workload(&mut wl_rng);
        let (mut faults, perf_events) = self.draw_faults(&mut fault_rng, cluster.servers, horizon);
        cluster.perf_events = perf_events;
        let overload = self.draw_overload(&mut ov_rng);
        // A retry budget above the admission deadline is invalid (every
        // retried attempt would outlive its request); clamp rather than
        // redraw so the fault stream's draw count stays fixed.
        if overload.admission.enabled() && faults.retry.deadline_secs > overload.admission.deadline_secs
        {
            faults.retry.deadline_secs = overload.admission.deadline_secs;
        }

        let case_seed = seeds.derived_seed("chaos-case", index);
        let trace = WorkloadGenerator::new(&workload, &SeedFactory::new(case_seed))
            .take_until(SimTime::from_secs_f64(horizon));
        let case = ChaosCase {
            name: format!("case{index:04}"),
            seed: case_seed,
            horizon_secs: horizon,
            warmup_secs: 0.1 * horizon,
            cluster,
            workload,
            faults,
            overload,
            trace,
        };
        case.validate().map(|()| case)
    }

    /// Mutates `base` into a neighbouring case, biased toward placing
    /// fault edges near DAS scheduling decisions: `decisions` holds decision
    /// instants (seconds) harvested from the parent's DAS trace, and most
    /// mutations drop a crash or gray-failure edge just before one of them
    /// (with a little jitter), which is exactly where a stale estimate hurts
    /// the most. The workload trace is never touched here — shrinking owns
    /// trace reduction.
    pub fn mutate(&self, base: &ChaosCase, rng: &mut SimRng, decisions: &[f64]) -> ChaosCase {
        let mut out = base.clone();
        out.name = format!("{}m", base.name);
        let horizon = base.horizon_secs;
        let pick_instant = |rng: &mut SimRng| -> f64 {
            if decisions.is_empty() || coin(rng, 0.25) {
                uniform(rng, 0.0, horizon * 0.8)
            } else {
                let d = decisions[(rng.next_u64() % decisions.len() as u64) as usize];
                // Land the edge just before the decision so the scheduler
                // acts on information the fault has already invalidated.
                (d - uniform(rng, 0.0, 0.01)).max(0.0)
            }
        };
        match rng.next_u64() % 6 {
            0 if self.max_crash_windows > 0 => {
                let down = pick_instant(rng);
                let len = uniform(rng, self.crash_len_secs.0, self.crash_len_secs.1);
                out.faults.crashes.crashes.push(CrashWindow {
                    server: pick_u32(rng, (0, base.cluster.servers - 1)),
                    down_secs: down,
                    up_secs: down + len,
                });
                out.faults.crashes.crashes = dedup_overlaps(out.faults.crashes.crashes.clone());
            }
            1 if !out.faults.crashes.crashes.is_empty() => {
                let n = out.faults.crashes.crashes.len() as u64;
                let i = (rng.next_u64() % n) as usize;
                let w = &mut out.faults.crashes.crashes[i];
                let len = w.up_secs - w.down_secs;
                w.down_secs = pick_instant(rng);
                w.up_secs = w.down_secs + len;
                out.faults.crashes.crashes = dedup_overlaps(out.faults.crashes.crashes.clone());
            }
            2 if self.max_perf_events > 0 => {
                let start = pick_instant(rng);
                let len = uniform(rng, self.crash_len_secs.0, self.crash_len_secs.1);
                out.cluster.perf_events.push(PerfEvent {
                    server: pick_u32(rng, (0, base.cluster.servers - 1)),
                    start_secs: start,
                    end_secs: start + len,
                    multiplier: uniform(rng, self.perf_multiplier.0, self.perf_multiplier.1),
                });
            }
            3 if self.link_prob_max > 0.0 => {
                out.faults.response_faults.loss = uniform(rng, 0.0, self.link_prob_max);
                if !out.faults.retry.enabled() {
                    out.faults.retry.deadline_secs = uniform(rng, 0.005, 0.04);
                }
                if out.overload.admission.enabled()
                    && out.faults.retry.deadline_secs > out.overload.admission.deadline_secs
                {
                    out.faults.retry.deadline_secs = out.overload.admission.deadline_secs;
                }
            }
            4 if self.hint_loss_max > 0.0 => {
                out.cluster.hint_loss = uniform(rng, 0.0, self.hint_loss_max);
            }
            _ if self.estimate_noise_max > 0.0 => {
                out.cluster.estimate_noise = uniform(rng, 0.0, self.estimate_noise_max);
            }
            _ => {}
        }
        out
    }
}

/// Sorts windows by `(server, down)` and drops any window overlapping the
/// previously kept one on the same server — the generated schedule always
/// passes [`FaultSchedule::first_overlap`].
fn dedup_overlaps(mut windows: Vec<CrashWindow>) -> Vec<CrashWindow> {
    windows.sort_by(|a, b| {
        a.server
            .cmp(&b.server)
            .then(a.down_secs.total_cmp(&b.down_secs))
    });
    let mut kept: Vec<CrashWindow> = Vec::with_capacity(windows.len());
    for w in windows {
        let overlaps = kept
            .last()
            .is_some_and(|p| p.server == w.server && w.down_secs < p.up_secs);
        if !overlaps {
            kept.push(w);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_are_valid_and_deterministic() {
        let space = SearchSpace::default();
        let seeds = SeedFactory::new(42);
        for i in 0..16 {
            let a = space.generate(&seeds, i).unwrap();
            let b = space.generate(&seeds, i).unwrap();
            assert_eq!(a, b);
            assert!(!a.trace.is_empty(), "case {i} generated an empty trace");
        }
    }

    #[test]
    fn different_indices_differ() {
        let space = SearchSpace::default();
        let seeds = SeedFactory::new(42);
        let a = space.generate(&seeds, 0).unwrap();
        let b = space.generate(&seeds, 1).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn fault_stream_is_isolated_from_workload() {
        // Zeroing every fault/overload bound must not change the workload
        // side of the case: separate RNG streams per concern.
        let space = SearchSpace::default();
        let calm = space.without_faults();
        let seeds = SeedFactory::new(7);
        for i in 0..8 {
            let a = space.generate(&seeds, i).unwrap();
            let b = calm.generate(&seeds, i).unwrap();
            assert_eq!(a.trace, b.trace, "case {i} trace drifted");
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.seed, b.seed);
            assert!(b.faults.crashes.crashes.is_empty());
            assert!(b.cluster.perf_events.is_empty());
            assert!(!b.overload.is_active());
        }
    }

    #[test]
    fn mutation_yields_valid_cases() {
        let space = SearchSpace::default();
        let seeds = SeedFactory::new(13);
        let base = space.generate(&seeds, 2).unwrap();
        let mut rng = seeds.stream("chaos-search", 99);
        let decisions = [0.05, 0.1, 0.2];
        for _ in 0..32 {
            let m = space.mutate(&base, &mut rng, &decisions);
            assert!(m.validate().is_ok(), "mutant failed validation");
            assert_eq!(m.trace, base.trace, "mutation must not touch the trace");
        }
    }

    #[test]
    fn dedup_drops_only_overlaps() {
        let w = |server, down: f64, up: f64| CrashWindow {
            server,
            down_secs: down,
            up_secs: up,
        };
        let kept = dedup_overlaps(vec![w(0, 0.1, 0.2), w(0, 0.15, 0.3), w(1, 0.1, 0.2)]);
        assert_eq!(kept.len(), 2);
        let kept = dedup_overlaps(vec![w(0, 0.1, 0.2), w(0, 0.2, 0.3)]);
        assert_eq!(kept.len(), 2, "back-to-back windows are legal");
    }
}
