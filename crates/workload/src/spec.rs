//! Declarative workload specifications.
//!
//! Every knob the evaluation sweeps — arrival process, request fan-out,
//! value sizes, key popularity — is a small serde enum here, so an entire
//! experiment is a JSON-serializable value and every figure's workload is
//! reviewable at a glance.

use rand::RngCore;
use serde::{Deserialize, Serialize};

use das_sim::discrete::{
    ConstantInt, SampleDiscrete, TruncatedGeometric, UniformInt, WeightedInt, Zipf,
};
use das_sim::dist::{BoundedPareto, Deterministic, Lognormal, Mixture, Sample, Uniform};
use das_sim::process::{
    ArrivalProcess, Mmpp2, ModulatedPoissonProcess, PoissonProcess, RateSchedule,
};
use das_sim::time::{SimDuration, SimTime};

/// Why a workload spec cannot be built. Returned by
/// [`WorkloadSpec::validate`](crate::generator::WorkloadSpec::validate) so
/// a spec read from outside is rejected at the boundary instead of
/// tripping a constructor assert mid-run.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// `n_keys` is zero.
    EmptyKeySpace,
    /// A rate, sojourn time or period that must be a finite positive
    /// number is not.
    NonPositiveRate {
        /// Which knob (e.g. `"arrival.rate"`).
        knob: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The arrival process is malformed in a way no single number names.
    ArrivalInvalid {
        /// What was wrong.
        reason: &'static str,
    },
    /// The fan-out's smallest and largest values violate
    /// `1 <= min <= max <= n_keys` (a bimodal fan-out also needs
    /// `small < large`). Requests read distinct keys, so a fan-out above
    /// the key count can never be drawn.
    FanoutOutOfBounds {
        /// Smallest fan-out the config can produce.
        min: usize,
        /// Largest fan-out the config can produce.
        max: usize,
        /// Keys in the store.
        n_keys: usize,
    },
    /// A probability is outside `[0, 1]` (the geometric fan-out's `p`:
    /// outside the open interval).
    ProbabilityOutOfRange {
        /// Which knob (e.g. `"write_fraction"`).
        knob: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A Zipf skew exponent is negative or not finite.
    NegativeSkew {
        /// Which knob (`"fanout.theta"` or `"popularity.theta"`).
        knob: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A value-size distribution parameter is out of range.
    SizeInvalid {
        /// What was wrong.
        reason: &'static str,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::EmptyKeySpace => write!(f, "n_keys must be >= 1"),
            WorkloadError::NonPositiveRate { knob, value } => {
                write!(f, "{knob} must be finite and positive, got {value}")
            }
            WorkloadError::ArrivalInvalid { reason } => write!(f, "arrival: {reason}"),
            WorkloadError::FanoutOutOfBounds { min, max, n_keys } => write!(
                f,
                "fanout must satisfy 1 <= min <= max <= n_keys, got min {min}, max {max}, \
                 n_keys {n_keys}"
            ),
            WorkloadError::ProbabilityOutOfRange { knob, value } => {
                write!(f, "{knob} must be a probability, got {value}")
            }
            WorkloadError::NegativeSkew { knob, value } => {
                write!(f, "{knob} must be finite and >= 0, got {value}")
            }
            WorkloadError::SizeInvalid { reason } => write!(f, "sizes: {reason}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

fn positive(knob: &'static str, value: f64) -> Result<(), WorkloadError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(WorkloadError::NonPositiveRate { knob, value })
    }
}

fn probability(knob: &'static str, value: f64) -> Result<(), WorkloadError> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(WorkloadError::ProbabilityOutOfRange { knob, value })
    }
}

fn skew(knob: &'static str, value: f64) -> Result<(), WorkloadError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(WorkloadError::NegativeSkew { knob, value })
    }
}

/// Request arrival process configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ArrivalConfig {
    /// Poisson arrivals at a constant rate (requests/second).
    Poisson {
        /// Arrival rate, requests per second.
        rate: f64,
    },
    /// Two-state Markov-modulated Poisson process (bursty traffic).
    Mmpp {
        /// Arrival rate in each state, requests per second.
        rates: [f64; 2],
        /// Mean sojourn time in each state, seconds.
        sojourn_secs: [f64; 2],
    },
    /// Poisson arrivals whose rate follows a piecewise-constant schedule —
    /// the time-varying-load experiments.
    Schedule {
        /// `(start_seconds, rate)` steps, sorted by start.
        steps: Vec<(f64, f64)>,
        /// Optional repetition period in seconds.
        period_secs: Option<f64>,
    },
}

impl ArrivalConfig {
    /// Checks everything [`ArrivalConfig::build`] asserts.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let invalid = |reason| Err(WorkloadError::ArrivalInvalid { reason });
        match self {
            ArrivalConfig::Poisson { rate } => positive("arrival.rate", *rate),
            ArrivalConfig::Mmpp {
                rates,
                sojourn_secs,
            } => {
                rates
                    .iter()
                    .try_for_each(|&r| positive("arrival.rates", r))?;
                sojourn_secs
                    .iter()
                    .try_for_each(|&s| positive("arrival.sojourn_secs", s))
            }
            ArrivalConfig::Schedule { steps, period_secs } => {
                if steps.is_empty() {
                    return invalid("schedule needs at least one step");
                }
                if !steps.iter().all(|&(s, _)| s.is_finite() && s >= 0.0) {
                    return invalid("schedule step starts must be finite and >= 0");
                }
                if !steps.windows(2).all(|w| w[0].0 <= w[1].0) {
                    return invalid("schedule steps must be sorted by start");
                }
                steps
                    .iter()
                    .try_for_each(|&(_, r)| positive("arrival.steps rate", r))?;
                if let Some(p) = *period_secs {
                    positive("arrival.period_secs", p)?;
                    let period = SimDuration::from_secs_f64(p).as_nanos();
                    let inside =
                        |&(s, _): &(f64, f64)| SimTime::from_secs_f64(s).as_nanos() < period;
                    if !steps.iter().all(inside) {
                        return invalid("schedule steps must start inside one period");
                    }
                }
                Ok(())
            }
        }
    }

    /// Builds the stateful arrival process.
    pub fn build(&self) -> Box<dyn ArrivalProcess + Send> {
        match self {
            ArrivalConfig::Poisson { rate } => Box::new(PoissonProcess::new(*rate)),
            ArrivalConfig::Mmpp {
                rates,
                sojourn_secs,
            } => Box::new(Mmpp2::new(*rates, *sojourn_secs)),
            ArrivalConfig::Schedule { steps, period_secs } => {
                let mut sched = RateSchedule::new(
                    steps
                        .iter()
                        .map(|&(s, r)| (SimTime::from_secs_f64(s), r))
                        .collect(),
                );
                if let Some(p) = period_secs {
                    sched = sched.repeating(SimDuration::from_secs_f64(*p));
                }
                Box::new(ModulatedPoissonProcess::new(sched))
            }
        }
    }

    /// Long-run average rate where well-defined (schedules report `None`).
    pub fn average_rate(&self) -> Option<f64> {
        match self {
            ArrivalConfig::Poisson { rate } => Some(*rate),
            ArrivalConfig::Mmpp {
                rates,
                sojourn_secs,
            } => {
                let w0 = sojourn_secs[0] / (sojourn_secs[0] + sojourn_secs[1]);
                Some(w0 * rates[0] + (1.0 - w0) * rates[1])
            }
            ArrivalConfig::Schedule { .. } => None,
        }
    }

    /// Returns a copy with all rates scaled by `factor` (used by load
    /// sweeps).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0);
        match self {
            ArrivalConfig::Poisson { rate } => ArrivalConfig::Poisson {
                rate: rate * factor,
            },
            ArrivalConfig::Mmpp {
                rates,
                sojourn_secs,
            } => ArrivalConfig::Mmpp {
                rates: [rates[0] * factor, rates[1] * factor],
                sojourn_secs: *sojourn_secs,
            },
            ArrivalConfig::Schedule { steps, period_secs } => ArrivalConfig::Schedule {
                steps: steps.iter().map(|&(s, r)| (s, r * factor)).collect(),
                period_secs: *period_secs,
            },
        }
    }
}

/// Request fan-out (number of keys per multi-get) configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FanoutConfig {
    /// Every request reads exactly `keys` keys.
    Constant {
        /// Keys per request.
        keys: usize,
    },
    /// Uniform in `[min, max]`.
    Uniform {
        /// Minimum keys per request.
        min: usize,
        /// Maximum keys per request.
        max: usize,
    },
    /// Zipf-distributed over `[1, max]` with skew `theta` — many small
    /// requests, few huge ones (the shape production multigets have).
    Zipf {
        /// Largest possible fan-out.
        max: usize,
        /// Skew (0 = uniform).
        theta: f64,
    },
    /// `small` keys with probability `p_small`, else `large` keys.
    Bimodal {
        /// The common (small) fan-out.
        small: usize,
        /// Probability of the small fan-out.
        p_small: f64,
        /// The rare (large) fan-out.
        large: usize,
    },
    /// Truncated geometric on `[1, max]`.
    Geometric {
        /// Per-step success probability.
        p: f64,
        /// Largest possible fan-out.
        max: usize,
    },
}

impl FanoutConfig {
    /// Checks everything [`FanoutConfig::build`] asserts, and that the
    /// largest fan-out fits a store of `n_keys` keys.
    pub fn validate(&self, n_keys: usize) -> Result<(), WorkloadError> {
        // (smallest, largest, whether they must differ)
        let (min, max, distinct) = match *self {
            FanoutConfig::Constant { keys } => (keys, keys, false),
            FanoutConfig::Uniform { min, max } => (min, max, false),
            FanoutConfig::Zipf { max, theta } => {
                skew("fanout.theta", theta)?;
                (1, max, false)
            }
            FanoutConfig::Bimodal {
                small,
                p_small,
                large,
            } => {
                probability("fanout.p_small", p_small)?;
                (small, large, true)
            }
            FanoutConfig::Geometric { p, max } => {
                if !(p > 0.0 && p < 1.0) {
                    return Err(WorkloadError::ProbabilityOutOfRange {
                        knob: "fanout.p",
                        value: p,
                    });
                }
                (1, max, false)
            }
        };
        if 1 <= min && min <= max && max <= n_keys && !(distinct && min == max) {
            Ok(())
        } else {
            Err(WorkloadError::FanoutOutOfBounds { min, max, n_keys })
        }
    }

    /// Builds the sampler. Fan-outs are always ≥ 1.
    pub fn build(&self) -> Box<dyn SampleDiscrete + Send + Sync> {
        match *self {
            FanoutConfig::Constant { keys } => {
                assert!(keys >= 1);
                Box::new(ConstantInt::new(keys))
            }
            FanoutConfig::Uniform { min, max } => {
                assert!(min >= 1);
                Box::new(UniformInt::new(min, max))
            }
            FanoutConfig::Zipf { max, theta } => Box::new(ShiftedZipf::new(max, theta)),
            FanoutConfig::Bimodal {
                small,
                p_small,
                large,
            } => Box::new(WeightedInt::bimodal(small, p_small, large)),
            FanoutConfig::Geometric { p, max } => Box::new(TruncatedGeometric::new(p, max)),
        }
    }

    /// Mean fan-out.
    pub fn mean(&self) -> f64 {
        self.build()
            .mean()
            // das-lint: allow(unwrap-lib): every fan-out sampler variant implements an analytic mean
            .expect("all fan-out samplers report means")
    }
}

/// Zipf over `[1, max]` (rank 0 maps to fan-out 1).
#[derive(Debug, Clone)]
struct ShiftedZipf {
    inner: Zipf,
}

impl ShiftedZipf {
    fn new(max: usize, theta: f64) -> Self {
        assert!(max >= 1);
        ShiftedZipf {
            inner: Zipf::new(max, theta),
        }
    }
}

impl SampleDiscrete for ShiftedZipf {
    fn sample(&self, rng: &mut dyn RngCore) -> usize {
        self.inner.sample(rng) + 1
    }
    fn mean(&self) -> Option<f64> {
        self.inner.mean().map(|m| m + 1.0)
    }
}

/// Value size configuration (bytes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SizeConfig {
    /// All values are `bytes` long.
    Fixed {
        /// Value size in bytes.
        bytes: u64,
    },
    /// Uniform in `[min_bytes, max_bytes)`.
    Uniform {
        /// Minimum bytes.
        min_bytes: u64,
        /// Maximum bytes.
        max_bytes: u64,
    },
    /// Bounded Pareto — the heavy-tailed shape of the Facebook ETC trace
    /// (Atikoglu et al., SIGMETRICS '12), which modelled values with a
    /// generalized Pareto body.
    Etc {
        /// Smallest value, bytes.
        min_bytes: u64,
        /// Largest value, bytes.
        max_bytes: u64,
        /// Tail index (1.0–1.5 matches published traces).
        alpha: f64,
    },
    /// `small_bytes` with probability `p_small`, else `large_bytes`.
    Bimodal {
        /// Common small size.
        small_bytes: u64,
        /// Probability of the small size.
        p_small: f64,
        /// Rare large size.
        large_bytes: u64,
    },
    /// Lognormal with the given mean and log-space sigma.
    Lognormal {
        /// Mean size, bytes.
        mean_bytes: f64,
        /// Log-space sigma.
        sigma: f64,
    },
}

impl SizeConfig {
    /// The default "ETC-like" sizes: 64 B – 1 MiB, alpha 1.3.
    pub fn etc_default() -> Self {
        SizeConfig::Etc {
            min_bytes: 64,
            max_bytes: 1 << 20,
            alpha: 1.3,
        }
    }

    /// Checks everything [`SizeConfig::build`] asserts.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let invalid = |reason| Err(WorkloadError::SizeInvalid { reason });
        match *self {
            SizeConfig::Fixed { .. } => Ok(()),
            SizeConfig::Uniform {
                min_bytes,
                max_bytes,
            } if min_bytes > max_bytes => invalid("uniform needs min_bytes <= max_bytes"),
            SizeConfig::Uniform { .. } => Ok(()),
            SizeConfig::Etc {
                min_bytes,
                max_bytes,
                alpha,
            } => {
                if min_bytes == 0 || max_bytes <= min_bytes {
                    invalid("etc needs 0 < min_bytes < max_bytes")
                } else if !(alpha.is_finite() && alpha > 0.0) {
                    invalid("etc alpha must be finite and positive")
                } else {
                    Ok(())
                }
            }
            SizeConfig::Bimodal { p_small, .. } => probability("sizes.p_small", p_small),
            SizeConfig::Lognormal { mean_bytes, sigma } => {
                if !(mean_bytes.is_finite() && mean_bytes > 0.0) {
                    invalid("lognormal mean_bytes must be finite and positive")
                } else if !(sigma.is_finite() && sigma >= 0.0) {
                    invalid("lognormal sigma must be finite and >= 0")
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Builds the sampler (returns sizes in bytes as `f64`; callers round).
    pub fn build(&self) -> Box<dyn Sample + Send + Sync> {
        match *self {
            SizeConfig::Fixed { bytes } => Box::new(Deterministic::new(bytes as f64)),
            SizeConfig::Uniform {
                min_bytes,
                max_bytes,
            } => Box::new(Uniform::new(min_bytes as f64, max_bytes as f64)),
            SizeConfig::Etc {
                min_bytes,
                max_bytes,
                alpha,
            } => Box::new(BoundedPareto::new(
                min_bytes as f64,
                max_bytes as f64,
                alpha,
            )),
            SizeConfig::Bimodal {
                small_bytes,
                p_small,
                large_bytes,
            } => Box::new(Mixture::bimodal(
                small_bytes as f64,
                p_small,
                large_bytes as f64,
            )),
            SizeConfig::Lognormal { mean_bytes, sigma } => {
                Box::new(Lognormal::with_mean(mean_bytes, sigma))
            }
        }
    }

    /// Mean value size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        // das-lint: allow(unwrap-lib): every size sampler variant implements an analytic mean
        self.build().mean().expect("all size samplers report means")
    }
}

/// Key popularity configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum PopularityConfig {
    /// All keys equally likely.
    Uniform,
    /// Zipf with skew `theta` (0.9–1.1 matches production key-value
    /// workloads).
    Zipf {
        /// Skew exponent.
        theta: f64,
    },
}

impl PopularityConfig {
    /// Checks everything [`PopularityConfig::build`] asserts.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        match *self {
            PopularityConfig::Uniform => Ok(()),
            PopularityConfig::Zipf { theta } => skew("popularity.theta", theta),
        }
    }

    /// Builds a key-rank sampler over `n_keys` keys.
    pub fn build(&self, n_keys: usize) -> Box<dyn SampleDiscrete + Send + Sync> {
        match *self {
            PopularityConfig::Uniform => Box::new(UniformInt::new(0, n_keys - 1)),
            PopularityConfig::Zipf { theta } => Box::new(Zipf::new(n_keys, theta)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_sim::rng::SeedFactory;

    #[test]
    fn arrival_configs_build_and_report_rates() {
        assert_eq!(
            ArrivalConfig::Poisson { rate: 10.0 }.average_rate(),
            Some(10.0)
        );
        let mmpp = ArrivalConfig::Mmpp {
            rates: [10.0, 30.0],
            sojourn_secs: [1.0, 1.0],
        };
        assert_eq!(mmpp.average_rate(), Some(20.0));
        let sched = ArrivalConfig::Schedule {
            steps: vec![(0.0, 100.0), (5.0, 500.0)],
            period_secs: Some(10.0),
        };
        assert_eq!(sched.average_rate(), None);
        let _ = sched.build();
        let _ = mmpp.build();
    }

    #[test]
    fn scaling_multiplies_rates() {
        let p = ArrivalConfig::Poisson { rate: 10.0 }.scaled(2.5);
        assert_eq!(p.average_rate(), Some(25.0));
        let s = ArrivalConfig::Schedule {
            steps: vec![(0.0, 100.0)],
            period_secs: None,
        }
        .scaled(0.5);
        match s {
            ArrivalConfig::Schedule { steps, .. } => assert_eq!(steps[0].1, 50.0),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn fanout_means() {
        assert_eq!(FanoutConfig::Constant { keys: 4 }.mean(), 4.0);
        assert_eq!(FanoutConfig::Uniform { min: 1, max: 3 }.mean(), 2.0);
        let z = FanoutConfig::Zipf {
            max: 16,
            theta: 1.0,
        };
        let m = z.mean();
        assert!(m > 1.0 && m < 8.0, "mean = {m}");
        let b = FanoutConfig::Bimodal {
            small: 1,
            p_small: 0.5,
            large: 9,
        };
        assert_eq!(b.mean(), 5.0);
    }

    #[test]
    fn fanouts_at_least_one() {
        let mut rng = SeedFactory::new(1).stream("f", 0);
        for cfg in [
            FanoutConfig::Zipf {
                max: 32,
                theta: 1.2,
            },
            FanoutConfig::Geometric { p: 0.4, max: 32 },
            FanoutConfig::Uniform { min: 1, max: 32 },
        ] {
            let s = cfg.build();
            for _ in 0..1000 {
                let k = s.sample(&mut rng);
                assert!((1..=32).contains(&k), "{cfg:?} gave {k}");
            }
        }
    }

    #[test]
    fn size_configs_sample_in_range() {
        let mut rng = SeedFactory::new(2).stream("s", 0);
        let etc = SizeConfig::etc_default().build();
        for _ in 0..10_000 {
            let b = etc.sample(&mut rng);
            assert!((64.0..=(1 << 20) as f64 + 1.0).contains(&b));
        }
        assert!(SizeConfig::etc_default().mean_bytes() > 64.0);
        assert_eq!(SizeConfig::Fixed { bytes: 100 }.mean_bytes(), 100.0);
    }

    #[test]
    fn popularity_builds() {
        let mut rng = SeedFactory::new(3).stream("p", 0);
        let u = PopularityConfig::Uniform.build(100);
        let z = PopularityConfig::Zipf { theta: 0.99 }.build(100);
        for _ in 0..1000 {
            assert!(u.sample(&mut rng) < 100);
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let cfgs = (
            ArrivalConfig::Mmpp {
                rates: [1.0, 2.0],
                sojourn_secs: [0.5, 0.5],
            },
            FanoutConfig::Zipf {
                max: 16,
                theta: 1.0,
            },
            SizeConfig::etc_default(),
            PopularityConfig::Zipf { theta: 0.9 },
        );
        let json = serde_json::to_string(&cfgs).unwrap();
        let back: (ArrivalConfig, FanoutConfig, SizeConfig, PopularityConfig) =
            serde_json::from_str(&json).unwrap();
        assert_eq!(back.0, cfgs.0);
        assert_eq!(back.1, cfgs.1);
        assert_eq!(back.2, cfgs.2);
        assert_eq!(back.3, cfgs.3);
    }
}
