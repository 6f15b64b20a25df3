//! Message latency models.
//!
//! A [`NetworkModel`] converts a message of a given size into a simulated
//! one-way delay: propagation (drawn from a configurable distribution) plus
//! serialization (`bytes / bandwidth`). Configurations are plain serde
//! structs so experiments can be described declaratively.

use rand::RngCore;
use serde::{Deserialize, Serialize};

use das_sim::dist::{Deterministic, Lognormal, Sample};
use das_sim::time::SimDuration;

/// Declarative latency distribution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum LatencyConfig {
    /// Fixed delay.
    Constant {
        /// Delay in microseconds.
        micros: f64,
    },
    /// Lognormal with the given mean and log-space sigma — the standard
    /// datacenter RTT shape (long right tail).
    Lognormal {
        /// Mean delay, microseconds.
        mean_micros: f64,
        /// Log-space standard deviation (0.3–0.7 is typical).
        sigma: f64,
    },
}

impl LatencyConfig {
    /// A typical intra-datacenter one-way delay: lognormal with 50 µs mean.
    pub fn datacenter_default() -> Self {
        LatencyConfig::Lognormal {
            mean_micros: 50.0,
            sigma: 0.4,
        }
    }

    fn build(&self) -> Box<dyn Sample + Send + Sync> {
        match *self {
            LatencyConfig::Constant { micros } => Box::new(Deterministic::new(micros)),
            LatencyConfig::Lognormal { mean_micros, sigma } => {
                Box::new(Lognormal::with_mean(mean_micros, sigma))
            }
        }
    }

    /// Mean one-way delay in seconds.
    pub fn mean_secs(&self) -> f64 {
        match *self {
            LatencyConfig::Constant { micros } => micros * 1e-6,
            LatencyConfig::Lognormal { mean_micros, .. } => mean_micros * 1e-6,
        }
    }
}

/// Network model configuration: propagation + optional bandwidth term.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Propagation/queuing delay distribution.
    pub latency: LatencyConfig,
    /// Link bandwidth in bytes/second; `None` disables the serialization
    /// term (infinite bandwidth).
    pub bandwidth_bytes_per_sec: Option<f64>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            latency: LatencyConfig::datacenter_default(),
            // 10 Gbit/s.
            bandwidth_bytes_per_sec: Some(1.25e9),
        }
    }
}

impl NetworkConfig {
    /// An idealized zero-latency, infinite-bandwidth network (useful to
    /// isolate scheduling effects in unit tests).
    pub fn ideal() -> Self {
        NetworkConfig {
            latency: LatencyConfig::Constant { micros: 0.0 },
            bandwidth_bytes_per_sec: None,
        }
    }

    /// Human-readable description of the first knob that
    /// [`NetworkConfig::build`] would assert on (or that yields a negative
    /// mean delay), if any.
    pub fn first_invalid(&self) -> Option<&'static str> {
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let latency = match self.latency {
            LatencyConfig::Constant { micros } if !non_negative(micros) => {
                Some("latency micros must be finite and >= 0")
            }
            LatencyConfig::Lognormal { mean_micros, .. } if !positive(mean_micros) => {
                Some("latency mean_micros must be finite and positive")
            }
            LatencyConfig::Lognormal { sigma, .. } if !non_negative(sigma) => {
                Some("latency sigma must be finite and >= 0")
            }
            _ => None,
        };
        latency.or(match self.bandwidth_bytes_per_sec {
            Some(bw) if !positive(bw) => {
                Some("bandwidth_bytes_per_sec must be finite and positive")
            }
            _ => None,
        })
    }

    /// Builds the sampling model.
    pub fn build(&self) -> NetworkModel {
        NetworkModel {
            latency: self.latency.build(),
            bandwidth: self.bandwidth_bytes_per_sec,
        }
    }
}

/// Samples per-message one-way delays.
pub struct NetworkModel {
    latency: Box<dyn Sample + Send + Sync>,
    bandwidth: Option<f64>,
}

impl std::fmt::Debug for NetworkModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkModel")
            .field("bandwidth", &self.bandwidth)
            .finish_non_exhaustive()
    }
}

impl NetworkModel {
    /// One-way delay for a message of `bytes` length.
    pub fn delay(&self, bytes: u64, rng: &mut dyn RngCore) -> SimDuration {
        let prop_micros = self.latency.sample(rng).max(0.0);
        let mut secs = prop_micros * 1e-6;
        if let Some(bw) = self.bandwidth {
            secs += bytes as f64 / bw;
        }
        SimDuration::from_secs_f64(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_sim::rng::SeedFactory;

    #[test]
    fn constant_latency() {
        let m = NetworkConfig {
            latency: LatencyConfig::Constant { micros: 100.0 },
            bandwidth_bytes_per_sec: None,
        }
        .build();
        let mut rng = SeedFactory::new(1).stream("net", 0);
        assert_eq!(m.delay(0, &mut rng), SimDuration::from_micros(100));
        assert_eq!(m.delay(1 << 30, &mut rng), SimDuration::from_micros(100));
    }

    #[test]
    fn bandwidth_term_scales_with_bytes() {
        let m = NetworkConfig {
            latency: LatencyConfig::Constant { micros: 0.0 },
            bandwidth_bytes_per_sec: Some(1e6),
        }
        .build();
        let mut rng = SeedFactory::new(1).stream("net", 0);
        assert_eq!(m.delay(1000, &mut rng), SimDuration::from_millis(1));
        assert_eq!(m.delay(0, &mut rng), SimDuration::ZERO);
    }

    #[test]
    fn lognormal_mean_approx() {
        let m = NetworkConfig {
            latency: LatencyConfig::Lognormal {
                mean_micros: 50.0,
                sigma: 0.4,
            },
            bandwidth_bytes_per_sec: None,
        }
        .build();
        let mut rng = SeedFactory::new(2).stream("net", 0);
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| m.delay(0, &mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 50e-6).abs() / 50e-6 < 0.05, "mean = {mean}");
    }

    #[test]
    fn ideal_network_is_free() {
        let m = NetworkConfig::ideal().build();
        let mut rng = SeedFactory::new(3).stream("net", 0);
        assert_eq!(m.delay(1 << 20, &mut rng), SimDuration::ZERO);
    }

    #[test]
    fn config_serde_roundtrip() {
        let c = NetworkConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: NetworkConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn mean_secs_matches_config() {
        assert!((LatencyConfig::Constant { micros: 10.0 }.mean_secs() - 10e-6).abs() < 1e-12);
        assert!((LatencyConfig::datacenter_default().mean_secs() - 50e-6).abs() < 1e-12);
    }

    /// One row per knob `first_invalid` rejects: each reached a
    /// distribution constructor's `assert!` (or silently produced a
    /// negative mean delay) from an outside config.
    #[test]
    fn first_invalid_names_each_bad_knob() {
        assert_eq!(NetworkConfig::default().first_invalid(), None);
        assert_eq!(NetworkConfig::ideal().first_invalid(), None);
        let lognormal = |mean_micros, sigma| LatencyConfig::Lognormal { mean_micros, sigma };
        for latency in [
            LatencyConfig::Constant { micros: -1.0 },
            LatencyConfig::Constant { micros: f64::NAN },
            lognormal(-50.0, 0.4),
            lognormal(0.0, 0.4),
            lognormal(50.0, -1.0),
            lognormal(50.0, f64::NAN),
        ] {
            let cfg = NetworkConfig {
                latency,
                bandwidth_bytes_per_sec: None,
            };
            assert!(cfg.first_invalid().is_some(), "{latency:?}");
        }
        for bw in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = NetworkConfig {
                bandwidth_bytes_per_sec: Some(bw),
                ..NetworkConfig::default()
            };
            assert!(cfg.first_invalid().is_some(), "bandwidth {bw}");
        }
    }
}
