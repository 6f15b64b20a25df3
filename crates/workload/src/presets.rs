//! Named workload presets modelled on published key-value store studies.
//!
//! Each preset fixes fan-out, value sizes, and popularity; the arrival rate
//! is left to the caller (typically computed from a target load with
//! `das-core`'s load helpers). The parameter choices follow the published
//! characterizations cited in DESIGN.md's substitution table.

use serde::{Deserialize, Serialize};

use crate::generator::WorkloadSpec;
use crate::spec::{ArrivalConfig, FanoutConfig, PopularityConfig, SizeConfig};

/// Named workload shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum WorkloadPreset {
    /// Facebook ETC-style cache tier: small hot values, heavy-tailed sizes,
    /// skewed popularity, mostly narrow multi-gets.
    CacheTier,
    /// Social-graph reads: wide fan-outs (friend lists resolve to many
    /// keys), small values, strong popularity skew.
    SocialGraph,
    /// Analytics point-lookups: near-uniform popularity, mid-size values,
    /// bimodal fan-out (single lookups plus occasional wide batch reads).
    Analytics,
    /// Session store: constant single-key reads of fixed-size blobs — the
    /// degenerate case where multi-get scheduling cannot help (a useful
    /// control).
    SessionStore,
}

impl WorkloadPreset {
    /// All presets in reporting order.
    pub const ALL: [WorkloadPreset; 4] = [
        WorkloadPreset::CacheTier,
        WorkloadPreset::SocialGraph,
        WorkloadPreset::Analytics,
        WorkloadPreset::SessionStore,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadPreset::CacheTier => "cache tier (ETC-like)",
            WorkloadPreset::SocialGraph => "social graph",
            WorkloadPreset::Analytics => "analytics lookups",
            WorkloadPreset::SessionStore => "session store",
        }
    }

    /// Builds the workload spec over `n_keys` keys at `rate` requests per
    /// second.
    pub fn spec(self, n_keys: usize, rate: f64) -> WorkloadSpec {
        // Skewed presets cap the hottest keys' sizes, following the
        // published anti-correlation between popularity and size (hot keys
        // are small counters/flags; giant blobs are cold).
        let (fanout, sizes, popularity, hot_key_size_cap) = match self {
            WorkloadPreset::CacheTier => (
                FanoutConfig::Geometric { p: 0.45, max: 24 },
                SizeConfig::Etc {
                    min_bytes: 64,
                    max_bytes: 128 << 10,
                    alpha: 1.2,
                },
                PopularityConfig::Zipf { theta: 0.6 },
                Some(4 << 10),
            ),
            WorkloadPreset::SocialGraph => (
                FanoutConfig::Zipf {
                    max: 64,
                    theta: 0.8,
                },
                SizeConfig::Lognormal {
                    mean_bytes: 2048.0,
                    sigma: 0.8,
                },
                PopularityConfig::Zipf { theta: 0.7 },
                Some(1 << 10),
            ),
            WorkloadPreset::Analytics => (
                FanoutConfig::Bimodal {
                    small: 1,
                    p_small: 0.85,
                    large: 48,
                },
                SizeConfig::Uniform {
                    min_bytes: 4 << 10,
                    max_bytes: 64 << 10,
                },
                PopularityConfig::Uniform,
                None,
            ),
            WorkloadPreset::SessionStore => (
                FanoutConfig::Constant { keys: 1 },
                SizeConfig::Fixed { bytes: 8 << 10 },
                PopularityConfig::Uniform,
                None,
            ),
        };
        WorkloadSpec {
            n_keys,
            arrival: ArrivalConfig::Poisson { rate },
            fanout,
            sizes,
            popularity,
            hot_key_size_cap,
            write_fraction: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadGenerator;
    use das_sim::rng::SeedFactory;

    #[test]
    fn every_preset_generates() {
        for preset in WorkloadPreset::ALL {
            let spec = preset.spec(10_000, 500.0);
            assert_eq!(spec.validate(), Ok(()), "{}", preset.label());
            let mut gen = WorkloadGenerator::new(&spec, &SeedFactory::new(1));
            for _ in 0..50 {
                let r = gen.next_request().unwrap();
                assert!(!r.keys.is_empty(), "{}", preset.label());
            }
            assert!(spec.mean_fanout() >= 1.0);
            assert!(spec.mean_request_bytes() > 0.0);
        }
    }

    #[test]
    fn session_store_is_single_key() {
        let spec = WorkloadPreset::SessionStore.spec(1000, 100.0);
        assert_eq!(spec.mean_fanout(), 1.0);
        let mut gen = WorkloadGenerator::new(&spec, &SeedFactory::new(2));
        for _ in 0..20 {
            assert_eq!(gen.next_request().unwrap().fanout(), 1);
        }
    }

    #[test]
    fn social_graph_is_wider_than_cache_tier() {
        assert!(
            WorkloadPreset::SocialGraph.spec(1000, 1.0).mean_fanout()
                > WorkloadPreset::CacheTier.spec(1000, 1.0).mean_fanout()
        );
    }

    #[test]
    fn labels_unique_and_serde_roundtrip() {
        let labels: std::collections::HashSet<&str> =
            WorkloadPreset::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), WorkloadPreset::ALL.len());
        for p in WorkloadPreset::ALL {
            let json = serde_json::to_string(&p).unwrap();
            let back: WorkloadPreset = serde_json::from_str(&json).unwrap();
            assert_eq!(p, back);
        }
    }
}
