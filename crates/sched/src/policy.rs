//! Declarative policy selection: a serde-friendly [`PolicyKind`] that every
//! experiment config uses, plus the factory turning it into a live
//! [`Scheduler`].

use serde::{Deserialize, Serialize};

use crate::baselines::{Fcfs, Sjf};
use crate::das::{Das, DasConfig};
use crate::rein::{Rein2L, ReinSbf};
use crate::scheduler::Scheduler;

/// The scheduling disciplines available to experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum PolicyKind {
    /// First-come-first-served (default baseline).
    Fcfs,
    /// Shortest job first on the local op's expected service time.
    Sjf,
    /// Rein's exact Shortest Bottleneck First.
    ReinSbf,
    /// Rein's two-priority-level practical variant.
    Rein2L,
    /// The Distributed Adaptive Scheduler with explicit configuration.
    Das {
        /// DAS tuning/ablation knobs.
        #[serde(default)]
        config: DasConfig,
    },
}

/// A policy knob outside its valid range (see [`PolicyKind::validate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyError {
    /// A DAS knob that must be finite and `>= 0` was not.
    DasKnobOutOfRange {
        /// `"aging"` or `"starvation_factor"`.
        knob: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::DasKnobOutOfRange { knob, value } => {
                write!(f, "das {knob} must be finite and >= 0, got {value}")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

impl PolicyKind {
    /// Checks the knobs a config file can set, so a bad value is a typed
    /// error at load time instead of a panic in [`PolicyKind::build`].
    pub fn validate(&self) -> Result<(), PolicyError> {
        match *self {
            PolicyKind::Das { config } => {
                for (knob, value) in [
                    ("aging", config.aging),
                    ("starvation_factor", config.starvation_factor),
                ] {
                    if !(value.is_finite() && value >= 0.0) {
                        return Err(PolicyError::DasKnobOutOfRange { knob, value });
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// DAS with default configuration.
    pub fn das() -> Self {
        PolicyKind::Das {
            config: DasConfig::default(),
        }
    }

    /// The centralized-oracle reference.
    pub fn oracle() -> Self {
        PolicyKind::Das {
            config: DasConfig::oracle(),
        }
    }

    /// The policy set used by the headline figures: FCFS, SJF, Rein-SBF,
    /// Rein-2L, DAS.
    pub fn standard_set() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Fcfs,
            PolicyKind::Sjf,
            PolicyKind::ReinSbf,
            PolicyKind::Rein2L,
            PolicyKind::das(),
        ]
    }

    /// The ablation set for Fig. 15.
    pub fn ablation_set() -> Vec<PolicyKind> {
        vec![
            PolicyKind::das(),
            PolicyKind::Das {
                config: DasConfig::without_remaining_bottleneck(),
            },
            PolicyKind::Das {
                config: DasConfig::without_adaptivity(),
            },
            PolicyKind::Das {
                config: DasConfig::without_aging(),
            },
        ]
    }

    /// Instantiates a fresh scheduler (one per server).
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            PolicyKind::Fcfs => Box::new(Fcfs::new()),
            PolicyKind::Sjf => Box::new(Sjf::new()),
            PolicyKind::ReinSbf => Box::new(ReinSbf::new()),
            PolicyKind::Rein2L => Box::new(Rein2L::new()),
            PolicyKind::Das { config } => Box::new(Das::new(config)),
        }
    }

    /// The display name (matches [`Scheduler::name`] of the built
    /// scheduler).
    pub fn name(&self) -> &'static str {
        self.build().name()
    }

    /// True if the built scheduler uses oracle-quality information.
    pub fn is_oracle(&self) -> bool {
        matches!(self, PolicyKind::Das { config } if config.oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_across_standard_set() {
        let names: std::collections::HashSet<&str> = PolicyKind::standard_set()
            .iter()
            .map(|p| p.name())
            .collect();
        assert_eq!(names.len(), PolicyKind::standard_set().len());
    }

    #[test]
    fn build_matches_name() {
        for p in PolicyKind::standard_set() {
            assert_eq!(p.build().name(), p.name());
        }
        assert_eq!(PolicyKind::oracle().name(), "Oracle");
        assert!(PolicyKind::oracle().is_oracle());
        assert!(!PolicyKind::das().is_oracle());
        assert!(!PolicyKind::Fcfs.is_oracle());
    }

    #[test]
    fn ablation_set_has_distinct_names() {
        let names: Vec<&str> = PolicyKind::ablation_set()
            .iter()
            .map(|p| p.name())
            .collect();
        assert_eq!(
            names,
            vec!["DAS", "DAS-noLRPT", "DAS-noAdapt", "DAS-noAging"]
        );
    }

    #[test]
    fn serde_roundtrip() {
        for p in [
            PolicyKind::Fcfs,
            PolicyKind::ReinSbf,
            PolicyKind::das(),
            PolicyKind::oracle(),
        ] {
            let json = serde_json::to_string(&p).unwrap();
            let back: PolicyKind = serde_json::from_str(&json).unwrap();
            assert_eq!(p, back);
        }
    }

    #[test]
    fn validate_accepts_every_shipped_policy() {
        for p in PolicyKind::standard_set()
            .into_iter()
            .chain(PolicyKind::ablation_set())
            .chain([PolicyKind::oracle()])
        {
            assert_eq!(p.validate(), Ok(()), "{p:?}");
        }
    }

    #[test]
    fn validate_rejects_bad_aging() {
        for aging in [-1.0, f64::NAN, f64::INFINITY] {
            let config = DasConfig {
                aging,
                ..Default::default()
            };
            assert!(matches!(
                PolicyKind::Das { config }.validate(),
                Err(PolicyError::DasKnobOutOfRange { knob: "aging", .. })
            ));
        }
    }

    #[test]
    fn validate_rejects_bad_starvation_factor() {
        for starvation_factor in [-0.5, f64::NAN, f64::NEG_INFINITY] {
            let config = DasConfig {
                starvation_factor,
                ..Default::default()
            };
            assert!(matches!(
                PolicyKind::Das { config }.validate(),
                Err(PolicyError::DasKnobOutOfRange {
                    knob: "starvation_factor",
                    ..
                })
            ));
        }
    }

    #[test]
    fn das_config_defaults_apply_when_omitted() {
        let p: PolicyKind = serde_json::from_str(r#"{"kind":"das"}"#).unwrap();
        assert_eq!(p, PolicyKind::das());
    }
}
