//! The bounded flight recorder and its configuration.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use das_sim::rng::{splitmix64, SeedFactory};

use crate::event::TraceEvent;

fn default_sample() -> f64 {
    1.0
}

fn default_capacity() -> usize {
    1 << 20
}

/// Tracing knobs, carried inside the simulation config.
///
/// Defaults to disabled; a config serialized before this field existed
/// deserializes to the same disabled default, and a disabled trace adds
/// zero work to the simulation. das-store's `SimulationConfig::validate`
/// checks the knobs whenever tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Master switch. Off by default.
    #[serde(default)]
    pub enabled: bool,
    /// Fraction of requests to trace, in `(0, 1]`. Sampling is a pure
    /// hash of (master seed, request id): deterministic, and identical
    /// across policies running the same seed.
    #[serde(default = "default_sample")]
    pub sample: f64,
    /// Ring-buffer capacity in events. When full, the oldest events are
    /// dropped (flight-recorder semantics) and counted in
    /// [`TraceLog::dropped`].
    #[serde(default = "default_capacity")]
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            sample: default_sample(),
            capacity: default_capacity(),
        }
    }
}

impl TraceConfig {
    /// An enabled config with default sampling and capacity.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// The in-flight ring buffer the engine records into.
#[derive(Debug)]
pub struct TraceRecorder {
    sample: f64,
    sample_seed: u64,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceRecorder {
    /// Creates a recorder for one simulation run.
    ///
    /// `master_seed` is the simulation's master seed; the sampling hash is
    /// derived from it so traced request sets are reproducible and shared
    /// across policies running the same seed.
    pub fn new(config: &TraceConfig, master_seed: u64) -> Self {
        TraceRecorder {
            sample: config.sample,
            sample_seed: SeedFactory::new(master_seed).derived_seed("trace-sample", 0),
            capacity: config.capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Whether `request` is in the sampled set.
    ///
    /// Pure function of (master seed, request id) — no RNG state is
    /// consumed, so tracing cannot perturb the simulation.
    #[inline]
    pub fn is_sampled(&self, request: u64) -> bool {
        if self.sample >= 1.0 {
            return true;
        }
        let h = splitmix64(self.sample_seed ^ request.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Top 53 bits -> uniform in [0, 1).
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.sample
    }

    /// Appends an event, evicting the oldest if the ring is full.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Seals the recorder into an immutable log.
    pub fn finish(self) -> TraceLog {
        TraceLog {
            sample: self.sample,
            dropped: self.dropped,
            events: self.events.into(),
        }
    }
}

/// A sealed trace: the recorder's contents after the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLog {
    /// The sampling rate the run used.
    pub sample: f64,
    /// Events evicted because the ring buffer was full.
    pub dropped: u64,
    /// Surviving events, in simulation-time order.
    pub events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Whether the ring never overflowed (the log is complete for every
    /// sampled request).
    pub fn complete(&self) -> bool {
        self.dropped == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let c = TraceConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.sample, 1.0);
        assert!(TraceConfig::enabled().enabled);
    }

    #[test]
    fn config_defaults_when_fields_missing() {
        let c: TraceConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(c, TraceConfig::default());
        let c: TraceConfig = serde_json::from_str(r#"{"enabled":true}"#).unwrap();
        assert!(c.enabled);
        assert_eq!(c.sample, 1.0);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let cfg = TraceConfig {
            enabled: true,
            sample: 1.0,
            capacity: 3,
        };
        let mut r = TraceRecorder::new(&cfg, 1);
        for t in 0..5u64 {
            r.record(TraceEvent::ServerCrash { t_ns: t, server: 0 });
        }
        let log = r.finish();
        assert_eq!(log.dropped, 2);
        assert!(!log.complete());
        let times: Vec<u64> = log.events.iter().map(|e| e.t_ns()).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_calibrated() {
        let cfg = TraceConfig {
            enabled: true,
            sample: 0.25,
            capacity: 8,
        };
        let a = TraceRecorder::new(&cfg, 42);
        let b = TraceRecorder::new(&cfg, 42);
        let hits: usize = (0..10_000).filter(|&r| a.is_sampled(r)).count();
        for r in 0..1000 {
            assert_eq!(a.is_sampled(r), b.is_sampled(r));
        }
        let frac = hits as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.03, "sampled fraction {frac}");
        // Different seeds pick different subsets.
        let c = TraceRecorder::new(&cfg, 43);
        assert!((0..10_000).any(|r| a.is_sampled(r) != c.is_sampled(r)));
    }

    #[test]
    fn full_rate_samples_everything() {
        let r = TraceRecorder::new(&TraceConfig::enabled(), 9);
        assert!((0..1000).all(|id| r.is_sampled(id)));
    }

    #[test]
    fn log_roundtrips_through_json() {
        let cfg = TraceConfig::enabled();
        let mut r = TraceRecorder::new(&cfg, 5);
        r.record(TraceEvent::RequestArrive {
            t_ns: 1,
            request: 0,
            keys: 2,
            fanout: 2,
        });
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        let log = r.finish();
        let json = serde_json::to_string(&log).unwrap();
        let back: TraceLog = serde_json::from_str(&json).unwrap();
        assert_eq!(log, back);
    }
}
