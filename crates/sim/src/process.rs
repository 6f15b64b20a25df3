//! Arrival processes: Poisson, Markov-modulated (MMPP), and
//! piecewise-constant rate schedules for time-varying load experiments.

use rand::RngCore;

use crate::dist::{Exponential, Sample};
use crate::time::{SimDuration, SimTime};

/// A stateful point process generating arrival instants.
pub trait ArrivalProcess {
    /// Returns the next arrival strictly after `now`, or `None` if the
    /// process has ended.
    fn next_arrival(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Option<SimTime>;

    /// The long-run average rate in arrivals per second, when known.
    fn average_rate(&self) -> Option<f64>;
}

/// Homogeneous Poisson arrivals at a constant rate.
#[derive(Debug, Clone, Copy)]
pub struct PoissonProcess {
    exp: Exponential,
}

impl PoissonProcess {
    /// Poisson process with `rate > 0` arrivals per second.
    pub fn new(rate: f64) -> Self {
        PoissonProcess {
            exp: Exponential::new(rate),
        }
    }
}

impl ArrivalProcess for PoissonProcess {
    fn next_arrival(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Option<SimTime> {
        let gap = SimDuration::from_secs_f64(self.exp.sample(rng)).max(SimDuration::from_nanos(1));
        now.checked_add(gap)
    }
    fn average_rate(&self) -> Option<f64> {
        Some(self.exp.rate())
    }
}

/// A piecewise-constant rate profile used for time-varying load.
///
/// The profile is a list of `(start_time, rate)` steps; the rate at time `t`
/// is that of the last step with `start_time <= t`. Before the first step the
/// first step's rate applies. The profile can optionally repeat with a
/// period.
#[derive(Debug, Clone)]
pub struct RateSchedule {
    steps: Vec<(SimTime, f64)>,
    period: Option<SimDuration>,
}

impl RateSchedule {
    /// Builds a schedule from `(start, rate)` steps sorted by start time.
    /// Panics if `steps` is empty, unsorted, or contains a non-positive or
    /// non-finite rate.
    pub fn new(steps: Vec<(SimTime, f64)>) -> Self {
        assert!(!steps.is_empty(), "schedule needs at least one step");
        assert!(
            steps.windows(2).all(|w| w[0].0 <= w[1].0),
            "steps must be sorted by start time"
        );
        assert!(steps.iter().all(|(_, r)| r.is_finite() && *r > 0.0));
        RateSchedule {
            steps,
            period: None,
        }
    }

    /// A constant-rate schedule.
    pub fn constant(rate: f64) -> Self {
        RateSchedule::new(vec![(SimTime::ZERO, rate)])
    }

    /// Makes the schedule repeat with `period` (measured from time zero).
    /// All step start times must fall inside one period.
    pub fn repeating(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero());
        assert!(self
            .steps
            .iter()
            .all(|(t, _)| t.as_nanos() < period.as_nanos()));
        self.period = Some(period);
        self
    }

    /// The rate in effect at `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let t = match self.period {
            Some(p) => SimTime::from_nanos(t.as_nanos() % p.as_nanos()),
            None => t,
        };
        match self.steps.binary_search_by(|(s, _)| s.cmp(&t)) {
            Ok(i) => self.steps[i].1,
            Err(0) => self.steps[0].1,
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// The maximum rate over the whole schedule.
    pub fn peak_rate(&self) -> f64 {
        self.steps.iter().map(|(_, r)| *r).fold(f64::MIN, f64::max)
    }
}

/// Non-homogeneous Poisson process driven by a [`RateSchedule`], generated
/// with Lewis–Shedler thinning against the schedule's peak rate.
#[derive(Debug, Clone)]
pub struct ModulatedPoissonProcess {
    schedule: RateSchedule,
    peak: f64,
}

impl ModulatedPoissonProcess {
    /// Creates the process from a schedule.
    pub fn new(schedule: RateSchedule) -> Self {
        let peak = schedule.peak_rate();
        ModulatedPoissonProcess { schedule, peak }
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &RateSchedule {
        &self.schedule
    }
}

impl ArrivalProcess for ModulatedPoissonProcess {
    fn next_arrival(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Option<SimTime> {
        let exp = Exponential::new(self.peak);
        let mut t = now;
        loop {
            let gap = SimDuration::from_secs_f64(exp.sample(rng)).max(SimDuration::from_nanos(1));
            t = t.checked_add(gap)?;
            let accept_p = self.schedule.rate_at(t) / self.peak;
            if crate::rng::open_unit(rng) <= accept_p {
                return Some(t);
            }
        }
    }
    fn average_rate(&self) -> Option<f64> {
        None // depends on the horizon; report via the schedule instead
    }
}

/// Two-state Markov-modulated Poisson process (MMPP-2).
///
/// The process alternates between two exponentially-distributed-duration
/// states with different Poisson rates — the classic bursty-traffic model.
#[derive(Debug, Clone)]
pub struct Mmpp2 {
    rates: [f64; 2],
    /// Mean sojourn time in each state, seconds.
    sojourn: [f64; 2],
    state: usize,
    /// When the current state ends.
    state_end: SimTime,
}

impl Mmpp2 {
    /// MMPP with per-state arrival `rates` and mean state `sojourn` times
    /// (seconds). All parameters must be positive.
    pub fn new(rates: [f64; 2], sojourn: [f64; 2]) -> Self {
        assert!(rates.iter().all(|r| r.is_finite() && *r > 0.0));
        assert!(sojourn.iter().all(|s| s.is_finite() && *s > 0.0));
        Mmpp2 {
            rates,
            sojourn,
            state: 0,
            state_end: SimTime::ZERO,
        }
    }

    fn roll_state(&mut self, now: SimTime, rng: &mut dyn RngCore) {
        while self.state_end <= now {
            let dwell = Exponential::with_mean(self.sojourn[self.state]).sample(rng);
            let dwell = SimDuration::from_secs_f64(dwell).max(SimDuration::from_nanos(1));
            self.state_end = match self.state_end.checked_add(dwell) {
                Some(t) => t,
                None => SimTime::MAX,
            };
            if self.state_end <= now {
                self.state ^= 1;
            }
        }
    }
}

impl ArrivalProcess for Mmpp2 {
    fn next_arrival(&mut self, now: SimTime, rng: &mut dyn RngCore) -> Option<SimTime> {
        let mut t = now;
        loop {
            self.roll_state(t, rng);
            let gap = Exponential::new(self.rates[self.state]).sample(rng);
            let gap = SimDuration::from_secs_f64(gap).max(SimDuration::from_nanos(1));
            let cand = t.checked_add(gap)?;
            if cand <= self.state_end {
                return Some(cand);
            }
            // The state ends before the candidate arrival: restart the
            // memoryless draw from the state boundary.
            t = self.state_end;
            self.state ^= 1;
        }
    }
    fn average_rate(&self) -> Option<f64> {
        let w0 = self.sojourn[0] / (self.sojourn[0] + self.sojourn[1]);
        Some(w0 * self.rates[0] + (1.0 - w0) * self.rates[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedFactory;

    fn count_arrivals(p: &mut dyn ArrivalProcess, horizon_s: u64, seed: &str) -> usize {
        let mut rng = SeedFactory::new(21).stream(seed, 0);
        let end = SimTime::from_secs(horizon_s);
        let mut t = SimTime::ZERO;
        let mut n = 0;
        while let Some(next) = p.next_arrival(t, &mut rng) {
            if next > end {
                break;
            }
            t = next;
            n += 1;
        }
        n
    }

    #[test]
    fn poisson_rate_matches() {
        let mut p = PoissonProcess::new(1000.0);
        let n = count_arrivals(&mut p, 20, "poisson");
        let rate = n as f64 / 20.0;
        assert!((rate - 1000.0).abs() / 1000.0 < 0.05, "rate = {rate}");
        assert_eq!(p.average_rate(), Some(1000.0));
    }

    #[test]
    fn schedule_lookup() {
        let s = RateSchedule::new(vec![
            (SimTime::ZERO, 100.0),
            (SimTime::from_secs(1), 500.0),
            (SimTime::from_secs(2), 50.0),
        ]);
        assert_eq!(s.rate_at(SimTime::from_millis(500)), 100.0);
        assert_eq!(s.rate_at(SimTime::from_secs(1)), 500.0);
        assert_eq!(s.rate_at(SimTime::from_millis(1500)), 500.0);
        assert_eq!(s.rate_at(SimTime::from_secs(10)), 50.0);
        assert_eq!(s.peak_rate(), 500.0);
    }

    #[test]
    fn schedule_repeats() {
        let s = RateSchedule::new(vec![(SimTime::ZERO, 100.0), (SimTime::from_secs(1), 500.0)])
            .repeating(SimDuration::from_secs(2));
        assert_eq!(s.rate_at(SimTime::from_millis(2500)), 100.0);
        assert_eq!(s.rate_at(SimTime::from_millis(3500)), 500.0);
    }

    #[test]
    fn modulated_poisson_tracks_schedule() {
        let s = RateSchedule::new(vec![
            (SimTime::ZERO, 200.0),
            (SimTime::from_secs(5), 2000.0),
        ]);
        let mut p = ModulatedPoissonProcess::new(s);
        let mut rng = SeedFactory::new(22).stream("mod", 0);
        let mut t = SimTime::ZERO;
        let mut low = 0usize;
        let mut high = 0usize;
        loop {
            let next = p.next_arrival(t, &mut rng).unwrap();
            if next > SimTime::from_secs(10) {
                break;
            }
            if next < SimTime::from_secs(5) {
                low += 1;
            } else {
                high += 1;
            }
            t = next;
        }
        let low_rate = low as f64 / 5.0;
        let high_rate = high as f64 / 5.0;
        assert!((low_rate - 200.0).abs() / 200.0 < 0.15, "low = {low_rate}");
        assert!(
            (high_rate - 2000.0).abs() / 2000.0 < 0.15,
            "high = {high_rate}"
        );
    }

    #[test]
    fn mmpp_average_rate() {
        let mut p = Mmpp2::new([100.0, 1000.0], [1.0, 1.0]);
        assert_eq!(p.average_rate(), Some(550.0));
        let n = count_arrivals(&mut p, 60, "mmpp");
        let rate = n as f64 / 60.0;
        assert!((rate - 550.0).abs() / 550.0 < 0.2, "rate = {rate}");
    }

    #[test]
    fn mmpp_is_bursty() {
        // Count arrivals in 100ms windows; burstiness shows up as a high
        // variance-to-mean ratio compared to a Poisson process.
        let mut p = Mmpp2::new([50.0, 5000.0], [0.5, 0.5]);
        let mut rng = SeedFactory::new(23).stream("burst", 0);
        let mut t = SimTime::ZERO;
        let horizon = SimTime::from_secs(30);
        let mut windows = vec![0f64; 300];
        while let Some(next) = p.next_arrival(t, &mut rng) {
            if next > horizon {
                break;
            }
            windows[(next.as_nanos() / 100_000_000) as usize % 300] += 1.0;
            t = next;
        }
        let mean = windows.iter().sum::<f64>() / windows.len() as f64;
        let var = windows.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / windows.len() as f64;
        assert!(var / mean > 5.0, "dispersion = {}", var / mean);
    }
}
