//! Continuous probability distributions.
//!
//! The allowed dependency set does not include `rand_distr`, so the samplers
//! needed by the simulator are implemented here: exponential, uniform,
//! lognormal (Box–Muller), Pareto, bounded Pareto, deterministic,
//! finite mixtures, and empirical distributions. All samplers implement
//! [`Sample`] and draw from a caller-provided RNG so streams stay
//! deterministic.

use rand::RngCore;

use crate::rng::open_unit;

/// A continuous distribution sampled with an external RNG.
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// The distribution mean, when finite and known in closed form.
    fn mean(&self) -> Option<f64>;
}

/// Always returns the same value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// A point mass at `value`. Panics if `value` is not finite.
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite(), "deterministic value must be finite");
        Deterministic { value }
    }
}

impl Sample for Deterministic {
    fn sample(&self, _rng: &mut dyn RngCore) -> f64 {
        self.value
    }
    fn mean(&self) -> Option<f64> {
        Some(self.value)
    }
}

/// Uniform on `[low, high)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Uniform on `[low, high)`. Panics unless `low <= high` and both are
    /// finite.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low.is_finite() && high.is_finite() && low <= high);
        Uniform { low, high }
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u = open_unit(rng);
        self.low + (self.high - self.low) * (1.0 - u)
    }
    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.low + self.high))
    }
}

/// Exponential with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Exponential with rate `lambda > 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0, "rate must be positive");
        Exponential { lambda }
    }

    /// Exponential with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Exponential { lambda: 1.0 / mean }
    }

    /// The rate parameter.
    pub fn rate(&self) -> f64 {
        self.lambda
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        -open_unit(rng).ln() / self.lambda
    }
    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.lambda)
    }
}

/// Lognormal: `exp(N(mu, sigma^2))`, sampled via Box–Muller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lognormal {
    mu: f64,
    sigma: f64,
}

impl Lognormal {
    /// Lognormal with log-space parameters `mu` and `sigma >= 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        Lognormal { mu, sigma }
    }

    /// Lognormal parameterized by its own (linear-space) mean and the
    /// log-space sigma. Convenient for latency models quoted as
    /// "mean 200µs, sigma 0.5".
    pub fn with_mean(mean: f64, sigma: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0);
        assert!(sigma.is_finite() && sigma >= 0.0);
        // mean = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2
        Lognormal {
            mu: mean.ln() - 0.5 * sigma * sigma,
            sigma,
        }
    }

    fn standard_normal(rng: &mut dyn RngCore) -> f64 {
        // Box–Muller; one value per call keeps the sampler stateless.
        let u1 = open_unit(rng);
        let u2 = open_unit(rng);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl Sample for Lognormal {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }
    fn mean(&self) -> Option<f64> {
        Some((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }
}

/// Pareto with scale `x_min > 0` and shape `alpha > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Pareto with scale `x_min > 0` and shape `alpha > 0`.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min.is_finite() && x_min > 0.0);
        assert!(alpha.is_finite() && alpha > 0.0);
        Pareto { x_min, alpha }
    }
}

impl Sample for Pareto {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.x_min / open_unit(rng).powf(1.0 / self.alpha)
    }
    fn mean(&self) -> Option<f64> {
        (self.alpha > 1.0).then(|| self.alpha * self.x_min / (self.alpha - 1.0))
    }
}

/// Bounded (truncated) Pareto on `[low, high]` with shape `alpha`.
///
/// The classic heavy-tailed-but-bounded job-size model used in scheduling
/// studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    low: f64,
    high: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Bounded Pareto on `[low, high]` with shape `alpha > 0`; requires
    /// `0 < low < high`.
    pub fn new(low: f64, high: f64, alpha: f64) -> Self {
        assert!(low.is_finite() && low > 0.0 && high.is_finite() && high > low);
        assert!(alpha.is_finite() && alpha > 0.0);
        BoundedPareto { low, high, alpha }
    }
}

impl Sample for BoundedPareto {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u = open_unit(rng);
        let la = self.low.powf(self.alpha);
        let ha = self.high.powf(self.alpha);
        // Inverse CDF of the truncated Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
    fn mean(&self) -> Option<f64> {
        let (l, h, a) = (self.low, self.high, self.alpha);
        if (a - 1.0).abs() < 1e-12 {
            // alpha == 1 has a log-form mean.
            Some((h / l).ln() * l * h / (h - l))
        } else {
            let num = l.powf(a) * a / (a - 1.0) * (l.powf(1.0 - a) - h.powf(1.0 - a));
            let den = 1.0 - (l / h).powf(a);
            Some(num / den)
        }
    }
}

/// A finite mixture of component distributions with given weights.
pub struct Mixture {
    components: Vec<(f64, Box<dyn Sample + Send + Sync>)>,
    total_weight: f64,
}

impl std::fmt::Debug for Mixture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mixture")
            .field("components", &self.components.len())
            .field("total_weight", &self.total_weight)
            .finish()
    }
}

impl Mixture {
    /// Builds a mixture from `(weight, component)` pairs. Panics if empty or
    /// if any weight is negative or all weights are zero.
    pub fn new(components: Vec<(f64, Box<dyn Sample + Send + Sync>)>) -> Self {
        assert!(!components.is_empty(), "mixture needs >= 1 component");
        let total_weight: f64 = components
            .iter()
            .map(|(w, _)| {
                assert!(w.is_finite() && *w >= 0.0, "weights must be >= 0");
                *w
            })
            .sum();
        assert!(total_weight > 0.0, "at least one weight must be positive");
        Mixture {
            components,
            total_weight,
        }
    }

    /// A two-point bimodal distribution: `value_a` with probability `p_a`,
    /// else `value_b`.
    pub fn bimodal(value_a: f64, p_a: f64, value_b: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_a));
        Mixture::new(vec![
            (p_a, Box::new(Deterministic::new(value_a))),
            (1.0 - p_a, Box::new(Deterministic::new(value_b))),
        ])
    }
}

impl Sample for Mixture {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let mut pick = open_unit(rng) * self.total_weight;
        for (w, c) in &self.components {
            if pick <= *w {
                return c.sample(rng);
            }
            pick -= *w;
        }
        // Floating-point slack: fall back to the last component.
        // das-lint: allow(unwrap-lib): Mixture::new asserts the component list is non-empty
        self.components.last().expect("non-empty mixture").1.sample(rng)
    }
    fn mean(&self) -> Option<f64> {
        let mut acc = 0.0;
        for (w, c) in &self.components {
            acc += w / self.total_weight * c.mean()?;
        }
        Some(acc)
    }
}

/// Samples uniformly from a fixed set of observed values (an empirical
/// distribution).
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    values: Vec<f64>,
    mean: f64,
}

impl Empirical {
    /// Builds an empirical distribution from observed values. Panics if
    /// `values` is empty or contains non-finite entries.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "empirical sample set must be non-empty");
        assert!(values.iter().all(|v| v.is_finite()));
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        Empirical { values, mean }
    }
}

impl Sample for Empirical {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let idx = (rng.next_u64() % self.values.len() as u64) as usize;
        self.values[idx]
    }
    fn mean(&self) -> Option<f64> {
        Some(self.mean)
    }
}

/// Clamps another distribution's output to `[low, high]`.
#[derive(Debug, Clone, Copy)]
pub struct Clamped<D> {
    inner: D,
    low: f64,
    high: f64,
}

impl<D: Sample> Clamped<D> {
    /// Wraps `inner`, clamping every draw into `[low, high]`.
    pub fn new(inner: D, low: f64, high: f64) -> Self {
        assert!(low <= high);
        Clamped { inner, low, high }
    }
}

impl<D: Sample> Sample for Clamped<D> {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.inner.sample(rng).clamp(self.low, self.high)
    }
    fn mean(&self) -> Option<f64> {
        None // clamping shifts the mean; no closed form in general
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedFactory;

    fn sample_mean(d: &dyn Sample, n: usize, seed_label: &str) -> f64 {
        let mut rng = SeedFactory::new(99).stream(seed_label, 0);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic::new(3.5);
        let mut rng = SeedFactory::new(1).stream("d", 0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
        assert_eq!(d.mean(), Some(3.5));
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 6.0);
        let mut rng = SeedFactory::new(1).stream("u", 0);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..=6.0).contains(&x));
        }
        assert!((sample_mean(&d, 50_000, "u2") - 4.0).abs() < 0.05);
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(2.0);
        assert_eq!(d.mean(), Some(2.0));
        assert!((sample_mean(&d, 200_000, "e") - 2.0).abs() < 0.05);
        assert!((Exponential::new(4.0).rate() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn lognormal_mean_matches() {
        let d = Lognormal::with_mean(10.0, 0.5);
        assert!((d.mean().unwrap() - 10.0).abs() < 1e-9);
        assert!((sample_mean(&d, 300_000, "l") - 10.0).abs() < 0.2);
    }

    #[test]
    fn pareto_mean_matches() {
        let d = Pareto::new(1.0, 2.5);
        let expect = 2.5 / 1.5;
        assert!((d.mean().unwrap() - expect).abs() < 1e-12);
        assert!((sample_mean(&d, 400_000, "p") - expect).abs() < 0.05);
        assert_eq!(Pareto::new(1.0, 0.9).mean(), None);
    }

    #[test]
    fn bounded_pareto_within_bounds_and_mean() {
        let d = BoundedPareto::new(1.0, 1000.0, 1.3);
        let mut rng = SeedFactory::new(5).stream("bp", 0);
        for _ in 0..20_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=1000.0 + 1e-9).contains(&x), "x = {x}");
        }
        let analytic = d.mean().unwrap();
        let empirical = sample_mean(&d, 400_000, "bp2");
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "analytic {analytic}, empirical {empirical}"
        );
    }

    #[test]
    fn bounded_pareto_alpha_one_mean() {
        let d = BoundedPareto::new(1.0, 100.0, 1.0);
        let analytic = d.mean().unwrap();
        let empirical = sample_mean(&d, 400_000, "bp3");
        assert!((empirical - analytic).abs() / analytic < 0.05);
    }

    #[test]
    fn mixture_bimodal() {
        let d = Mixture::bimodal(1.0, 0.8, 10.0);
        assert!((d.mean().unwrap() - (0.8 + 2.0)).abs() < 1e-12);
        let m = sample_mean(&d, 200_000, "m");
        assert!((m - 2.8).abs() < 0.05, "mean = {m}");
    }

    #[test]
    fn empirical_draws_only_observed() {
        let d = Empirical::new(vec![1.0, 2.0, 4.0]);
        let mut rng = SeedFactory::new(8).stream("emp", 0);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!(x == 1.0 || x == 2.0 || x == 4.0);
        }
        assert!((d.mean().unwrap() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clamped_respects_bounds() {
        let d = Clamped::new(Pareto::new(1.0, 1.1), 0.0, 5.0);
        let mut rng = SeedFactory::new(9).stream("c", 0);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) <= 5.0);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }
}
