//! Deterministic latency jitter.
//!
//! The paper's microbenchmarks show noisy, heavy-tailed host behaviour (the
//! `dup` bursts of Figure 16d, scheduling noise under 1 000 concurrent
//! instances in Figure 15). The simulation reproduces these *shapes* with a
//! seeded RNG so figure regeneration is bit-for-bit repeatable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::SimNanos;

/// A seeded jitter source.
///
/// # Example
///
/// ```
/// use simtime::jitter::Jitter;
/// use simtime::SimNanos;
///
/// let mut a = Jitter::seeded(7);
/// let mut b = Jitter::seeded(7);
/// let base = SimNanos::from_micros(100);
/// assert_eq!(a.uniform(base, 0.1), b.uniform(base, 0.1)); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct Jitter {
    rng: StdRng,
}

impl Jitter {
    /// Creates a jitter source from a seed.
    pub fn seeded(seed: u64) -> Self {
        Jitter {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Returns `base` scaled by a uniform factor in `[1 - spread, 1 + spread]`.
    ///
    /// `spread` is clamped to `[0, 1]`.
    pub fn uniform(&mut self, base: SimNanos, spread: f64) -> SimNanos {
        let spread = spread.clamp(0.0, 1.0);
        let factor = 1.0 + self.rng.gen_range(-spread..=spread);
        base.scale(factor)
    }

    /// Returns a multiplicative log-normal-ish factor ≥ ~0.5 with median 1.0,
    /// computed as `exp(sigma * z)` for a cheap normal approximation of `z`
    /// (sum of 4 uniforms). Used for per-instance scheduling noise.
    pub fn lognormal_factor(&mut self, sigma: f64) -> f64 {
        let z: f64 = (0..4).map(|_| self.rng.gen_range(-1.0..1.0)).sum::<f64>() * 0.5;
        (sigma * z).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_across_instances() {
        let mut a = Jitter::seeded(42);
        let mut b = Jitter::seeded(42);
        for _ in 0..64 {
            assert_eq!(
                a.uniform(SimNanos::from_micros(100), 0.5),
                b.uniform(SimNanos::from_micros(100), 0.5),
            );
        }
    }

    #[test]
    fn uniform_stays_in_band() {
        let mut j = Jitter::seeded(1);
        let base = SimNanos::from_micros(100);
        for _ in 0..256 {
            let s = j.uniform(base, 0.1);
            assert!(s >= SimNanos::from_micros(90) && s <= SimNanos::from_micros(110));
        }
    }

    #[test]
    fn lognormal_factor_centers_near_one() {
        let mut j = Jitter::seeded(3);
        let mean: f64 = (0..2_000).map(|_| j.lognormal_factor(0.1)).sum::<f64>() / 2_000.0;
        assert!((0.9..1.1).contains(&mean), "mean = {mean}");
    }
}
