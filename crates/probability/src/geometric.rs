//! The geometric distribution on `{1, 2, 3, …}` — the waiting time until
//! the first `H` round (some honest block mined), which drives the
//! `N^{≥Δ}` runs in the paper's suffix Markov chain.
//!
//! Compiled only under `cfg(test)`: the simulator draws its quiet gaps
//! in `nakamoto_sim::oracle`, and `binomial`'s tests check the waiting
//! time to the first success against this law.

use crate::rng::RandomSource;
use crate::{Error, Result};

/// A geometric distribution counting the number of trials up to and
/// including the first success; support `{1, 2, …}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Creates `Geometric(p)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] unless `p ∈ (0, 1]`.
    pub fn new(p: f64) -> Result<Self> {
        if !(p > 0.0 && p <= 1.0) || p.is_nan() {
            return Err(Error::invalid("p", format!("must lie in (0, 1], got {p}")));
        }
        Ok(Geometric { p })
    }

    /// Success probability per trial.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean `1/p`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        1.0 / self.p
    }

    /// `P[X = k] = (1-p)^{k-1} p` for `k ≥ 1`, else 0.
    #[must_use]
    pub fn pmf(&self, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        if k == 1 {
            // Avoid 0 · ln(0) when p = 1.
            return self.p;
        }
        ((k - 1) as f64 * (-self.p).ln_1p()).exp() * self.p
    }

    /// `P[X ≤ k] = 1 - (1-p)^k`.
    #[must_use]
    pub fn cdf(&self, k: u64) -> f64 {
        -(k as f64 * (-self.p).ln_1p()).exp_m1()
    }

    /// Draws one sample by inversion: `⌈ln U / ln(1-p)⌉`.
    pub fn sample<R: RandomSource + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.p == 1.0 {
            return 1;
        }
        let u = loop {
            let u = rng.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let v = (u.ln() / (-self.p).ln_1p()).ceil();
        (v.max(1.0)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256PlusPlus;

    #[test]
    fn rejects_bad_p() {
        assert!(Geometric::new(0.0).is_err());
        assert!(Geometric::new(1.5).is_err());
        assert!(Geometric::new(f64::NAN).is_err());
    }

    #[test]
    fn pmf_sums_to_one() {
        let g = Geometric::new(0.3).unwrap();
        let total: f64 = (1..500).map(|k| g.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(g.pmf(0), 0.0);
    }

    #[test]
    fn cdf_sf_complementary() {
        let g = Geometric::new(0.05).unwrap();
        for k in [0u64, 1, 10, 100] {
            assert!((g.cdf(k) + 0.95f64.powi(k as i32) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_and_variance() {
        let g = Geometric::new(0.25).unwrap();
        assert_eq!(g.mean(), 4.0);
        let variance: f64 = (1..2_000)
            .map(|k| (k as f64 - 4.0).powi(2) * g.pmf(k))
            .sum();
        assert!((variance - 12.0).abs() < 1e-9, "variance {variance}");
    }

    #[test]
    fn sampling_mean() {
        let g = Geometric::new(0.1).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| g.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn degenerate_p_one() {
        let g = Geometric::new(1.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        assert_eq!(g.sample(&mut rng), 1);
        assert_eq!(g.pmf(1), 1.0);
    }

    #[test]
    fn run_length_connection_to_paper() {
        // With α the per-round honest-block probability, a run of N
        // rounds lasts longer than Δ with probability P[X > Δ] =
        // 1 − cdf(Δ) = (1−α)^Δ.
        let alpha = 0.2;
        let g = Geometric::new(alpha).unwrap();
        for delta in [1u64, 2, 5, 10] {
            let expected = (1.0f64 - alpha).powi(delta as i32);
            assert!((1.0 - g.cdf(delta) - expected).abs() < 1e-12);
        }
    }
}
