//! The paper's model parameters (Table I) and derived quantities
//! (Eqs. 7–9), with all the constraints of Eqs. (1)–(3) enforced at
//! construction.

use crate::{Error, Result};

/// Validated protocol parameters `(n, Δ, p, ν)`.
///
/// Derived quantities are computed in log space where needed so the
/// type stays exact at the paper's Figure-1 scale (`Δ = 10¹³`,
/// `p ≈ 10⁻¹⁸`).
///
/// # Examples
///
/// ```
/// use consistency_core::params::ProtocolParams;
///
/// let params = ProtocolParams::new(100_000, 10_000_000_000_000, 1e-18, 0.2)?;
/// assert!((params.mu() - 0.8).abs() < 1e-15);
/// assert!(params.alpha() > 0.0 && params.alpha() < 1.0);
/// # Ok::<(), consistency_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolParams {
    n: u64,
    delta: u64,
    p: f64,
    nu: f64,
}

impl ProtocolParams {
    /// Creates validated parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] unless all the paper's model
    /// constraints hold: `n ≥ 4` (Eq. 3), `0 < ν < ½` (Eq. 2),
    /// `0 < p < 1`, `Δ ≥ 1`.
    pub fn new(n: u64, delta: u64, p: f64, nu: f64) -> Result<Self> {
        if n < 4 {
            return Err(Error::invalid(
                "n",
                format!("Eq. (3) requires n ≥ 4, got {n}"),
            ));
        }
        if delta == 0 {
            return Err(Error::invalid("delta", "Δ must be at least 1 round"));
        }
        if !(p > 0.0 && p < 1.0) || p.is_nan() {
            return Err(Error::invalid(
                "p",
                format!("hardness must lie in (0, 1), got {p}"),
            ));
        }
        if !(nu > 0.0 && nu < 0.5) || nu.is_nan() {
            return Err(Error::invalid(
                "nu",
                format!("Eq. (2) requires 0 < ν < 1/2, got {nu}"),
            ));
        }
        Ok(ProtocolParams { n, delta, p, nu })
    }

    /// Builds parameters from the paper's evaluation axis: given
    /// `(n, Δ, c, ν)`, sets `p = 1/(c·n·Δ)`.
    ///
    /// # Errors
    ///
    /// Same contract as [`ProtocolParams::new`]; additionally rejects
    /// non-positive `c`.
    pub fn from_c(n: u64, delta: u64, c: f64, nu: f64) -> Result<Self> {
        if !(c > 0.0) || c.is_nan() {
            return Err(Error::invalid("c", format!("must be positive, got {c}")));
        }
        let p = 1.0 / (c * n as f64 * delta as f64);
        ProtocolParams::new(n, delta, p, nu)
    }

    /// Number of miners `n`.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Maximum message delay `Δ`.
    #[must_use]
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Proof-of-work hardness `p`.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Adversarial fraction `ν`.
    #[must_use]
    pub fn nu(&self) -> f64 {
        self.nu
    }

    /// Honest fraction `µ = 1 − ν` (Eq. 1).
    #[must_use]
    pub fn mu(&self) -> f64 {
        1.0 - self.nu
    }

    /// Honest computational mass `µn` (a real number; the simulator
    /// rounds it to a miner count).
    #[must_use]
    pub fn mu_n(&self) -> f64 {
        self.mu() * self.n as f64
    }

    /// Adversarial computational mass `νn`.
    #[must_use]
    pub fn nu_n(&self) -> f64 {
        self.nu * self.n as f64
    }

    /// `ln(µ/ν)`, the paper's recurring logarithm.
    #[must_use]
    pub fn ln_mu_over_nu(&self) -> f64 {
        (self.mu() / self.nu).ln()
    }

    /// The paper's `c = 1/(pnΔ)`: expected number of Δ-delays before
    /// some block is mined.
    #[must_use]
    pub fn c(&self) -> f64 {
        1.0 / (self.p * self.n as f64 * self.delta as f64)
    }

    /// `ln ᾱ = µn·ln(1−p)` — log of the probability that no honest
    /// miner succeeds in a round (Eq. 8), exact for any scale.
    #[must_use]
    pub fn ln_alpha_bar(&self) -> f64 {
        self.mu_n() * (-self.p).ln_1p()
    }

    /// `ᾱ = (1−p)^{µn}` (Eq. 8).
    #[must_use]
    pub fn alpha_bar(&self) -> f64 {
        self.ln_alpha_bar().exp()
    }

    /// `α = 1 − (1−p)^{µn}` (Eq. 7), computed without cancellation.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        -self.ln_alpha_bar().exp_m1()
    }

    /// `ln α₁ = ln(pµn) + (µn−1)·ln(1−p)` (Eq. 9).
    #[must_use]
    pub fn ln_alpha1(&self) -> f64 {
        (self.p * self.mu_n()).ln() + (self.mu_n() - 1.0) * (-self.p).ln_1p()
    }

    /// `α₁ = pµn·(1−p)^{µn−1}` (Eq. 9): exactly one honest success.
    #[must_use]
    pub fn alpha1(&self) -> f64 {
        self.ln_alpha1().exp()
    }

    /// The paper's headline check: `c > 2µ/ln(µ/ν)` (the asymptotic
    /// form of Theorem 2's bound, Figure 1's magenta line).
    #[must_use]
    pub fn is_consistent_by_neat_bound(&self) -> bool {
        self.c() > crate::theorem2::neat_bound(self.nu)
    }

    /// Converts to a simulator configuration (same `(n, ν, p, Δ)`).
    #[must_use]
    pub fn to_sim_config(&self, seed: u64) -> nakamoto_sim::config::SimConfig {
        nakamoto_sim::config::SimConfig::new(self.n, self.nu, self.p, self.delta, seed)
            .expect("ProtocolParams constraints are a superset of SimConfig's") // detlint: allow(panic-expect) -- ProtocolParams validation is strictly stronger than SimConfig validation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_params(c: f64, nu: f64) -> ProtocolParams {
        ProtocolParams::from_c(100_000, 10_000_000_000_000, c, nu).unwrap()
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        assert!(ProtocolParams::new(3, 1, 0.1, 0.2).is_err());
        assert!(ProtocolParams::new(10, 0, 0.1, 0.2).is_err());
        assert!(ProtocolParams::new(10, 1, 0.0, 0.2).is_err());
        assert!(ProtocolParams::new(10, 1, 1.0, 0.2).is_err());
        assert!(ProtocolParams::new(10, 1, 0.1, 0.0).is_err());
        assert!(ProtocolParams::new(10, 1, 0.1, 0.5).is_err());
        assert!(ProtocolParams::from_c(10, 1, 0.0, 0.2).is_err());
        assert!(ProtocolParams::from_c(10, 1, -2.0, 0.2).is_err());
    }

    #[test]
    fn mu_nu_sum_to_one() {
        let p = ProtocolParams::new(100, 5, 1e-4, 0.3).unwrap();
        assert!((p.mu() + p.nu() - 1.0).abs() < 1e-15);
        assert!((p.mu_n() + p.nu_n() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn c_round_trips_through_from_c() {
        let p = figure1_params(3.0, 0.25);
        assert!((p.c() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_quantities_match_binomial() {
        // Cross-check α, ᾱ, α₁ against the probability crate's binomial
        // at an integer µn.
        let p = ProtocolParams::new(1000, 2, 1e-4, 0.2).unwrap();
        let mu_n = p.mu_n() as u64; // 800, exact
        let d = probability::binomial::Binomial::new(mu_n, 1e-4).unwrap();
        assert!((p.alpha_bar() - d.prob_zero()).abs() < 1e-14);
        assert!((p.alpha() - d.prob_positive()).abs() < 1e-14);
        // α₁ goes through ln_choose on the binomial side; allow a few
        // ulps of divergence between the two formulations.
        assert!((p.alpha1() - d.pmf(1)).abs() < 1e-12 * p.alpha1());
    }

    #[test]
    fn alpha_identities() {
        for &(n, delta, pw, nu) in &[
            (100u64, 2u64, 1e-3f64, 0.1f64),
            (1000, 8, 1e-5, 0.3),
            (100_000, 1_000, 1e-11, 0.45),
        ] {
            let p = ProtocolParams::new(n, delta, pw, nu).unwrap();
            assert!((p.alpha() + p.alpha_bar() - 1.0).abs() < 1e-12);
            assert!(p.alpha1() <= p.alpha() * (1.0 + 1e-12));
            assert!(p.alpha1() > 0.0);
        }
    }

    #[test]
    fn log_quantities_survive_figure1_scale() {
        // Δ = 1e13, c = 0.1 → p = 1/(0.1·1e5·1e13) = 1e-17.
        let p = figure1_params(0.1, 0.3);
        let two_delta = 2.0 * p.delta() as f64;
        let ln_rate = two_delta * p.ln_alpha_bar() + p.ln_alpha1();
        assert!(ln_rate.is_finite(), "log-space must not overflow");
        // Linear space would underflow ᾱ^{2Δ} here? For c = 0.1:
        // ln ᾱ = −µnp = −0.7e5·1e-17 = −7e-13, ×2Δ = −14: fine. For a
        // harsher check push c down via larger p.
        let harsh = ProtocolParams::new(100_000, 10_000_000_000_000, 1e-12, 0.3).unwrap();
        let ln_rate = 2.0 * harsh.delta() as f64 * harsh.ln_alpha_bar() + harsh.ln_alpha1();
        assert!(ln_rate < -1e6, "deep underflow regime reached: {ln_rate}");
        assert_eq!(
            (2.0 * harsh.delta() as f64 * harsh.ln_alpha_bar()).exp(),
            0.0,
            "sanity: linear space underflows to zero"
        );
    }

    #[test]
    fn neat_bound_check_matches_figure1_examples() {
        // At ν = 0.3: bound = 2·0.7/ln(7/3) ≈ 1.652. c = 3 passes,
        // c = 1 fails.
        assert!(figure1_params(3.0, 0.3).is_consistent_by_neat_bound());
        assert!(!figure1_params(1.0, 0.3).is_consistent_by_neat_bound());
    }

    #[test]
    fn sim_config_conversion() {
        let p = ProtocolParams::new(100, 4, 1e-3, 0.25).unwrap();
        let cfg = p.to_sim_config(42);
        assert_eq!(cfg.n_miners, 100);
        assert_eq!(cfg.delta, 4);
        assert_eq!(cfg.seed, 42);
        assert!((cfg.adversary_fraction - 0.25).abs() < 1e-15);
    }
}

// Deterministic randomized sweeps (in-tree RNG; proptest is unavailable
// in the offline build environment).
#[cfg(test)]
mod randomized_tests {
    use super::*;
    use probability::rng::{RandomSource, SplitMix64};

    const CASES: usize = 256;

    #[test]
    fn alpha_complement_identity() {
        let mut rng = SplitMix64::new(0xFA_01);
        for _ in 0..CASES {
            let n = rng.next_range(4, 999_999);
            let delta = rng.next_range(1, 999);
            let p_exp = -15.0 + rng.next_f64() * 13.0;
            let nu = 0.01 + rng.next_f64() * 0.48;
            let p = 10f64.powf(p_exp);
            let params = ProtocolParams::new(n, delta, p, nu).unwrap();
            assert!((params.alpha() + params.alpha_bar() - 1.0).abs() < 1e-12);
            assert!(params.ln_alpha_bar() <= 0.0);
            assert!(params.ln_alpha1() <= 1e-12);
        }
    }

    #[test]
    fn c_positive_and_consistent_with_p() {
        let mut rng = SplitMix64::new(0xFA_02);
        for _ in 0..CASES {
            let n = rng.next_range(4, 999_999);
            let delta = rng.next_range(1, 9_999);
            let c = 0.01 + rng.next_f64() * 999.99;
            let nu = 0.01 + rng.next_f64() * 0.48;
            let params = ProtocolParams::from_c(n, delta, c, nu).unwrap();
            assert!(
                (params.c() - c).abs() < 1e-6 * c,
                "c mismatch: {} vs {c}",
                params.c()
            );
        }
    }
}
