//! Chernoff–Hoeffding bounds for Markov chains.
//!
//! Implements Theorem 3.1 of Chung, Lam, Liu & Mitzenmacher,
//! *"Chernoff–Hoeffding Bounds for Markov Chains: Generalized and
//! Simplified"* (2012), exactly as invoked by the paper's Inequality (47):
//!
//! ```text
//! P[X ≤ (1−δ)·µT] ≤ c·‖φ‖_π·exp(−δ²·µT / (72·τ(1/8)))
//! P[X ≥ (1+δ)·µT] ≤ c·‖φ‖_π·exp(−δ²·µT / (72·τ(1/8)))
//! ```
//!
//! where `X = Σ f_t(V_t)` is an occupancy sum over a `T`-step walk,
//! `µ = E_π f`, `τ` the 1/8-mixing time, and `φ` the initial
//! distribution.

use crate::{Error, Result};

/// The constant `c` of Chung et al.'s Theorem 3.1. The theorem only
/// asserts existence of a universal constant; we expose it explicitly so
/// experiments can report the bound they actually evaluated.
pub const CHUNG_ET_AL_CONSTANT: f64 = 1.0;

/// Proposition 1 of the paper in log space: `‖φ‖_π ≤ 1/√(min_v π(v))`
/// for any initial distribution `φ`, so given `ln(min π)` — which may lie
/// far below `f64` range (e.g. `min π_{F‖P} = exp(-10⁸)`) — returns the
/// bound `ln ‖φ‖_π ≤ −½·ln(min π)`.
#[must_use]
pub fn ln_pi_norm_worst_case(ln_min_pi: f64) -> f64 {
    assert!(ln_min_pi <= 0.0, "ln(min_pi) must be ≤ 0");
    -0.5 * ln_min_pi
}

/// Parameters of a Chung-et-al. tail-bound evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkBoundParams {
    /// Walk length `T` (number of observed steps).
    pub steps: u64,
    /// Stationary mean `µ = E_π f` of the per-step indicator/function.
    pub stationary_mean: f64,
    /// The 1/8-mixing time `τ` of the chain.
    pub mixing_time_eighth: u64,
    /// `‖φ‖_π = √(Σ_v φ(v)²/π(v))` of the initial distribution.
    pub phi_pi_norm: f64,
}

impl WalkBoundParams {
    /// Validates the parameter ranges.
    ///
    /// # Errors
    ///
    /// [`Error::BadShape`] when a parameter is out of its domain.
    pub fn validate(&self) -> Result<()> {
        if self.steps == 0 {
            return Err(Error::BadShape {
                message: "walk must have at least one step".into(),
            });
        }
        if !(self.stationary_mean >= 0.0 && self.stationary_mean <= 1.0) {
            return Err(Error::BadShape {
                message: format!(
                    "stationary mean must be in [0, 1], got {}",
                    self.stationary_mean
                ),
            });
        }
        if self.mixing_time_eighth == 0 {
            return Err(Error::BadShape {
                message: "mixing time must be ≥ 1".into(),
            });
        }
        if !(self.phi_pi_norm >= 1.0) {
            return Err(Error::BadShape {
                message: format!("‖φ‖_π is always ≥ 1, got {}", self.phi_pi_norm),
            });
        }
        Ok(())
    }

    /// Natural log of the lower-tail bound `P[X ≤ (1−δ)µT]` per
    /// Theorem 3.1 — the paper's Inequality (47) with
    /// `X = C(t₀, t₀+T−1)`; stays meaningful when the bound underflows
    /// (deep concentration regimes).
    ///
    /// # Errors
    ///
    /// Propagates [`WalkBoundParams::validate`]; also rejects `δ ∉ (0, 1)`.
    pub fn ln_lower_tail(&self, delta: f64) -> Result<f64> {
        self.validate()?;
        if !(delta > 0.0 && delta < 1.0) {
            return Err(Error::BadShape {
                message: format!("lower-tail δ must be in (0, 1), got {delta}"),
            });
        }
        let exponent = -delta * delta * self.stationary_mean * self.steps as f64
            / (72.0 * self.mixing_time_eighth as f64);
        Ok(CHUNG_ET_AL_CONSTANT.ln() + self.phi_pi_norm.ln() + exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// π-norm of an initial distribution `φ`:
    /// `‖φ‖_π = √( Σ_v φ(v)² / π(v) )`.
    ///
    /// Equals 1 when `φ = π` and `1/√π(v)` for a point mass on `v`.
    fn pi_norm(phi: &[f64], pi: &[f64]) -> f64 {
        assert_eq!(phi.len(), pi.len(), "distribution length mismatch");
        let mut acc = 0.0;
        for (&f, &p) in phi.iter().zip(pi.iter()) {
            if f == 0.0 {
                continue;
            }
            assert!(p > 0.0, "pi must be positive wherever phi is");
            acc += f * f / p;
        }
        acc.sqrt()
    }

    /// The linear-space lower tail of Theorem 3.1 and its inverse in
    /// `T` (the paper uses the log-space lower tail only).
    impl WalkBoundParams {
        /// Lower-tail bound `P[X ≤ (1−δ)µT]` per Theorem 3.1 — the paper's
        /// Inequality (47) with `X = C(t₀, t₀+T−1)`.
        ///
        /// # Errors
        ///
        /// Propagates `validate`; also rejects `δ ∉ (0, 1)`.
        fn lower_tail(&self, delta: f64) -> Result<f64> {
            self.validate()?;
            if !(delta > 0.0 && delta < 1.0) {
                return Err(Error::BadShape {
                    message: format!("lower-tail δ must be in (0, 1), got {delta}"),
                });
            }
            Ok(self.ln_lower_tail(delta)?.exp().min(1.0))
        }

        /// Smallest `T` making the lower-tail bound at most `target`;
        /// solves the bound equation in closed form.
        ///
        /// # Errors
        ///
        /// Same contract as `lower_tail` (the `steps`
        /// field is ignored); additionally rejects `stationary_mean == 0`.
        fn steps_for_lower_tail(&self, delta: f64, target: f64) -> Result<u64> {
            if self.stationary_mean == 0.0 {
                return Err(Error::BadShape {
                    message: "stationary mean must be positive to pick T".into(),
                });
            }
            if !(target > 0.0 && target < 1.0) {
                return Err(Error::BadShape {
                    message: format!("target must be in (0, 1), got {target}"),
                });
            }
            if !(delta > 0.0 && delta < 1.0) {
                return Err(Error::BadShape {
                    message: format!("δ must be in (0, 1), got {delta}"),
                });
            }
            let numerator = (CHUNG_ET_AL_CONSTANT * self.phi_pi_norm / target).ln();
            let denominator =
                delta * delta * self.stationary_mean / (72.0 * self.mixing_time_eighth as f64);
            Ok((numerator / denominator).ceil().max(1.0) as u64)
        }
    }

    fn params() -> WalkBoundParams {
        WalkBoundParams {
            steps: 100_000,
            stationary_mean: 0.01,
            mixing_time_eighth: 5,
            phi_pi_norm: 2.0,
        }
    }

    #[test]
    fn pi_norm_point_mass() {
        let pi = [0.2, 0.8];
        let phi = [1.0, 0.0];
        assert!((pi_norm(&phi, &pi) - (1.0f64 / 0.2).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn pi_norm_stationary_start_is_one() {
        let pi = [0.1, 0.2, 0.3, 0.4];
        assert!((pi_norm(&pi, &pi) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worst_case_dominates_all_point_masses() {
        let pi = [0.05, 0.15, 0.8];
        let worst = ln_pi_norm_worst_case(0.05f64.ln()).exp();
        for s in 0..3 {
            let mut phi = [0.0; 3];
            phi[s] = 1.0;
            assert!(pi_norm(&phi, &pi) <= worst + 1e-12);
        }
    }

    #[test]
    fn ln_worst_case_matches_linear() {
        let min_pi = 1e-8f64;
        let a = (1.0 / min_pi.sqrt()).ln();
        let b = ln_pi_norm_worst_case(min_pi.ln());
        assert!((a - b).abs() < 1e-9);
        // And it keeps working far below f64 range.
        let huge = ln_pi_norm_worst_case(-1e8);
        assert_eq!(huge, 5e7);
    }

    #[test]
    fn lower_tail_decays_exponentially_in_t() {
        let p = params();
        let mut prev_ln = 0.0;
        for (i, steps) in [100_000u64, 200_000, 400_000].iter().enumerate() {
            let q = WalkBoundParams { steps: *steps, ..p };
            let ln_b = q.ln_lower_tail(0.5).unwrap();
            if i > 0 {
                // Doubling T roughly doubles |log bound| (up to the ‖φ‖ term).
                assert!(ln_b < prev_ln, "bound must shrink with T");
            }
            prev_ln = ln_b;
        }
    }

    #[test]
    fn lower_tail_bounded_by_one() {
        let p = WalkBoundParams {
            steps: 1,
            stationary_mean: 1e-12,
            mixing_time_eighth: 1000,
            phi_pi_norm: 50.0,
        };
        assert_eq!(p.lower_tail(0.5).unwrap(), 1.0);
    }

    #[test]
    fn tail_bounds_reject_bad_delta() {
        let p = params();
        assert!(p.lower_tail(0.0).is_err());
        assert!(p.lower_tail(1.0).is_err());
    }

    #[test]
    fn validate_rejects_degenerate() {
        let mut p = params();
        p.steps = 0;
        assert!(p.validate().is_err());
        let mut p = params();
        p.mixing_time_eighth = 0;
        assert!(p.validate().is_err());
        let mut p = params();
        p.phi_pi_norm = 0.5;
        assert!(p.validate().is_err());
        let mut p = params();
        p.stationary_mean = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn steps_for_target_achieves_target() {
        let p = params();
        let t = p.steps_for_lower_tail(0.5, 1e-6).unwrap();
        let q = WalkBoundParams { steps: t, ..p };
        assert!(q.lower_tail(0.5).unwrap() <= 1e-6);
        // And one step fewer misses it (tightness of the ceil).
        if t > 1 {
            let q = WalkBoundParams { steps: t - 1, ..p };
            assert!(q.lower_tail(0.5).unwrap() > 1e-6 * 0.9);
        }
    }
}
