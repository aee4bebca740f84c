//! Theorem 2: the neat bound. Consistency holds when constants
//! `0 < ε₁ < 1`, `ε₂ > 0` exist with (Ineq. 11)
//!
//! ```text
//! c ≥ max{ (2µ/ln(µ/ν) + 1/Δ)·(1+ε₂)/(1−ε₁),
//!          ((ln(µ/ν)+1)·µ) / (ε₁·Δ·ln(µ/ν)) }
//! ```
//!
//! and, under the Remark-1 ranges for `ν` (Ineq. 12), the bound
//! simplifies to Ineq. (13): `c` just slightly greater than
//! `2µ/ln(µ/ν)`.

use crate::params::ProtocolParams;
use crate::{Error, Result};

/// The paper's headline expression `2µ/ln(µ/ν)` (Figure 1's magenta
/// line, with `µ = 1 − ν`).
///
/// # Panics
///
/// Panics unless `0 < ν < ½`.
///
/// ```
/// use consistency_core::theorem2::neat_bound;
/// // ν = 0.3: 2·0.7/ln(7/3) ≈ 1.6523.
/// assert!((neat_bound(0.3) - 1.652).abs() < 1e-3);
/// ```
#[must_use]
pub fn neat_bound(nu: f64) -> f64 {
    assert!(nu > 0.0 && nu < 0.5, "ν must lie in (0, 1/2), got {nu}");
    let mu = 1.0 - nu;
    2.0 * mu / (mu / nu).ln()
}

/// The right-hand side of Ineq. (11) for given `(ν, Δ, ε₁, ε₂)`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] unless `0 < ε₁ < 1` and `ε₂ > 0`.
pub fn c_bound(nu: f64, delta: u64, eps1: f64, eps2: f64) -> Result<f64> {
    validate_epsilons(eps1, eps2)?;
    if !(nu > 0.0 && nu < 0.5) {
        return Err(Error::invalid(
            "nu",
            format!("must lie in (0, 1/2), got {nu}"),
        ));
    }
    let mu = 1.0 - nu;
    let ell = (mu / nu).ln();
    let d = delta as f64;
    let first = (2.0 * mu / ell + 1.0 / d) * (1.0 + eps2) / (1.0 - eps1);
    let second = (ell + 1.0) * mu / (eps1 * d * ell);
    Ok(first.max(second))
}

/// Checks Theorem 2's condition (Ineq. 11) at specific `(ε₁, ε₂)`.
///
/// # Errors
///
/// Same contract as [`c_bound`].
pub fn holds(params: &ProtocolParams, eps1: f64, eps2: f64) -> Result<bool> {
    Ok(params.c() >= c_bound(params.nu(), params.delta(), eps1, eps2)?)
}

/// Checks whether *any* admissible `(ε₁, ε₂)` makes Ineq. (11) hold, by
/// minimising the bound over `ε₁` (the bound is monotone increasing in
/// `ε₂`, so `ε₂ → 0` is optimal; the max of a decreasing and an
/// increasing function of `ε₁` is minimised where they cross).
#[must_use]
// detlint: allow(xref-item-used) -- Theorem 2, Ineq. (11)
pub fn holds_for_some_epsilons(params: &ProtocolParams) -> bool {
    params.c() > infimum_c_bound(params.nu(), params.delta())
}

/// The infimum over admissible `(ε₁, ε₂)` of Ineq. (11)'s right-hand
/// side. Strictly speaking the infimum is not attained (`ε₂ > 0` is
/// open), so consistency needs `c` strictly greater.
#[must_use]
pub fn infimum_c_bound(nu: f64, delta: u64) -> f64 {
    assert!(nu > 0.0 && nu < 0.5, "ν must lie in (0, 1/2), got {nu}");
    // With ε₂ → 0 the two branches are
    //   f(ε₁) = (2µ/L + 1/Δ)/(1−ε₁)   (increasing in ε₁)
    //   g(ε₁) = (L+1)µ/(ε₁·Δ·L)       (decreasing in ε₁)
    // The max is minimised at the crossing (or at ε₁ → 1 if g stays
    // above f, which cannot happen since g → (L+1)µ/(ΔL) finite and
    // f → ∞). Solve f = g: a quadratic in ε₁.
    let mu = 1.0 - nu;
    let ell = (mu / nu).ln();
    let d = delta as f64;
    let a = 2.0 * mu / ell + 1.0 / d;
    let b = (ell + 1.0) * mu / (d * ell);
    // a·ε₁ = b·(1−ε₁)  ⇒  ε₁ = b/(a+b).
    let eps1 = b / (a + b);
    let eps1 = eps1.clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON);
    let f = a / (1.0 - eps1);
    let g = b / eps1;
    f.max(g)
}

fn validate_epsilons(eps1: f64, eps2: f64) -> Result<()> {
    if !(eps1 > 0.0 && eps1 < 1.0) || eps1.is_nan() {
        return Err(Error::invalid(
            "eps1",
            format!("Theorem 2 requires 0 < ε₁ < 1, got {eps1}"),
        ));
    }
    if !(eps2 > 0.0) || eps2.is_nan() {
        return Err(Error::invalid(
            "eps2",
            format!("Theorem 2 requires ε₂ > 0, got {eps2}"),
        ));
    }
    Ok(())
}

/// The Remark-1 range of admissible `ν` (Ineq. 12) for exponent
/// constants `δ₁, δ₂` with `δ₁ + δ₂ < 1`:
/// `1/(1+exp(Δ^{δ₁})) ≤ ν ≤ 1/(1+exp(1/(Δ^{δ₂}−1)))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NuRange {
    /// Lower end of the admissible ν interval.
    pub lo: f64,
    /// Upper end of the admissible ν interval.
    pub hi: f64,
}

impl NuRange {
    /// `true` iff `nu` lies in the closed interval.
    #[must_use]
    pub fn contains(&self, nu: f64) -> bool {
        (self.lo..=self.hi).contains(&nu)
    }
}

/// Computes the Remark-1 `ν` range (Ineq. 12).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] unless `δ₁, δ₂ > 0`,
/// `δ₁ + δ₂ < 1` and `Δ^{δ₂} > 1`.
pub fn remark1_nu_range(delta: u64, d1: f64, d2: f64) -> Result<NuRange> {
    validate_remark1_exponents(d1, d2)?;
    let d = delta as f64;
    let lo = 1.0 / (1.0 + d.powf(d1).exp());
    let pow2 = d.powf(d2);
    if pow2 <= 1.0 {
        return Err(Error::invalid(
            "d2",
            format!("Δ^δ₂ must exceed 1, got {pow2}"),
        ));
    }
    let hi = 1.0 / (1.0 + (1.0 / (pow2 - 1.0)).exp());
    Ok(NuRange { lo, hi })
}

/// The Ineq.-(13) inflation factor `(1 + Δ^{δ₁−1})/(1 − Δ^{δ₁+δ₂−1})`
/// that multiplies `2µ/ln(µ/ν)·(1+ε₂)`.
///
/// # Errors
///
/// Same contract as [`remark1_nu_range`].
pub fn remark1_factor(delta: u64, d1: f64, d2: f64) -> Result<f64> {
    validate_remark1_exponents(d1, d2)?;
    let d = delta as f64;
    let numerator = 1.0 + d.powf(d1 - 1.0);
    let denominator = 1.0 - d.powf(d1 + d2 - 1.0);
    if denominator <= 0.0 {
        return Err(Error::invalid(
            "d1",
            format!("Δ^(δ₁+δ₂−1) must stay below 1, got denominator {denominator}"),
        ));
    }
    Ok(numerator / denominator)
}

/// The full Ineq.-(13) bound: `2µ/ln(µ/ν) · (1+ε₂) · remark1_factor`.
///
/// # Errors
///
/// Same contract as [`remark1_factor`] plus ε₂ validation.
pub fn remark1_c_bound(nu: f64, delta: u64, d1: f64, d2: f64, eps2: f64) -> Result<f64> {
    if !(eps2 > 0.0) {
        return Err(Error::invalid(
            "eps2",
            format!("must be positive, got {eps2}"),
        ));
    }
    Ok(neat_bound(nu) * (1.0 + eps2) * remark1_factor(delta, d1, d2)?)
}

fn validate_remark1_exponents(d1: f64, d2: f64) -> Result<()> {
    if !(d1 > 0.0) || d1.is_nan() {
        return Err(Error::invalid("d1", format!("must be positive, got {d1}")));
    }
    if !(d2 > 0.0) || d2.is_nan() {
        return Err(Error::invalid("d2", format!("must be positive, got {d2}")));
    }
    if !(d1 + d2 < 1.0) {
        return Err(Error::invalid(
            "d1",
            format!("Remark 1 requires δ₁ + δ₂ < 1, got {}", d1 + d2),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DELTA13: u64 = 10_000_000_000_000; // Δ = 10¹³ as in Figure 1.

    #[test]
    fn neat_bound_monotone_increasing_in_nu() {
        let mut prev = 0.0;
        for i in 1..50 {
            let nu = i as f64 / 100.0;
            let b = neat_bound(nu);
            assert!(b > prev, "bound must increase with ν");
            prev = b;
        }
    }

    #[test]
    fn neat_bound_limits() {
        // ν → 0: bound → 0. ν → ½: bound → ∞.
        assert!(neat_bound(1e-9) < 0.1);
        assert!(neat_bound(0.5 - 1e-12) > 1e10);
    }

    #[test]
    fn c_bound_exceeds_neat_bound() {
        // Ineq. (11)'s RHS is strictly above the asymptotic 2µ/L.
        for &nu in &[0.1, 0.25, 0.4] {
            let b = c_bound(nu, DELTA13, 0.01, 0.01).unwrap();
            assert!(b > neat_bound(nu));
        }
    }

    #[test]
    fn infimum_close_to_neat_bound_at_figure1_delta() {
        // Remark 1's point: at Δ = 1e13 the infimum over (ε₁, ε₂) is
        // within a tiny factor of 2µ/L for moderate ν.
        for &nu in &[0.01, 0.1, 0.3, 0.45] {
            let inf = infimum_c_bound(nu, DELTA13);
            let neat = neat_bound(nu);
            assert!(inf >= neat);
            assert!(
                inf / neat < 1.0 + 1e-4,
                "ν={nu}: infimum {inf} vs neat {neat}"
            );
        }
    }

    #[test]
    fn infimum_dominated_by_second_branch_at_small_delta() {
        // At small Δ the (L+1)µ/(ε₁ΔL) branch matters; the infimum is
        // then well above the neat bound.
        let inf = infimum_c_bound(0.3, 2);
        assert!(inf > neat_bound(0.3) * 1.5);
    }

    #[test]
    fn holds_matches_c_comparison() {
        let p = crate::params::ProtocolParams::from_c(100_000, DELTA13, 3.0, 0.3).unwrap();
        assert!(holds(&p, 0.01, 0.01).unwrap());
        assert!(holds_for_some_epsilons(&p));
        let p = crate::params::ProtocolParams::from_c(100_000, DELTA13, 1.0, 0.3).unwrap();
        assert!(!holds(&p, 0.01, 0.01).unwrap());
        assert!(!holds_for_some_epsilons(&p));
    }

    #[test]
    fn epsilon_validation() {
        assert!(c_bound(0.3, 10, 0.0, 0.1).is_err());
        assert!(c_bound(0.3, 10, 1.0, 0.1).is_err());
        assert!(c_bound(0.3, 10, 0.5, 0.0).is_err());
        assert!(c_bound(0.6, 10, 0.5, 0.1).is_err());
    }

    #[test]
    fn remark1_first_parameterisation_matches_paper() {
        // δ₁ = 1/6, δ₂ = 1/2 at Δ = 1e13 → Ineq. (14): 10⁻⁶³ ≤ ν ≤ 0.5−10⁻⁷
        // and factor ≈ 1 + 5·10⁻⁵ (Ineq. 15).
        let range = remark1_nu_range(DELTA13, 1.0 / 6.0, 0.5).unwrap();
        assert!(range.lo < 1e-62 && range.lo > 1e-66, "lo = {:e}", range.lo);
        let hi_gap = 0.5 - range.hi;
        assert!(hi_gap < 1e-6 && hi_gap > 1e-8, "hi gap = {hi_gap:e}");
        let factor = remark1_factor(DELTA13, 1.0 / 6.0, 0.5).unwrap();
        assert!(
            factor > 1.0 && factor - 1.0 < 5e-5,
            "factor − 1 = {:e}",
            factor - 1.0
        );
    }

    #[test]
    fn remark1_second_parameterisation_matches_paper() {
        // δ₁ = 1/8, δ₂ = 2/3 at Δ = 1e13 → Ineq. (16): 10⁻¹⁸ ≤ ν ≤ 0.5−10⁻⁹
        // and factor ≈ 1 + 2·10⁻³ (Ineq. 17).
        let range = remark1_nu_range(DELTA13, 1.0 / 8.0, 2.0 / 3.0).unwrap();
        assert!(range.lo < 1e-17 && range.lo > 1e-20, "lo = {:e}", range.lo);
        let hi_gap = 0.5 - range.hi;
        assert!(hi_gap < 1e-8 && hi_gap > 1e-10, "hi gap = {hi_gap:e}");
        let factor = remark1_factor(DELTA13, 1.0 / 8.0, 2.0 / 3.0).unwrap();
        assert!(
            factor > 1.0 && factor - 1.0 < 2e-3,
            "factor − 1 = {:e}",
            factor - 1.0
        );
    }

    #[test]
    fn remark1_range_contains_typical_nu() {
        let range = remark1_nu_range(DELTA13, 1.0 / 6.0, 0.5).unwrap();
        for &nu in &[1e-9, 0.1, 0.25, 0.4, 0.49] {
            assert!(range.contains(nu), "ν = {nu} should be covered");
        }
    }

    #[test]
    fn remark1_c_bound_slightly_above_neat() {
        let nu = 0.3;
        let b = remark1_c_bound(nu, DELTA13, 1.0 / 6.0, 0.5, 1e-6).unwrap();
        let neat = neat_bound(nu);
        assert!(b > neat);
        assert!(b / neat < 1.0 + 1e-4, "ratio {}", b / neat);
    }

    #[test]
    fn remark1_validation() {
        assert!(remark1_nu_range(DELTA13, 0.6, 0.5).is_err(), "δ₁+δ₂ ≥ 1");
        assert!(remark1_nu_range(DELTA13, -0.1, 0.5).is_err());
        assert!(remark1_factor(DELTA13, 0.5, 0.5).is_err());
        assert!(remark1_c_bound(0.3, DELTA13, 1.0 / 6.0, 0.5, 0.0).is_err());
    }
}
