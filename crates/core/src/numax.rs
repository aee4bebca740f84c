//! Solvers inverting the paper's bounds into `ν_max(c)` — the quantity
//! Figure 1 plots.

use crate::{Error, Result};
use probability::rootfind::{brent, RootConfig};

/// The neat bound as a function of ν: `g(ν) = 2(1−ν)/ln((1−ν)/ν)`.
/// Strictly increasing on `(0, ½)` with `g(0⁺) = 0` and `g(½⁻) = ∞`.
fn neat_bound_curve(nu: f64) -> f64 {
    2.0 * (1.0 - nu) / ((1.0 - nu) / nu).ln()
}

/// Solves `2µ/ln(µ/ν) = c` for the maximum tolerable `ν ∈ (0, ½)` —
/// Figure 1's magenta line. (Strictly, consistency needs `ν` *below*
/// the returned value since the paper's condition is a strict
/// inequality.)
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for non-positive `c`; solver
/// failures (never observed for valid `c`) propagate as
/// [`Error::Numerical`].
///
/// ```
/// use consistency_core::numax::nu_max_for_c;
/// let v = nu_max_for_c(3.0)?;
/// // Verify: 2(1−ν)/ln((1−ν)/ν) = 3 at the returned ν.
/// assert!((2.0 * (1.0 - v) / ((1.0 - v) / v).ln() - 3.0).abs() < 1e-9);
/// # Ok::<(), consistency_core::Error>(())
/// ```
pub fn nu_max_for_c(c: f64) -> Result<f64> {
    if !(c > 0.0) || c.is_nan() {
        return Err(Error::invalid("c", format!("must be positive, got {c}")));
    }
    // Substitute ν = e^{−u}: the solution can be astronomically small
    // (ν ≈ e^{−2/c} for tiny c), so solving in u keeps full relative
    // precision. g(e^{−u}) is decreasing in u.
    let g = |u: f64| neat_bound_curve((-u).exp());
    let u_lo = std::f64::consts::LN_2 + 1e-13; // ν just below 1/2
    let u_hi = 705.0; // ν ≈ 1e-306
    if g(u_lo) <= c {
        return Ok((-u_lo).exp());
    }
    if g(u_hi) >= c {
        return Ok((-u_hi).exp());
    }
    let u = brent(
        |u| g(u) - c,
        u_lo,
        u_hi,
        RootConfig {
            x_tol: 1e-13,
            ..RootConfig::default()
        },
    )
    .map_err(Error::from)?;
    Ok((-u).exp())
}

/// Solves Theorem 2's *full* Ineq. (11) (at its infimum over ε₁, ε₂)
/// for `ν_max` at finite `Δ`. For large Δ this converges to
/// [`nu_max_for_c`].
///
/// # Errors
///
/// Same contract as [`nu_max_for_c`].
// detlint: allow(xref-item-used) -- Theorem 2, Ineq. (11), solved for ν_max
pub fn nu_max_theorem2(c: f64, delta: u64) -> Result<f64> {
    if !(c > 0.0) || c.is_nan() {
        return Err(Error::invalid("c", format!("must be positive, got {c}")));
    }
    if delta == 0 {
        return Err(Error::invalid("delta", "Δ must be at least 1"));
    }
    let bound = |nu: f64| crate::theorem2::infimum_c_bound(nu, delta);
    let lo = 1e-12;
    let hi = 0.5 - 1e-14;
    if bound(hi) <= c {
        return Ok(hi);
    }
    if bound(lo) >= c {
        // Even a vanishing adversary needs more c at this Δ.
        return Ok(0.0);
    }
    brent(|nu| bound(nu) - c, lo, hi, RootConfig::default()).map_err(Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverts_neat_bound() {
        for &c in &[0.1, 0.5, 1.0, 3.0, 30.0, 100.0] {
            let nu = nu_max_for_c(c).unwrap();
            assert!(nu > 0.0 && nu < 0.5);
            let back = crate::theorem2::neat_bound(nu);
            assert!((back - c).abs() < 1e-7 * c, "c={c} → ν={nu} → c={back}");
        }
    }

    #[test]
    fn monotone_in_c() {
        let mut prev = 0.0;
        for &c in &[0.1, 0.3, 1.0, 2.0, 3.0, 10.0, 30.0, 100.0] {
            let nu = nu_max_for_c(c).unwrap();
            assert!(nu > prev, "ν_max must increase with c");
            prev = nu;
        }
    }

    #[test]
    fn approaches_half_for_huge_c() {
        let nu = nu_max_for_c(1e9).unwrap();
        assert!(nu > 0.499_999);
    }

    #[test]
    fn tiny_c_tiny_nu() {
        let nu = nu_max_for_c(0.01).unwrap();
        assert!(nu < 1e-30, "ν_max = {nu:e} should be astronomically small");
    }

    #[test]
    fn rejects_bad_c() {
        assert!(nu_max_for_c(0.0).is_err());
        assert!(nu_max_for_c(-1.0).is_err());
        assert!(nu_max_for_c(f64::NAN).is_err());
    }

    #[test]
    fn theorem2_numax_converges_to_neat_at_large_delta() {
        for &c in &[1.0, 3.0, 10.0] {
            let asymptotic = nu_max_for_c(c).unwrap();
            let finite = nu_max_theorem2(c, 10_000_000_000_000).unwrap();
            assert!(
                (asymptotic - finite).abs() < 1e-4,
                "c={c}: neat {asymptotic} vs Thm2 {finite}"
            );
            // Finite-Δ bound is stricter: tolerates (weakly) less.
            assert!(finite <= asymptotic + 1e-12);
        }
    }

    #[test]
    fn theorem2_numax_much_smaller_at_tiny_delta() {
        let asymptotic = nu_max_for_c(3.0).unwrap();
        let finite = nu_max_theorem2(3.0, 1).unwrap();
        assert!(finite < asymptotic, "finite-Δ must be stricter");
    }

    #[test]
    fn theorem2_numax_zero_when_c_too_small() {
        // At Δ = 1 the second branch forces a sizeable floor on c even
        // for ν → 0.
        let v = nu_max_theorem2(0.05, 1).unwrap();
        assert_eq!(v, 0.0);
    }
}
