//! The Pass–Seeman–Shelat (Eurocrypt 2017) comparison bounds, as recast
//! by the paper's Section I:
//!
//! * **Consistency (blue line)** — PSS's condition
//!   `α[1−(2Δ+2)α] > β` simplifies to `c > 2(1−ν)²/(1−2ν)`, i.e.
//!   `ν < ½(2−c+√(c²−2c))` for `c > 2`.
//! * **Attack (red line)** — Remark 8.5's attack succeeds when
//!   `1/c > 1/ν − 1/(1−ν)`, i.e. `ν > (2c+1−√(4c²+1))/2`.

use crate::params::ProtocolParams;
use crate::{Error, Result};
use probability::rootfind::{bisect, RootConfig};

/// PSS's approximate maximum tolerable adversarial fraction at a given
/// `c`: `ν_max = ½(2−c+√(c²−2c))`, defined for `c > 2` (returns `None`
/// below — PSS guarantees nothing there).
///
/// ```
/// use consistency_core::pss::consistency_nu_max;
/// assert!(consistency_nu_max(1.5).is_none());
/// let v = consistency_nu_max(10.0).unwrap();
/// assert!(v > 0.3 && v < 0.5);
/// ```
#[must_use]
pub fn consistency_nu_max(c: f64) -> Option<f64> {
    if !(c > 2.0) {
        return None;
    }
    Some(0.5 * (2.0 - c + (c * c - 2.0 * c).sqrt()))
}

/// The inverse direction: the `c` PSS requires to tolerate a given `ν`:
/// `c > 2(1−ν)²/(1−2ν)` (diverges as ν → ½).
///
/// # Panics
///
/// Panics unless `0 < ν < ½`.
#[must_use]
pub fn consistency_c_required(nu: f64) -> f64 {
    assert!(nu > 0.0 && nu < 0.5, "ν must lie in (0, 1/2), got {nu}");
    2.0 * (1.0 - nu) * (1.0 - nu) / (1.0 - 2.0 * nu)
}

/// Remark 8.5's attack threshold: the attack breaks consistency when
/// `ν > (2c+1−√(4c²+1))/2`.
///
/// # Panics
///
/// Panics unless `c > 0`.
#[must_use]
pub fn attack_nu_threshold(c: f64) -> f64 {
    assert!(c > 0.0, "c must be positive, got {c}");
    0.5 * (2.0 * c + 1.0 - (4.0 * c * c + 1.0).sqrt())
}

/// The margin `α[1−(2Δ+2)α] − β` of PSS's *exact* consistency
/// condition, with `α = 1−(1−p)^{µn}` and `β = νnp` (before the paper's
/// Section-I approximations); the condition holds where it is positive.
fn exact_margin(params: &ProtocolParams) -> f64 {
    let alpha = params.alpha();
    let beta = params.nu_n() * params.p();
    alpha * (1.0 - (2.0 * params.delta() as f64 + 2.0) * alpha) - beta
}

/// Solves the exact PSS condition for `ν_max` at fixed `(n, Δ, c)` by
/// bisection over `ν` (the condition is monotone: raising `ν` lowers
/// `α`'s honest mass and raises `β`).
///
/// Returns `None` when even a vanishing adversary violates the exact
/// condition (i.e. `c` too small).
///
/// # Errors
///
/// Propagates root-finder failures (not observed for valid inputs).
pub fn exact_consistency_nu_max(n: u64, delta: u64, c: f64) -> Result<Option<f64>> {
    let margin =
        |nu: f64| -> Result<f64> { Ok(exact_margin(&ProtocolParams::from_c(n, delta, c, nu)?)) };
    let lo = 1e-12;
    let hi = 0.5 - 1e-12;
    let m_lo = margin(lo)?;
    if m_lo <= 0.0 {
        return Ok(None);
    }
    let m_hi = margin(hi)?;
    if m_hi > 0.0 {
        return Ok(Some(hi));
    }
    let root = bisect(
        |nu| margin(nu).expect("validated range"), // detlint: allow(panic-expect) -- bisect probes only inside [lo, hi], where margin was just shown Ok
        lo,
        hi,
        RootConfig::default(),
    )
    .map_err(Error::from)?;
    Ok(Some(root))
}

/// `true` iff the Remark-8.5 attack applies at these parameters:
/// `1/c > 1/ν − 1/(1−ν)`.
#[must_use]
pub fn attack_applies(params: &ProtocolParams) -> bool {
    1.0 / params.c() > 1.0 / params.nu() - 1.0 / params.mu()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_nu_max_behaviour() {
        assert!(consistency_nu_max(2.0).is_none());
        assert!(consistency_nu_max(0.5).is_none());
        // Just above 2 the tolerance is tiny; it grows towards 1/2.
        let near = consistency_nu_max(2.01).unwrap();
        assert!(near > 0.0 && near < 0.1, "near-threshold ν_max {near}");
        let far = consistency_nu_max(1_000.0).unwrap();
        assert!(far > 0.49 && far < 0.5, "asymptotic ν_max {far}");
        // Monotone in c.
        assert!(consistency_nu_max(5.0).unwrap() < consistency_nu_max(50.0).unwrap());
    }

    #[test]
    fn nu_max_inverts_c_required() {
        for &nu in &[0.05, 0.2, 0.4] {
            let c = consistency_c_required(nu);
            let back = consistency_nu_max(c).unwrap();
            assert!((back - nu).abs() < 1e-9, "ν={nu} → c={c} → ν={back}");
        }
    }

    #[test]
    fn attack_threshold_behaviour() {
        // ν_attack(c) = ½(2c+1−√(4c²+1)): ≈ ½ − 1/(8c) for large c,
        // small for small c.
        let big = attack_nu_threshold(1_000.0);
        assert!((big - (0.5 - 1.0 / 8_000.0)).abs() < 1e-6);
        let small = attack_nu_threshold(0.1);
        assert!(small > 0.0 && small < 0.2);
        // Monotone increasing in c.
        assert!(attack_nu_threshold(1.0) < attack_nu_threshold(10.0));
    }

    #[test]
    fn attack_line_above_consistency_line() {
        // Figure 1's red line sits strictly above the blue line: an
        // attack needs more adversarial power than the proof tolerates.
        for &c in &[2.5, 3.0, 10.0, 100.0] {
            let blue = consistency_nu_max(c).unwrap();
            let red = attack_nu_threshold(c);
            assert!(red > blue, "c={c}: red {red} ≤ blue {blue}");
        }
    }

    #[test]
    fn attack_applies_matches_threshold() {
        let c = 5.0;
        let threshold = attack_nu_threshold(c);
        let above = ProtocolParams::from_c(1_000, 10, c, (threshold + 0.49) / 2.0).unwrap();
        assert!(above.nu() > threshold);
        assert!(attack_applies(&above));
        let below = ProtocolParams::from_c(1_000, 10, c, threshold * 0.5).unwrap();
        assert!(!attack_applies(&below));
    }

    #[test]
    fn exact_condition_close_to_approximation_at_figure1_scale() {
        // At n = 1e5, Δ = 1e13 the exact α[1−(2Δ+2)α] > β condition and
        // the closed-form blue line agree closely.
        let n = 100_000;
        let delta = 10_000_000_000_000;
        for &c in &[3.0, 5.0, 10.0] {
            let exact = exact_consistency_nu_max(n, delta, c).unwrap().unwrap();
            let approx = consistency_nu_max(c).unwrap();
            assert!(
                (exact - approx).abs() < 0.01,
                "c={c}: exact {exact} vs approx {approx}"
            );
        }
    }

    #[test]
    fn exact_condition_none_below_threshold() {
        let r = exact_consistency_nu_max(100_000, 10_000_000_000_000, 1.5).unwrap();
        assert!(r.is_none(), "c = 1.5 < 2 cannot satisfy PSS");
    }

    #[test]
    fn exact_consistency_holds_flips_at_boundary() {
        let n = 100_000;
        let delta = 10_000_000_000_000;
        let c = 5.0;
        let numax = exact_consistency_nu_max(n, delta, c).unwrap().unwrap();
        let ok = ProtocolParams::from_c(n, delta, c, numax * 0.9).unwrap();
        let bad = ProtocolParams::from_c(n, delta, c, (numax + 0.5) / 2.0).unwrap();
        assert!(exact_margin(&ok) > 0.0);
        assert!(exact_margin(&bad) <= 0.0);
    }

    #[test]
    fn paper_ordering_between_our_bound_and_pss() {
        // The paper's headline (Fig. 1): our ν_max is strictly above
        // PSS's for every c — and both stay below the attack line.
        for &c in &[2.5, 3.0, 10.0, 30.0, 100.0] {
            let ours = crate::numax::nu_max_for_c(c).unwrap();
            let pss = consistency_nu_max(c).unwrap();
            let attack = attack_nu_threshold(c);
            assert!(ours > pss, "c={c}: ours {ours} ≤ pss {pss}");
            assert!(attack > ours, "c={c}: attack {attack} ≤ ours {ours}");
        }
    }
}
