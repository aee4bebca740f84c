//! Theorem 1: Nakamoto's protocol satisfies consistency if
//! `ᾱ^{2Δ}·α₁ ≥ (1+δ₁)·p·ν·n` for some constant `δ₁ > 0` (Ineq. 10).
//!
//! Section V shows Ineq. (10) is equivalent to
//! `E[C(t₀,t₀+T−1)] ≥ (1+δ₁)·E[A(t₀,t₀+T−1)]` (Ineq. 18) with
//! `E[C] = T·ᾱ^{2Δ}α₁` (Eq. 26) and `E[A] = T·p·ν·n` (Eq. 27). All
//! quantities here are computed in log space, so the checks remain exact
//! at `Δ = 10¹³`.

use crate::params::ProtocolParams;

/// `ln(ᾱ^{2Δ}·α₁)` — log of the per-round convergence-opportunity
/// probability (Eq. 44).
#[must_use]
pub fn ln_convergence_rate(params: &ProtocolParams) -> f64 {
    2.0 * params.delta() as f64 * params.ln_alpha_bar() + params.ln_alpha1()
}

/// The per-round adversary block rate `p·ν·n` (Eq. 27's per-round mean).
#[must_use]
pub fn adversary_rate(params: &ProtocolParams) -> f64 {
    params.p() * params.nu_n()
}

/// The margin of Ineq. (10) in log space:
/// `ln(ᾱ^{2Δ}α₁) − ln(pνn)`.
///
/// Theorem 1's condition holds for constant `δ₁` iff this is
/// `≥ ln(1+δ₁)`; in particular a positive margin means *some* positive
/// `δ₁` exists.
#[must_use]
pub fn ln_margin(params: &ProtocolParams) -> f64 {
    ln_convergence_rate(params) - adversary_rate(params).ln()
}

/// Checks Ineq. (10) for a given `δ₁`.
///
/// # Panics
///
/// Panics if `delta1 ≤ 0` (Theorem 1 requires a positive constant).
#[must_use]
pub fn holds(params: &ProtocolParams, delta1: f64) -> bool {
    assert!(delta1 > 0.0, "Theorem 1 requires δ₁ > 0");
    ln_margin(params) >= delta1.ln_1p()
}

/// The largest `δ₁` for which Ineq. (10) holds, or `None` when even
/// `δ₁ → 0` fails (margin ≤ 0).
#[must_use]
pub fn max_delta1(params: &ProtocolParams) -> Option<f64> {
    let margin = ln_margin(params);
    if margin <= 0.0 {
        return None;
    }
    Some(margin.exp_m1())
}

/// `E[C(t₀, t₀+T−1)] = T·ᾱ^{2Δ}α₁` (Eq. 26).
#[must_use]
pub fn expected_convergence_opportunities(params: &ProtocolParams, t: u64) -> f64 {
    t as f64 * ln_convergence_rate(params).exp()
}

/// `E[A(t₀, t₀+T−1)] = T·p·ν·n` (Eq. 27).
#[must_use]
pub fn expected_adversary_blocks(params: &ProtocolParams, t: u64) -> f64 {
    t as f64 * adversary_rate(params)
}

/// The paper's explicit constants of Eq. (23), chosen so that
/// `(1−δ₂)(1+δ₁) − (1+δ₃) > 0`:
/// `δ₂ = 1 − (1+δ₁)^{−1/3}`, `δ₃ = (1+δ₁)^{1/3} − 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackConstants {
    /// Lower-tail slack for `C` (Ineq. 19).
    pub delta2: f64,
    /// Upper-tail slack for `A` (Ineq. 20).
    pub delta3: f64,
}

/// Computes Eq. (23)'s constants from `δ₁`.
///
/// # Panics
///
/// Panics if `delta1 ≤ 0`.
#[must_use]
// detlint: allow(xref-item-used) -- Eq. (23)
pub fn slack_constants(delta1: f64) -> SlackConstants {
    assert!(delta1 > 0.0, "δ₁ must be positive");
    let third_root = (1.0 + delta1).powf(1.0 / 3.0);
    SlackConstants {
        delta2: 1.0 - 1.0 / third_root,
        delta3: third_root - 1.0,
    }
}

/// The guaranteed gap of display (24):
/// `[(1+δ₁)^{2/3} − (1+δ₁)^{1/3}]·E[A(t₀,t₀+T−1)]` — the lower bound on
/// `C − A` that holds with probability `1 − e^{−Ω(T)}`.
#[must_use]
// detlint: allow(xref-item-used) -- display (24)
pub fn guaranteed_gap(params: &ProtocolParams, delta1: f64, t: u64) -> f64 {
    assert!(delta1 > 0.0, "δ₁ must be positive");
    let b = 1.0 + delta1;
    (b.powf(2.0 / 3.0) - b.powf(1.0 / 3.0)) * expected_adversary_blocks(params, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProtocolParams;

    fn safe_params() -> ProtocolParams {
        // c = 50 at ν = 0.1 — deep inside the consistent region.
        ProtocolParams::from_c(1_000, 4, 50.0, 0.1).unwrap()
    }

    fn unsafe_params() -> ProtocolParams {
        // c = 0.2 at ν = 0.4 — far below any bound.
        ProtocolParams::from_c(1_000, 4, 0.2, 0.4).unwrap()
    }

    #[test]
    fn margin_positive_in_safe_regime() {
        assert!(ln_margin(&safe_params()) > 0.0);
        assert!(holds(&safe_params(), 0.1));
        assert!(max_delta1(&safe_params()).is_some());
    }

    #[test]
    fn margin_negative_in_unsafe_regime() {
        assert!(ln_margin(&unsafe_params()) < 0.0);
        assert!(!holds(&unsafe_params(), 0.1));
        assert!(max_delta1(&unsafe_params()).is_none());
    }

    #[test]
    fn max_delta1_is_tight() {
        let p = safe_params();
        let d = max_delta1(&p).unwrap();
        assert!(holds(&p, d * (1.0 - 1e-9)));
        assert!(!holds(&p, d * (1.0 + 1e-6)));
    }

    #[test]
    fn expectations_scale_linearly_in_t() {
        let p = safe_params();
        let e1 = expected_convergence_opportunities(&p, 1_000);
        let e2 = expected_convergence_opportunities(&p, 2_000);
        assert!((e2 - 2.0 * e1).abs() < 1e-9 * e2.abs().max(1.0));
        let a1 = expected_adversary_blocks(&p, 1_000);
        let a2 = expected_adversary_blocks(&p, 2_000);
        assert!((a2 - 2.0 * a1).abs() < 1e-9 * a2);
    }

    #[test]
    fn condition_10_equals_condition_18() {
        // Ineq. (10) ⇔ Ineq. (18): E[C] ≥ (1+δ₁)E[A] for any T.
        let p = safe_params();
        let delta1 = 0.25;
        let t = 10_000u64;
        let lhs_10 = holds(&p, delta1);
        let lhs_18 = expected_convergence_opportunities(&p, t)
            >= (1.0 + delta1) * expected_adversary_blocks(&p, t);
        assert_eq!(lhs_10, lhs_18);
    }

    #[test]
    fn slack_constants_satisfy_eq_23_identity() {
        for &d1 in &[0.01, 0.5, 2.0, 10.0] {
            let s = slack_constants(d1);
            assert!(s.delta2 > 0.0 && s.delta2 < 1.0);
            assert!(s.delta3 > 0.0);
            // (1−δ₂)(1+δ₁) = (1+δ₁)^{2/3} and (1+δ₃) = (1+δ₁)^{1/3}, so
            // the Eq. (24) coefficient is positive.
            let coeff = (1.0 - s.delta2) * (1.0 + d1) - (1.0 + s.delta3);
            let expected = (1.0 + d1).powf(2.0 / 3.0) - (1.0 + d1).powf(1.0 / 3.0);
            assert!((coeff - expected).abs() < 1e-12);
            assert!(coeff > 0.0);
        }
    }

    #[test]
    fn guaranteed_gap_positive_and_grows_with_t() {
        let p = safe_params();
        let g1 = guaranteed_gap(&p, 0.5, 1_000);
        let g2 = guaranteed_gap(&p, 0.5, 2_000);
        assert!(g1 > 0.0);
        assert!((g2 - 2.0 * g1).abs() < 1e-9 * g2);
    }

    #[test]
    fn log_space_survives_figure1_scale() {
        let p = ProtocolParams::from_c(100_000, 10_000_000_000_000, 2.0, 0.3).unwrap();
        let m = ln_margin(&p);
        assert!(m.is_finite());
        // At c = 2 > neat bound ≈ 1.652 for ν = 0.3, Theorem 1's margin
        // must be positive even at Δ = 1e13.
        assert!(m > 0.0, "margin {m}");
    }

    #[test]
    fn theorem1_tracks_neat_bound_asymptotically() {
        // For large Δ and n, Theorem 1's threshold in c approaches
        // 2µ/ln(µ/ν): check the sign flips near the neat bound.
        let nu = 0.25;
        let neat = crate::theorem2::neat_bound(nu);
        let above = ProtocolParams::from_c(100_000, 1_000_000, neat * 1.05, nu).unwrap();
        let below = ProtocolParams::from_c(100_000, 1_000_000, neat * 0.95, nu).unwrap();
        assert!(ln_margin(&above) > 0.0);
        assert!(ln_margin(&below) < 0.0);
    }
}
