//! Lemmas 2–8 and Propositions 1–2: the chain of sufficient conditions
//! (displays 52–59) that turns Theorem 1's inequality into the neat
//! bound. Every lemma is exposed as *both sides of its inequality*, so
//! the implication chain can be audited mechanically on parameter grids
//! (see the `lemma_audit` bench binary).
//!
//! Throughout, `L = ln(µ/ν)` and quantities involving `x^{1/(2Δ)}` are
//! computed via `exp/expm1` so they stay exact at `Δ = 10¹³`.

use crate::params::ProtocolParams;

/// `1 − (ν/µ)^{1/(2Δ)}` without cancellation (`−expm1(−L/(2Δ))`).
#[must_use]
pub fn one_minus_nu_over_mu_root(params: &ProtocolParams) -> f64 {
    -(-params.ln_mu_over_nu() / (2.0 * params.delta() as f64)).exp_m1()
}

/// **Lemma 2** (Appendix B). Under `0 < pµn < 1`:
/// `ᾱ ≥ ((1+δ₁)/(1−pµn) · ν/µ)^{1/(2Δ)}` (Ineq. 66) implies Theorem 1's
/// `ᾱ^{2Δ}α₁ ≥ (1+δ₁)pνn` (Ineq. 10).
///
/// Returns `(lhs_holds, rhs_holds)` so callers can assert the
/// implication `lhs → rhs`.
#[must_use]
pub fn lemma2(params: &ProtocolParams, delta1: f64) -> (bool, bool) {
    let p_mu_n = params.p() * params.mu_n();
    assert!(
        p_mu_n > 0.0 && p_mu_n < 1.0,
        "Lemma 2 requires 0 < pµn < 1, got {p_mu_n}"
    );
    // ln of Ineq. (66)'s RHS.
    let ln_rhs66 = (delta1.ln_1p() - (-p_mu_n).ln_1p() - params.ln_mu_over_nu())
        / (2.0 * params.delta() as f64);
    let lhs = params.ln_alpha_bar() >= ln_rhs66;
    let rhs = crate::theorem1::ln_margin(params) >= delta1.ln_1p();
    (lhs, rhs)
}

/// **Lemma 3** (Appendix C). Under Ineq. (50) with constant `ε₁`, for
/// `δ₄` above the (68) threshold and `δ₁` from Eq. (69):
/// `((1+δ₁)/(1−pµn))^{1/(2Δ)} ≤ 1 + δ₄/(2Δ)` (Ineq. 70).
///
/// Returns `(lhs, rhs)` of Ineq. (70) so the caller can assert
/// `lhs ≤ rhs`.
#[must_use]
pub fn lemma3(params: &ProtocolParams, eps1: f64, eps2: f64) -> (f64, f64) {
    let consts =
        crate::theorem3::Constants::new(eps1, eps2, params.nu()).expect("validated upstream"); // detlint: allow(panic-expect) -- valid eps/nu is a documented precondition of the lemma helpers
    let p_mu_n = params.p() * params.mu_n();
    let two_delta = 2.0 * params.delta() as f64;
    let lhs = ((consts.delta1.ln_1p() - (-p_mu_n).ln_1p()) / two_delta).exp();
    let rhs = 1.0 + consts.delta4 / two_delta;
    (lhs, rhs)
}

/// **Lemma 4** (Appendix D). Under `0 < δ₄ < L`, the condition
/// `c ≥ 1/(nΔ·(1 − [(1+δ₄/(2Δ))(ν/µ)^{1/(2Δ)}]^{1/(µn)}))` (Ineq. 74)
/// implies `ᾱ ≥ (1+δ₄/(2Δ))(ν/µ)^{1/(2Δ)}` (Ineq. 71).
///
/// Returns `(c_threshold_74, alpha_bar_target_71_ln)` — the caller
/// compares `params.c()` to the first and `ln ᾱ` to the second.
#[must_use]
pub fn lemma4(params: &ProtocolParams, delta4: f64) -> (f64, f64) {
    assert_delta4_range(params, delta4);
    let two_delta = 2.0 * params.delta() as f64;
    // y = ln[(1+δ₄/(2Δ))·(ν/µ)^{1/(2Δ)}] < 0 by Proposition 2.
    let y = (delta4 / two_delta).ln_1p() - params.ln_mu_over_nu() / two_delta;
    debug_assert!(y < 0.0, "Proposition 2 violated: y = {y}");
    // Ineq. (74): c ≥ 1/(nΔ·(1 − e^{y/(µn)})).
    let denom = -(y / params.mu_n()).exp_m1();
    let c_threshold = 1.0 / (params.n() as f64 * params.delta() as f64 * denom);
    (c_threshold, y)
}

/// **Proposition 2** (Appendix E): under `0 < δ₄ < L`,
/// `1 − (1+δ₄/(2Δ))(ν/µ)^{1/(2Δ)} > 0`. Returns that quantity.
#[must_use]
pub fn proposition2(params: &ProtocolParams, delta4: f64) -> f64 {
    assert_delta4_range(params, delta4);
    let two_delta = 2.0 * params.delta() as f64;
    let y = (delta4 / two_delta).ln_1p() - params.ln_mu_over_nu() / two_delta;
    -y.exp_m1()
}

/// **Lemma 5** (Appendix F): the simpler threshold
/// `µ/(Δ·[1−(1+δ₄/(2Δ))(ν/µ)^{1/(2Δ)}])` (Ineq. 77's RHS) dominates
/// Lemma 4's threshold (Ineq. 74's RHS).
///
/// Returns `(lemma5_threshold, lemma4_threshold)`; Lemma 5 asserts
/// `lemma5_threshold ≥ lemma4_threshold`.
#[must_use]
pub fn lemma5(params: &ProtocolParams, delta4: f64) -> (f64, f64) {
    let a = proposition2(params, delta4);
    let lemma5_threshold = params.mu() / (params.delta() as f64 * a);
    let (lemma4_threshold, _) = lemma4(params, delta4);
    (lemma5_threshold, lemma4_threshold)
}

/// **Lemma 6** (Appendix G): Ineq. (79) —
/// `1/(1−(ν/µ)^{1/(2Δ)}) · (1 + δ₄/(L−δ₄))` strictly exceeds
/// `1/(1−(1+δ₄/(2Δ))(ν/µ)^{1/(2Δ)})`.
///
/// Returns `(lhs, rhs)` of Ineq. (79); the lemma asserts `lhs > rhs`.
#[must_use]
pub fn lemma6(params: &ProtocolParams, delta4: f64) -> (f64, f64) {
    assert_delta4_range(params, delta4);
    let ell = params.ln_mu_over_nu();
    let lhs = (1.0 + delta4 / (ell - delta4)) / one_minus_nu_over_mu_root(params);
    let rhs = 1.0 / proposition2(params, delta4);
    (lhs, rhs)
}

/// **Lemma 7** (Appendix H): Ineq. (82) —
/// `2/L ≤ 1/(Δ·[1−(ν/µ)^{1/(2Δ)}]) ≤ 2/L + 1/Δ`.
///
/// Returns `(lower, middle, upper)`.
#[must_use]
pub fn lemma7(params: &ProtocolParams) -> (f64, f64, f64) {
    let ell = params.ln_mu_over_nu();
    let lower = 2.0 / ell;
    let middle = 1.0 / (params.delta() as f64 * one_minus_nu_over_mu_root(params));
    let upper = 2.0 / ell + 1.0 / params.delta() as f64;
    (lower, middle, upper)
}

/// **Lemma 8** (Appendix I): with δ₄ from Eq. (60),
/// `1 + δ₄/(L−δ₄) < (1+ε₂)/(1−ε₁)`.
///
/// Returns `(lhs, rhs)`.
#[must_use]
pub fn lemma8(nu: f64, eps1: f64, eps2: f64) -> (f64, f64) {
    let consts = crate::theorem3::Constants::new(eps1, eps2, nu).expect("validated upstream"); // detlint: allow(panic-expect) -- valid eps/nu is a documented precondition of the lemma helpers
    let ell = ((1.0 - nu) / nu).ln();
    let lhs = 1.0 + consts.delta4 / (ell - consts.delta4);
    let rhs = (1.0 + eps2) / (1.0 - eps1);
    (lhs, rhs)
}

/// **Proposition 1** (Appendix A): `min π_{F‖P}` — see
/// [`crate::extended_chain::ln_min_pi`] for the log-space value; this
/// re-export exists so the lemma audit can exercise the whole appendix
/// from one module.
pub use crate::extended_chain::ln_min_pi as proposition1_ln_min_pi;

/// Audits the full implication chain (52)–(59) at one parameter point:
/// if Theorem 3's premises hold, every downstream implication must fire.
/// Returns an error message naming the first broken link, if any.
pub fn audit_chain(
    params: &ProtocolParams,
    eps1: f64,
    eps2: f64,
) -> std::result::Result<(), String> {
    let consts =
        crate::theorem3::Constants::new(eps1, eps2, params.nu()).map_err(|e| e.to_string())?;
    let ell = params.ln_mu_over_nu();

    // Premise checks (Theorem 3's conditions).
    let premises = crate::theorem3::holds(params, eps1, eps2);

    // Structural facts that must hold for admissible constants.
    if !(consts.delta4 > 0.0 && consts.delta4 < ell) {
        return Err(format!("δ₄ = {} outside (0, L = {ell})", consts.delta4));
    }
    if consts.delta1 <= 0.0 {
        return Err(format!("δ₁ = {} not positive", consts.delta1));
    }
    if proposition2(params, consts.delta4) <= 0.0 {
        return Err("Proposition 2 failed".into());
    }
    let (l3_lhs, l3_rhs) = lemma3(params, eps1, eps2);
    let (l5_a, l5_b) = lemma5(params, consts.delta4);
    if l5_a + 1e-15 < l5_b {
        return Err(format!("Lemma 5 failed: {l5_a} < {l5_b}"));
    }
    let (l6_lhs, l6_rhs) = lemma6(params, consts.delta4);
    if l6_lhs <= l6_rhs {
        return Err(format!("Lemma 6 failed: {l6_lhs} ≤ {l6_rhs}"));
    }
    let (l7_lo, l7_mid, l7_hi) = lemma7(params);
    if !(l7_lo <= l7_mid * (1.0 + 1e-12) && l7_mid <= l7_hi * (1.0 + 1e-12)) {
        return Err(format!("Lemma 7 failed: {l7_lo} ≤ {l7_mid} ≤ {l7_hi}"));
    }
    let (l8_lhs, l8_rhs) = lemma8(params.nu(), eps1, eps2);
    if l8_lhs >= l8_rhs {
        return Err(format!("Lemma 8 failed: {l8_lhs} ≥ {l8_rhs}"));
    }

    if !premises {
        // Premises fail: nothing further to check at this point.
        return Ok(());
    }

    // Premises hold → Lemma 3's conclusion (70) must hold …
    if l3_lhs > l3_rhs * (1.0 + 1e-12) {
        return Err(format!("Lemma 3 conclusion failed: {l3_lhs} > {l3_rhs}"));
    }
    // … and the whole chain must deliver Theorem 1 for δ₁ from Eq. (61).
    let (c_threshold_74, alpha_target) = lemma4(params, consts.delta4);
    // Ineq. (51) + Lemmas 5–8 imply Ineq. (74):
    if params.c() + 1e-12 < c_threshold_74 {
        return Err(format!(
            "chain broke before Lemma 4: c = {} < threshold {c_threshold_74}",
            params.c()
        ));
    }
    // Ineq. (74) ⇒ Ineq. (71): ᾱ ≥ target.
    if params.ln_alpha_bar() < alpha_target - 1e-12 {
        return Err(format!(
            "Lemma 4 conclusion failed: ln ᾱ = {} < {alpha_target}",
            params.ln_alpha_bar()
        ));
    }
    // Ineq. (71) + Lemma 3 ⇒ Ineq. (66) ⇒ Ineq. (10).
    let (l2_lhs, l2_rhs) = lemma2(params, consts.delta1);
    if l2_lhs && !l2_rhs {
        return Err("Lemma 2 implication failed".into());
    }
    if !l2_rhs {
        return Err(format!(
            "Theorem 1 failed under Theorem 3's premises (δ₁ = {})",
            consts.delta1
        ));
    }
    Ok(())
}

fn assert_delta4_range(params: &ProtocolParams, delta4: f64) {
    let ell = params.ln_mu_over_nu();
    assert!(
        delta4 > 0.0 && delta4 < ell,
        "Lemmas 4–7 require 0 < δ₄ < ln(µ/ν) = {ell}, got {delta4}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProtocolParams;
    use crate::theorem3::Constants;

    fn params(c: f64, nu: f64, delta: u64) -> ProtocolParams {
        ProtocolParams::from_c(10_000, delta, c, nu).unwrap()
    }

    #[test]
    fn lemma2_implication_on_grid() {
        let mut checked = 0;
        for &nu in &[0.1, 0.3, 0.45] {
            for &c in &[0.5, 1.0, 2.0, 5.0, 20.0] {
                for &delta in &[1u64, 4, 64] {
                    let p = params(c, nu, delta);
                    if p.p() * p.mu_n() >= 1.0 {
                        continue; // outside Lemma 2's precondition (65)
                    }
                    for &d1 in &[0.01, 0.5, 2.0] {
                        let (lhs, rhs) = lemma2(&p, d1);
                        assert!(
                            !lhs || rhs,
                            "Lemma 2 broken at ν={nu}, c={c}, Δ={delta}, δ₁={d1}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 50, "grid too sparse after filtering: {checked}");
    }

    #[test]
    fn lemma3_conclusion_under_pn_condition() {
        // When Ineq. (50) holds, (70) must follow with Eq. (60)/(61)
        // constants.
        for &nu in &[0.1, 0.3] {
            for &eps1 in &[0.2, 0.8] {
                let eps2 = 0.5;
                // Choose c large enough that pn ≤ budget.
                let budget = crate::theorem3::pn_budget(nu, eps1);
                let delta = 100u64;
                // pn = 1/(cΔ) ≤ budget ⇔ c ≥ 1/(budget·Δ).
                let c = 1.2 / (budget * delta as f64);
                let p = params(c, nu, delta);
                assert!(crate::theorem3::pn_condition_holds(&p, eps1));
                let (lhs, rhs) = lemma3(&p, eps1, eps2);
                assert!(lhs <= rhs * (1.0 + 1e-12), "(70) failed: {lhs} > {rhs}");
            }
        }
    }

    #[test]
    fn proposition2_positive_on_range() {
        for &nu in &[0.05, 0.25, 0.45] {
            for &delta in &[1u64, 16, 1_000_000] {
                let p = params(2.0, nu, delta);
                let ell = p.ln_mu_over_nu();
                for &frac in &[0.01, 0.5, 0.99] {
                    let d4 = frac * ell;
                    assert!(proposition2(&p, d4) > 0.0, "ν={nu}, Δ={delta}, δ₄={d4}");
                }
            }
        }
    }

    #[test]
    fn lemma5_inequality_holds() {
        for &nu in &[0.1, 0.4] {
            for &delta in &[1u64, 8, 10_000] {
                let p = params(3.0, nu, delta);
                let d4 = 0.3 * p.ln_mu_over_nu();
                let (a, b) = lemma5(&p, d4);
                assert!(a + 1e-15 >= b, "ν={nu}, Δ={delta}: {a} < {b}");
            }
        }
    }

    #[test]
    fn lemma6_strict_inequality() {
        for &nu in &[0.1, 0.3, 0.45] {
            for &delta in &[1u64, 64, 1_000_000] {
                let p = params(3.0, nu, delta);
                let d4 = 0.4 * p.ln_mu_over_nu();
                let (lhs, rhs) = lemma6(&p, d4);
                assert!(lhs > rhs, "ν={nu}, Δ={delta}: {lhs} ≤ {rhs}");
            }
        }
    }

    #[test]
    fn lemma7_sandwich() {
        for &nu in &[0.01, 0.2, 0.49] {
            for &delta in &[1u64, 2, 100, 10_000_000_000_000] {
                let p = ProtocolParams::from_c(100_000, delta, 3.0, nu).unwrap();
                let (lo, mid, hi) = lemma7(&p);
                assert!(lo <= mid * (1.0 + 1e-12), "ν={nu}, Δ={delta}: {lo} > {mid}");
                assert!(mid <= hi * (1.0 + 1e-12), "ν={nu}, Δ={delta}: {mid} > {hi}");
            }
        }
    }

    #[test]
    fn lemma7_tight_at_large_delta() {
        // As Δ → ∞ the middle term converges to 2/L.
        let p = ProtocolParams::from_c(100_000, 10_000_000_000_000, 3.0, 0.3).unwrap();
        let (lo, mid, _) = lemma7(&p);
        assert!((mid - lo) / lo < 1e-10, "middle {mid} far from 2/L {lo}");
    }

    #[test]
    fn lemma8_strict_inequality() {
        for &nu in &[0.05, 0.25, 0.45] {
            for &eps1 in &[0.1, 0.5, 0.9] {
                for &eps2 in &[0.01, 1.0] {
                    let (lhs, rhs) = lemma8(nu, eps1, eps2);
                    assert!(lhs < rhs, "ν={nu}, ε₁={eps1}, ε₂={eps2}: {lhs} ≥ {rhs}");
                }
            }
        }
    }

    #[test]
    fn audit_chain_passes_in_consistent_regime() {
        // Pick points safely above Theorem 3's bound.
        for &nu in &[0.1, 0.3] {
            for &delta in &[100u64, 100_000] {
                let eps1 = 0.3;
                let eps2 = 0.2;
                let bound = crate::theorem2::c_bound(nu, delta, eps1, eps2).unwrap();
                let p = params(bound * 1.5, nu, delta);
                audit_chain(&p, eps1, eps2)
                    .unwrap_or_else(|e| panic!("audit failed at ν={nu}, Δ={delta}: {e}"));
            }
        }
    }

    #[test]
    fn audit_chain_ok_when_premises_fail() {
        // Premises failing is not an error: the chain is vacuous there.
        let p = params(0.1, 0.4, 10);
        assert!(audit_chain(&p, 0.3, 0.2).is_ok());
    }

    #[test]
    fn delta1_from_constants_works_in_lemma2() {
        let nu = 0.2;
        let delta = 1_000u64;
        let eps1 = 0.25;
        let eps2 = 0.25;
        let bound = crate::theorem2::c_bound(nu, delta, eps1, eps2).unwrap();
        let p = params(bound * 2.0, nu, delta);
        let consts = Constants::new(eps1, eps2, nu).unwrap();
        let (_, rhs) = lemma2(&p, consts.delta1);
        assert!(rhs, "Theorem 1 must hold with the chain's δ₁");
    }
}
