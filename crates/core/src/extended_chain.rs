//! The concatenation chain `C_{F‖P}` of Section V-A: the state
//! `F_{t−Δ−1} S_{t−Δ} … S_t` whose `HN^{≥Δ}‖H₁N^Δ` vertex is a
//! *convergence opportunity*.
//!
//! Key results implemented here:
//!
//! * Eq. (40): `π_{F‖P}(f s⁽¹⁾…s^{(Δ+1)}) = π_F(f)·Π P[s⁽ⁱ⁾]`.
//! * Eq. (44): `π_{F‖P}(HN^{≥Δ}‖H₁N^Δ) = ᾱ^Δ·α₁·ᾱ^Δ = ᾱ^{2Δ}α₁`.
//! * Proposition 1: `‖φ‖_π ≤ 1/√(min π_{F‖P})` with
//!   `min π_{F‖P} = min π_F · (min{p^{µn}, (1−p)^{µn}})^{Δ+1}`.
//! * Inequality (47): the Chung-et-al. lower-tail bound on
//!   `C(t₀, t₀+T−1)`.

use crate::params::ProtocolParams;
use crate::suffix_chain;
use crate::Result;
use markov::concentration::{ln_pi_norm_worst_case, WalkBoundParams};

/// Eq. (44) in log space: `ln π_{F‖P}(HN^{≥Δ}‖H₁N^Δ) = 2Δ·ln ᾱ + ln α₁`.
///
/// This equals [`crate::theorem1::ln_convergence_rate`]; re-derived here
/// through the chain decomposition (Eq. 40) as a consistency check:
/// `π_F(HN^{≥Δ})·P[H₁]·P[N]^Δ`.
// detlint: allow(xref-item-used) -- Eq. (44)
pub fn ln_convergence_state_probability(params: &ProtocolParams) -> Result<f64> {
    let ln_pi_f = suffix_chain::ln_long_gap_probability(params.alpha(), params.delta())?;
    let ln_h1 = params.ln_alpha1();
    let ln_n_run = params.delta() as f64 * params.ln_alpha_bar();
    Ok(ln_pi_f + ln_h1 + ln_n_run)
}

/// Proposition 1's minimum detailed-state probability in log space:
/// `ln min_{s} P[s] = min{µn·ln p, µn·ln(1−p)}` (the rarest detailed
/// state is `H_{µn}` — all honest miners succeed — or `N`, whichever is
/// smaller).
#[must_use]
pub fn ln_min_detailed_state_probability(params: &ProtocolParams) -> f64 {
    let mu_n = params.mu_n();
    (mu_n * params.p().ln()).min(mu_n * (-params.p()).ln_1p())
}

/// Proposition 1's `ln min π_{F‖P}`:
/// `ln min π_F + (Δ+1)·ln min P[s]`.
///
/// # Errors
///
/// Propagates parameter validation from the suffix-chain closed form.
pub fn ln_min_pi(params: &ProtocolParams) -> Result<f64> {
    let ln_min_f = suffix_chain::ln_min_stationary(params.alpha(), params.delta())?;
    Ok(ln_min_f + (params.delta() as f64 + 1.0) * ln_min_detailed_state_probability(params))
}

/// Proposition 1's bound `ln ‖φ‖_π ≤ −½·ln min π_{F‖P}`.
///
/// # Errors
///
/// Propagates parameter validation.
pub fn ln_phi_pi_norm_bound(params: &ProtocolParams) -> Result<f64> {
    Ok(ln_pi_norm_worst_case(ln_min_pi(params)?))
}

/// A conservative surrogate for the 1/8-mixing time `τ(1/8, ᾱ, Δ)` of
/// `C_{F‖P}`.
///
/// The chain `C_{F‖P}` appends a sliding window of `Δ+1` detailed states
/// to `C_F`, so its mixing time is at most `τ_F(1/8) + Δ + 1` (the
/// window refreshes completely in `Δ+1` steps once `C_F` has mixed).
/// For `C_F` itself we use the coupling bound: from any two starts the
/// chains coalesce at the first `H` round followed by a common suffix,
/// giving `τ_F(1/8) ≤ ⌈ln 8 / α⌉ + 2Δ`.
#[must_use]
pub fn mixing_time_surrogate(params: &ProtocolParams) -> u64 {
    let alpha = params.alpha();
    let tau_f = (8f64.ln() / alpha).ceil() as u64 + 2 * params.delta();
    tau_f + params.delta() + 1
}

/// Inequality (47): the Chung-et-al. lower-tail bound on the number of
/// convergence opportunities over `T` rounds, in natural log:
///
/// `ln P[C ≤ (1−δ₂)·E C] ≤ ln c + ln ‖φ‖_π − δ₂²·T·ᾱ^{2Δ}α₁/(72τ)`.
///
/// `tau` overrides the mixing-time surrogate when the caller has a
/// better (e.g. numerically computed) value.
///
/// # Errors
///
/// Propagates parameter validation; rejects `δ₂ ∉ (0,1)`.
// detlint: allow(xref-item-used) -- Ineq. (47)
pub fn ln_lower_tail_bound(
    params: &ProtocolParams,
    t: u64,
    delta2: f64,
    tau: Option<u64>,
) -> Result<f64> {
    if !(delta2 > 0.0 && delta2 < 1.0) {
        return Err(crate::Error::invalid(
            "delta2",
            format!("Ineq. (47) needs 0 < δ₂ < 1, got {delta2}"),
        ));
    }
    let tau = tau.unwrap_or_else(|| mixing_time_surrogate(params));
    let ln_rate = crate::theorem1::ln_convergence_rate(params);
    let ln_phi = ln_phi_pi_norm_bound(params)?;
    // Mirror WalkBoundParams::ln_lower_tail but keep the stationary mean
    // in log space (it can underflow f64 at huge Δ).
    let exponent = -delta2 * delta2 * ln_rate.exp() * t as f64 / (72.0 * tau as f64);
    // When the rate underflows, exponent is −0.0 and the bound is
    // trivially ≥ 1 — still correct, just vacuous.
    Ok(ln_phi + exponent)
}

/// Builds the Ineq.-(47) parameters as a reusable
/// [`WalkBoundParams`] with an explicit `‖φ‖_π` supplied by the caller
/// (e.g. `1.0` for a stationary start). Proposition 1's worst-case
/// norm is intentionally *not* defaulted here: `min π_{F‖P}` involves
/// `p^{µn(Δ+1)}`, which overflows `exp` for essentially all parameters
/// — use [`ln_lower_tail_bound`] for the worst-case-start bound.
///
/// # Errors
///
/// Propagates parameter validation; fails if the stationary mean
/// underflows to zero (use the log-space functions then).
pub fn walk_bound_params(
    params: &ProtocolParams,
    t: u64,
    phi_pi_norm: f64,
) -> Result<WalkBoundParams> {
    let mean = crate::theorem1::ln_convergence_rate(params).exp();
    if mean == 0.0 {
        return Err(crate::Error::invalid(
            "params",
            "stationary mean underflows f64; use ln_lower_tail_bound",
        ));
    }
    Ok(WalkBoundParams {
        steps: t,
        stationary_mean: mean,
        mixing_time_eighth: mixing_time_surrogate(params),
        phi_pi_norm,
    })
}

/// Explicit construction of `C_{F‖P}` for *tiny* parameters, used to
/// verify Eq. (40) / Appendix J mechanically: the state space is
/// `Suffix-Set × Detailed-State-Set^{Δ+1}` with detailed states
/// `{N, H₁, …, H_{µn}}`, so it only fits in memory for small `µn` and
/// `Δ` — exactly what a numerical proof of the product form needs.
pub mod explicit {
    use crate::{Error, Result};
    use markov::chain::{MarkovChain, MarkovChainBuilder};
    use nakamoto_sim::events::SuffixState;
    use probability::binomial::Binomial;

    /// The explicitly enumerated chain plus its state decoding.
    #[derive(Debug, Clone)]
    pub struct ExplicitChain {
        /// The transition structure.
        pub chain: MarkovChain,
        /// Number of suffix states (`2Δ+1`).
        pub n_suffix: usize,
        /// Number of detailed states (`µn + 1`).
        pub n_detail: usize,
        /// Window length (`Δ + 1`).
        pub window: usize,
        /// Detailed-state probabilities `P[s]` (index 0 = N, `h` = `H_h`).
        pub detail_probs: Vec<f64>,
        /// Δ used to build the chain.
        pub delta: u64,
    }

    impl ExplicitChain {
        /// Flat index of `(suffix, window of detailed states)`.
        #[must_use]
        pub fn encode(&self, suffix: usize, window: &[usize]) -> usize {
            assert_eq!(window.len(), self.window);
            let mut idx = suffix;
            for &d in window {
                idx = idx * self.n_detail + d;
            }
            idx
        }

        /// Inverse of [`ExplicitChain::encode`].
        #[must_use]
        pub fn decode(&self, mut index: usize) -> (usize, Vec<usize>) {
            let mut window = vec![0usize; self.window];
            for slot in (0..self.window).rev() {
                window[slot] = index % self.n_detail;
                index /= self.n_detail;
            }
            (index, window)
        }

        /// The product-form stationary probability of Eq. (40):
        /// `π_F(f)·Π P[s⁽ⁱ⁾]`.
        #[must_use]
        // detlint: allow(xref-item-used) -- Eq. (40)
        pub fn product_form(&self, pi_f: &[f64], index: usize) -> f64 {
            let (suffix, window) = self.decode(index);
            let mut p = pi_f[suffix];
            for &d in &window {
                p *= self.detail_probs[d];
            }
            p
        }
    }

    /// Builds `C_{F‖P}` for an integer honest population `mu_n`,
    /// hardness `p` and delay `delta`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the state space exceeds
    /// 100 000 states or a parameter is out of range.
    pub fn build(mu_n: u64, p: f64, delta: u64) -> Result<ExplicitChain> {
        if delta == 0 {
            return Err(Error::invalid("delta", "Δ must be at least 1"));
        }
        let n_suffix = SuffixState::count(delta);
        let n_detail = mu_n as usize + 1;
        let window = delta as usize + 1;
        let n_states = n_suffix
            .checked_mul(n_detail.checked_pow(window as u32).ok_or_else(too_big)?)
            .ok_or_else(too_big)?;
        if n_states > 100_000 {
            return Err(too_big());
        }
        let binom = Binomial::new(mu_n, p).map_err(Error::from)?;
        let detail_probs: Vec<f64> = (0..=mu_n).map(|h| binom.pmf(h)).collect();

        let proto = ExplicitChain {
            chain: MarkovChain::from_rows(vec![vec![1.0]]).expect("placeholder"), // detlint: allow(panic-expect) -- a literal 1x1 row [1.0] is always row-stochastic
            n_suffix,
            n_detail,
            window,
            detail_probs: detail_probs.clone(),
            delta,
        };

        let mut b = MarkovChainBuilder::new(n_states);
        for state in 0..n_states {
            let (suffix, win) = proto.decode(state);
            // The suffix absorbs the oldest window entry.
            let absorbed_is_h = win[0] >= 1;
            let new_suffix = step_suffix(suffix, absorbed_is_h, delta);
            for (new_detail, &prob) in detail_probs.iter().enumerate() {
                if prob == 0.0 {
                    continue;
                }
                let mut new_win = Vec::with_capacity(window);
                new_win.extend_from_slice(&win[1..]); // detlint: allow(panic-slice-index) -- decode always yields exactly `window` >= 1 entries
                new_win.push(new_detail);
                let target = proto.encode(new_suffix, &new_win);
                b.add(state, target, prob).map_err(Error::from)?;
            }
        }
        let chain = b.build().map_err(Error::from)?;
        Ok(ExplicitChain { chain, ..proto })
    }

    fn too_big() -> Error {
        Error::invalid(
            "delta",
            "explicit C_{F‖P} limited to ≤ 1e5 states; use the product form beyond",
        )
    }

    /// One step of the `C_F` transition given whether the absorbed
    /// round was `H` (mirrors `nakamoto_sim::events::SuffixTracker`).
    fn step_suffix(suffix: usize, is_h: bool, delta: u64) -> usize {
        let s = SuffixState::from_index(suffix, delta);
        let next = match (s, is_h) {
            (SuffixState::RecentH, true) => SuffixState::RecentH,
            (SuffixState::RecentH, false) => {
                if delta >= 2 {
                    SuffixState::ShortGap(1)
                } else {
                    SuffixState::LongGap
                }
            }
            (SuffixState::ShortGap(_), true) => SuffixState::RecentH,
            (SuffixState::ShortGap(a), false) => {
                if a < delta - 1 {
                    SuffixState::ShortGap(a + 1)
                } else {
                    SuffixState::LongGap
                }
            }
            (SuffixState::LongGap, false) => SuffixState::LongGap,
            (SuffixState::LongGap, true) => SuffixState::AfterLongGap(0),
            (SuffixState::AfterLongGap(_), true) => SuffixState::RecentH,
            (SuffixState::AfterLongGap(b), false) => {
                if b < delta - 1 {
                    SuffixState::AfterLongGap(b + 1)
                } else {
                    SuffixState::LongGap
                }
            }
        };
        next.index(delta)
    }
}

#[cfg(test)]
mod explicit_tests {
    use super::explicit;
    use crate::suffix_chain;
    use markov::stationary::{stationarity_residual, stationary_gth};
    use markov::structure::is_ergodic;
    use nakamoto_sim::events::SuffixState;

    impl explicit::ExplicitChain {
        /// Flat index of the convergence-opportunity state
        /// `HN^{≥Δ}‖H₁N^Δ`.
        fn convergence_state(&self) -> usize {
            let suffix = SuffixState::LongGap.index(self.delta);
            let mut window = vec![0usize; self.window];
            window[0] = 1; // H₁ at the front of the window, then N^Δ.
            self.encode(suffix, &window)
        }
    }

    /// Appendix J, numerically: the stationary distribution of the
    /// explicitly built C_{F‖P} equals the product form of Eq. (40).
    #[test]
    fn eq_40_product_form_is_stationary() {
        // µn = 2, p = 0.2, Δ = 1 → 3·3² = 27 states.
        let (mu_n, p, delta) = (2u64, 0.2f64, 1u64);
        let ec = explicit::build(mu_n, p, delta).unwrap();
        assert!(is_ergodic(&ec.chain));
        let alpha = 1.0 - (1.0 - p).powi(mu_n as i32);
        let pi_f = suffix_chain::closed_form_stationary(alpha, delta).unwrap();
        let product: Vec<f64> = (0..ec.chain.n_states())
            .map(|s| ec.product_form(&pi_f, s))
            .collect();
        // Product form sums to 1 and is stationary for the chain.
        let total: f64 = product.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "Σ = {total}");
        assert!(
            stationarity_residual(&ec.chain, &product) < 1e-13,
            "residual {}",
            stationarity_residual(&ec.chain, &product)
        );
        // And matches the generic solver.
        let numeric = stationary_gth(&ec.chain).unwrap();
        for (a, b) in numeric.iter().zip(product.iter()) {
            assert!((a - b).abs() < 1e-11, "{a} vs {b}");
        }
    }

    /// Eq. (44) read directly off the explicit chain: the stationary
    /// mass of the HN^{≥Δ}‖H₁N^Δ vertex equals ᾱ^{2Δ}α₁.
    #[test]
    fn eq_44_on_explicit_chain() {
        let (mu_n, p, delta) = (3u64, 0.15f64, 2u64);
        let ec = explicit::build(mu_n, p, delta).unwrap();
        let numeric = stationary_gth(&ec.chain).unwrap();
        let conv = ec.convergence_state();
        let alpha_bar = (1.0 - p).powi(mu_n as i32);
        let alpha1 = mu_n as f64 * p * (1.0 - p).powi(mu_n as i32 - 1);
        let expected = alpha_bar.powi(2 * delta as i32) * alpha1;
        assert!(
            (numeric[conv] - expected).abs() < 1e-12,
            "π = {} vs ᾱ^{{2Δ}}α₁ = {expected}",
            numeric[conv]
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ec = explicit::build(2, 0.3, 1).unwrap();
        for s in 0..ec.chain.n_states() {
            let (suffix, window) = ec.decode(s);
            assert_eq!(ec.encode(suffix, &window), s);
        }
    }

    #[test]
    fn rejects_oversized_state_space() {
        assert!(explicit::build(50, 0.1, 4).is_err());
        assert!(explicit::build(2, 0.1, 0).is_err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProtocolParams;

    /// Rounds `T` needed for Ineq. (47)'s bound to drop below `target`,
    /// using the mixing-time surrogate; `None` when the rate underflows so
    /// badly that no finite `T` fits in `u64`.
    fn rounds_for_tail_target(params: &ProtocolParams, delta2: f64, target_ln: f64) -> Option<u64> {
        let tau = mixing_time_surrogate(params);
        let ln_rate = crate::theorem1::ln_convergence_rate(params);
        let rate = ln_rate.exp();
        if rate <= 0.0 {
            return None;
        }
        let ln_phi = ln_phi_pi_norm_bound(params).ok()?;
        let needed = (ln_phi - target_ln) * 72.0 * tau as f64 / (delta2 * delta2 * rate);
        if needed > u64::MAX as f64 {
            None
        } else {
            Some(needed.ceil().max(1.0) as u64)
        }
    }

    fn small() -> ProtocolParams {
        ProtocolParams::new(100, 3, 1e-3, 0.2).unwrap()
    }

    #[test]
    fn eq_44_two_derivations_agree() {
        // Eq. (44) via the chain decomposition must equal Theorem 1's
        // direct ᾱ^{2Δ}α₁.
        for params in [
            small(),
            ProtocolParams::from_c(100_000, 10_000_000_000_000, 3.0, 0.3).unwrap(),
            ProtocolParams::new(1_000, 64, 1e-6, 0.45).unwrap(),
        ] {
            let via_chain = ln_convergence_state_probability(&params).unwrap();
            let direct = crate::theorem1::ln_convergence_rate(&params);
            assert!(
                (via_chain - direct).abs() < 1e-9 * (1.0 + direct.abs()),
                "chain {via_chain} vs direct {direct}"
            );
        }
    }

    #[test]
    fn min_detailed_state_is_truly_minimal() {
        // Compare against the explicit detailed-state distribution at an
        // integer µn: P[H_h] = C(µn,h)p^h(1-p)^{µn-h} plus P[N].
        let params = small(); // µn = 80
        let mu_n = params.mu_n() as u64;
        let d = probability::binomial::Binomial::new(mu_n, params.p()).unwrap();
        let mut min_p = d.prob_zero(); // P[N] = P[X=0]
        for h in 1..=mu_n {
            let mass = d.pmf(h);
            if mass > 0.0 {
                min_p = min_p.min(mass);
            }
        }
        let ln_formula = ln_min_detailed_state_probability(&params);
        // Formula is a lower bound (p^{µn} ≤ rarest achievable mass).
        assert!(
            ln_formula <= min_p.ln() + 1e-9,
            "formula {ln_formula} vs empirical {}",
            min_p.ln()
        );
    }

    #[test]
    fn min_pi_below_convergence_state() {
        let params = small();
        let min_pi = ln_min_pi(&params).unwrap();
        let conv = ln_convergence_state_probability(&params).unwrap();
        assert!(min_pi <= conv, "min π must lower-bound every state");
    }

    #[test]
    fn phi_norm_bound_at_least_one() {
        let params = small();
        let ln_phi = ln_phi_pi_norm_bound(&params).unwrap();
        assert!(ln_phi >= 0.0, "‖φ‖_π ≥ 1 always");
    }

    #[test]
    fn tail_bound_decays_with_t() {
        let params = small();
        let b1 = ln_lower_tail_bound(&params, 100_000, 0.5, None).unwrap();
        let b2 = ln_lower_tail_bound(&params, 1_000_000, 0.5, None).unwrap();
        assert!(b2 < b1, "bound must tighten with T: {b1} vs {b2}");
    }

    #[test]
    fn tail_bound_respects_tau_override() {
        let params = small();
        let loose = ln_lower_tail_bound(&params, 500_000, 0.5, Some(10_000)).unwrap();
        let tight = ln_lower_tail_bound(&params, 500_000, 0.5, Some(10)).unwrap();
        assert!(tight < loose);
    }

    #[test]
    fn rounds_for_target_achieves_target() {
        let params = small();
        let target_ln = (1e-6f64).ln();
        let t = rounds_for_tail_target(&params, 0.5, target_ln).unwrap();
        let achieved = ln_lower_tail_bound(&params, t, 0.5, None).unwrap();
        assert!(
            achieved <= target_ln + 1e-6,
            "achieved {achieved} vs {target_ln}"
        );
    }

    #[test]
    fn walk_bound_params_roundtrip() {
        // With a stationary start (‖φ‖_π = 1) the struct's bound must
        // match the log-space formula minus the worst-case φ term.
        let params = small();
        let wb = walk_bound_params(&params, 250_000, 1.0).unwrap();
        wb.validate().unwrap();
        let via_struct = wb.ln_lower_tail(0.5).unwrap();
        let via_fn = ln_lower_tail_bound(&params, 250_000, 0.5, Some(wb.mixing_time_eighth))
            .unwrap()
            - ln_phi_pi_norm_bound(&params).unwrap();
        assert!(
            (via_struct - via_fn).abs() < 1e-9 * (1.0 + via_fn.abs()),
            "{via_struct} vs {via_fn}"
        );
    }

    #[test]
    fn walk_bound_params_rejects_underflow_regime() {
        let params = ProtocolParams::new(100_000, 10_000_000_000_000, 1e-12, 0.3).unwrap();
        assert!(walk_bound_params(&params, 100, 1.0).is_err());
        // But the log-space path still works.
        assert!(ln_lower_tail_bound(&params, 100, 0.5, None).is_ok());
    }

    #[test]
    fn delta2_validation() {
        let params = small();
        assert!(ln_lower_tail_bound(&params, 100, 0.0, None).is_err());
        assert!(ln_lower_tail_bound(&params, 100, 1.0, None).is_err());
    }

    #[test]
    fn mixing_surrogate_scales_with_delta_and_alpha() {
        let fast = ProtocolParams::new(100, 2, 1e-2, 0.2).unwrap();
        let slow = ProtocolParams::new(100, 2, 1e-5, 0.2).unwrap();
        assert!(mixing_time_surrogate(&slow) > mixing_time_surrogate(&fast));
        let small_d = ProtocolParams::new(100, 2, 1e-3, 0.2).unwrap();
        let big_d = ProtocolParams::new(100, 50, 1e-3, 0.2).unwrap();
        assert!(mixing_time_surrogate(&big_d) > mixing_time_surrogate(&small_d));
    }
}
