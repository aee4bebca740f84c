//! The suffix-of-previous-and-current-states Markov chain `C_F`
//! (paper Fig. 2), built explicitly as a [`markov::chain::MarkovChain`]
//! on `2Δ+1` states, together with its closed-form stationary
//! distribution (Eqs. 37a–37d).
//!
//! State indexing matches
//! [`nakamoto_sim::events::SuffixState`]: `0 = HN^{≤Δ−1}H`,
//! `a ∈ 1..Δ = HN^{≤Δ−1}HN^a`, `Δ = HN^{≥Δ}`,
//! `Δ+1+b = HN^{≥Δ}HN^b`.

use crate::{Error, Result};
use markov::chain::{MarkovChain, MarkovChainBuilder};
use nakamoto_sim::events::SuffixState;

/// Validates the chain inputs: per-round honest success probability
/// `alpha ∈ (0, 1)` and `Δ ≥ 1`.
fn validate(alpha: f64, delta: u64) -> Result<()> {
    if !(alpha > 0.0 && alpha < 1.0) || alpha.is_nan() {
        return Err(Error::invalid(
            "alpha",
            format!("α must lie in (0, 1), got {alpha}"),
        ));
    }
    if delta == 0 {
        return Err(Error::invalid("delta", "Δ must be at least 1"));
    }
    Ok(())
}

/// Builds `C_F` for honest-success probability `alpha` and delay `delta`.
///
/// Transition rules (paper's ①–④ in Section V-A): every state moves to
/// `HN^{≤Δ−1}H` on `H` except `HN^{≥Δ}` (which moves to
/// `HN^{≥Δ}HN⁰`), and every state moves one `N` deeper on `N`, spilling
/// into `HN^{≥Δ}` once Δ consecutive `N`s accumulate.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for out-of-range inputs. Chains
/// at `Δ` beyond ~10⁶ states are rejected as a resource guard.
pub fn build_chain(alpha: f64, delta: u64) -> Result<MarkovChain> {
    validate(alpha, delta)?;
    if delta > 500_000 {
        return Err(Error::invalid(
            "delta",
            format!("explicit chain limited to Δ ≤ 5·10⁵ (2Δ+1 states), got {delta}"),
        ));
    }
    let n_states = SuffixState::count(delta);
    let alpha_bar = 1.0 - alpha;
    let mut b = MarkovChainBuilder::new(n_states);
    let idx = |s: SuffixState| s.index(delta);

    let on_n_from_recent = if delta >= 2 {
        idx(SuffixState::ShortGap(1))
    } else {
        idx(SuffixState::LongGap)
    };
    // ③ / ①: HN^{≤Δ−1}H.
    b.add(idx(SuffixState::RecentH), idx(SuffixState::RecentH), alpha)
        .map_err(Error::from)?;
    b.add(idx(SuffixState::RecentH), on_n_from_recent, alpha_bar)
        .map_err(Error::from)?;
    // ①: short-gap arms.
    for a in 1..delta {
        let from = idx(SuffixState::ShortGap(a));
        b.add(from, idx(SuffixState::RecentH), alpha)
            .map_err(Error::from)?;
        let to = if a < delta - 1 {
            idx(SuffixState::ShortGap(a + 1))
        } else {
            idx(SuffixState::LongGap)
        };
        b.add(from, to, alpha_bar).map_err(Error::from)?;
    }
    // ④: HN^{≥Δ}.
    b.add(
        idx(SuffixState::LongGap),
        idx(SuffixState::AfterLongGap(0)),
        alpha,
    )
    .map_err(Error::from)?;
    b.add(
        idx(SuffixState::LongGap),
        idx(SuffixState::LongGap),
        alpha_bar,
    )
    .map_err(Error::from)?;
    // ②: after-long-gap arms.
    for arm in 0..delta {
        let from = idx(SuffixState::AfterLongGap(arm));
        b.add(from, idx(SuffixState::RecentH), alpha)
            .map_err(Error::from)?;
        let to = if arm < delta - 1 {
            idx(SuffixState::AfterLongGap(arm + 1))
        } else {
            idx(SuffixState::LongGap)
        };
        b.add(from, to, alpha_bar).map_err(Error::from)?;
    }
    b.build().map_err(Error::from)
}

/// The closed-form stationary distribution of `C_F` (Eqs. 37a–37d):
///
/// ```text
/// π(HN^{≤Δ−1}H)    = α(1−ᾱ^Δ)          (37a)
/// π(HN^{≤Δ−1}HN^a) = α(1−ᾱ^Δ)·ᾱ^a      (37b)
/// π(HN^{≥Δ})       = ᾱ^Δ               (37c)
/// π(HN^{≥Δ}HN^b)   = α·ᾱ^{Δ+b}         (37d)
/// ```
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for out-of-range inputs.
pub fn closed_form_stationary(alpha: f64, delta: u64) -> Result<Vec<f64>> {
    validate(alpha, delta)?;
    let alpha_bar = 1.0 - alpha;
    let d = delta as usize;
    let ln_ab = alpha_bar.ln();
    let ab_pow = |k: u64| (k as f64 * ln_ab).exp();
    let one_minus_ab_delta = -((delta as f64) * ln_ab).exp_m1();
    let mut pi = vec![0.0; SuffixState::count(delta)];
    pi[SuffixState::RecentH.index(delta)] = alpha * one_minus_ab_delta;
    for a in 1..delta {
        pi[SuffixState::ShortGap(a).index(delta)] = alpha * one_minus_ab_delta * ab_pow(a);
    }
    pi[SuffixState::LongGap.index(delta)] = ab_pow(delta);
    for b in 0..delta {
        pi[SuffixState::AfterLongGap(b).index(delta)] = alpha * ab_pow(delta + b);
    }
    debug_assert_eq!(pi.len(), 2 * d + 1);
    Ok(pi)
}

/// `min_v π_F(v)` (Eq. 99 in Appendix A):
/// `α·ᾱ^{Δ−1}·min{1−ᾱ^Δ, ᾱ^Δ}`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for out-of-range inputs.
// detlint: allow(xref-item-used) -- Eq. (99)
pub fn min_stationary(alpha: f64, delta: u64) -> Result<f64> {
    Ok(ln_min_stationary(alpha, delta)?.exp())
}

/// Log-space version of [`min_stationary`], exact at `Δ = 10¹³`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for out-of-range inputs.
pub fn ln_min_stationary(alpha: f64, delta: u64) -> Result<f64> {
    validate(alpha, delta)?;
    let ln_ab = (-alpha).ln_1p();
    let ln_ab_delta = delta as f64 * ln_ab;
    // ln(1 − ᾱ^Δ), stable in both regimes.
    let ln_one_minus = probability::special::ln_1m_exp(ln_ab_delta);
    Ok(alpha.ln() + (delta as f64 - 1.0) * ln_ab + ln_one_minus.min(ln_ab_delta))
}

/// The stationary probability of the `HN^{≥Δ}` state (Eq. 37c) in log
/// space: `Δ·ln ᾱ`. This is the `π_F(HN^{≥Δ})` factor of Eq. (44).
pub fn ln_long_gap_probability(alpha: f64, delta: u64) -> Result<f64> {
    validate(alpha, delta)?;
    Ok(delta as f64 * (-alpha).ln_1p())
}

#[cfg(test)]
mod tests {
    use super::*;
    use markov::stationary::{stationarity_residual, stationary_gth};
    use markov::structure;

    #[test]
    fn chain_is_ergodic() {
        for &delta in &[1u64, 2, 5, 16] {
            let chain = build_chain(0.3, delta).unwrap();
            assert_eq!(chain.n_states(), 2 * delta as usize + 1);
            assert!(structure::is_irreducible(&chain), "Δ={delta}");
            assert!(structure::is_ergodic(&chain), "Δ={delta}");
        }
    }

    #[test]
    fn closed_form_sums_to_one() {
        for &delta in &[1u64, 2, 8, 64, 1024] {
            for &alpha in &[1e-6, 0.01, 0.3, 0.9, 1.0 - 1e-9] {
                let pi = closed_form_stationary(alpha, delta).unwrap();
                let total = pi
                    .iter()
                    .copied()
                    .collect::<probability::summation::NeumaierSum>()
                    .value();
                assert!(
                    (total - 1.0).abs() < 1e-12,
                    "Δ={delta}, α={alpha}: Σπ = {total}"
                );
                assert!(pi.iter().all(|&x| x >= 0.0));
            }
        }
    }

    #[test]
    fn closed_form_matches_gth_numerically() {
        // The paper's Eq. (37) must agree with the generic solver on the
        // explicitly built chain — the strongest check that both the
        // chain construction and the closed form transcribe Fig. 2
        // correctly.
        for &delta in &[1u64, 2, 3, 8, 32] {
            for &alpha in &[0.05, 0.3, 0.7] {
                let chain = build_chain(alpha, delta).unwrap();
                let numeric = stationary_gth(&chain).unwrap();
                let closed = closed_form_stationary(alpha, delta).unwrap();
                for (i, (a, b)) in numeric.iter().zip(closed.iter()).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-12 * (1.0 + a.abs()),
                        "Δ={delta}, α={alpha}, state {i}: gth {a} vs closed {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_is_stationary_for_chain() {
        let alpha = 0.2;
        let delta = 6;
        let chain = build_chain(alpha, delta).unwrap();
        let pi = closed_form_stationary(alpha, delta).unwrap();
        assert!(stationarity_residual(&chain, &pi) < 1e-14);
    }

    #[test]
    fn min_stationary_matches_vector_minimum() {
        for &delta in &[1u64, 4, 16] {
            for &alpha in &[0.05, 0.5, 0.95] {
                let pi = closed_form_stationary(alpha, delta).unwrap();
                let vec_min = pi.iter().copied().fold(f64::INFINITY, f64::min);
                let formula = min_stationary(alpha, delta).unwrap();
                assert!(
                    (vec_min - formula).abs() < 1e-14 * (1.0 + vec_min),
                    "Δ={delta}, α={alpha}: {vec_min} vs {formula}"
                );
            }
        }
    }

    #[test]
    fn ln_min_stationary_survives_figure1_scale() {
        let v = ln_min_stationary(1e-14, 10_000_000_000_000).unwrap();
        assert!(v.is_finite());
        assert!(v < 0.0);
    }

    #[test]
    fn long_gap_probability_eq_37c() {
        let alpha = 0.25f64;
        let delta = 7u64;
        let pi = closed_form_stationary(alpha, delta).unwrap();
        let ln_pl = ln_long_gap_probability(alpha, delta).unwrap();
        let from_vec = pi[nakamoto_sim::events::SuffixState::LongGap.index(delta)];
        assert!((ln_pl.exp() - from_vec).abs() < 1e-14);
        assert!((ln_pl.exp() - (1.0 - alpha).powi(7)).abs() < 1e-14);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(build_chain(0.0, 4).is_err());
        assert!(build_chain(1.0, 4).is_err());
        assert!(build_chain(0.5, 0).is_err());
        assert!(build_chain(0.5, 1_000_000).is_err());
        assert!(closed_form_stationary(-0.1, 4).is_err());
        assert!(min_stationary(0.5, 0).is_err());
    }

    #[test]
    fn empirical_occupancy_matches_closed_form() {
        // Random-walk the explicit chain and compare occupancy to π.
        use crate::walk::RandomWalk;
        use probability::rng::Xoshiro256PlusPlus;
        let alpha = 0.3;
        let delta = 3;
        let chain = build_chain(alpha, delta).unwrap();
        let pi = closed_form_stationary(alpha, delta).unwrap();
        let rng = Xoshiro256PlusPlus::seed_from_u64(13);
        let mut walk = RandomWalk::new(&chain, 0, rng);
        let t = 400_000;
        let occ = walk.occupancy(t);
        for (s, (&count, &expected)) in occ.iter().zip(pi.iter()).enumerate() {
            let freq = count as f64 / t as f64;
            assert!(
                (freq - expected).abs() < 0.01,
                "state {s}: freq {freq} vs π {expected}"
            );
        }
    }
}
