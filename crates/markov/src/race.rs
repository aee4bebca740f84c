//! The private-chain race, written once: the effective adversarial
//! share, the uncapped catch-up power `ρ^d`, and the exact capped race.
//!
//! The paper reduces a `T`-consistency violation to the adversary's
//! private chain catching up a deficit of `T` blocks while each new
//! block extends the adversary's chain with probability `q` and the
//! honest chain with probability `1 − q`. On the integer lattice of
//! the adversary's *deficit* this is a birth–death walk: from deficit
//! `d` the race moves to `d − 1` with probability `q` and to `d + 1`
//! with probability `1 − q`. Deficit `0` — the adversary has caught up
//! and can rewrite depth `T` — is absorbing, and this module caps the
//! walk at a second absorbing deficit `cap`. The capped race is the
//! two-barrier gambler's ruin (Feller, vol. 1, ch. XIV), so
//! [`violation_probability`] evaluates its closed form in `O(1)`.
//!
//! Capping truncates probability mass: a race that reaches `cap` is
//! declared safe, while on the infinite walk it could still catch up
//! later. The omitted mass is provably small — from deficit `cap` the
//! infinite-walk catch-up probability is at most
//! `min(1, (q/(1−q))^cap)` (the gambler's-ruin tail; see
//! [`escape_tail_bound`]) — so every exact answer here carries a
//! rigorous [`ExactRace::truncation_error`] rather than a heuristic
//! "cap was probably large enough".

use crate::{Error, Result};

/// Largest admissible state cap. The closed form costs the same at
/// every cap; this ceiling fixes the exact backend's accepted threshold
/// range at `[1, MAX_CAP − 64]` (`nakamoto_sim::exact::MAX_THRESHOLD`).
pub const MAX_CAP: u64 = 1024;

/// One exact race analysis: the truncated violation probability plus a
/// provable bound on what the truncation can hide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactRace {
    /// The consistency depth `T` the race starts behind.
    pub threshold: u64,
    /// The deficit at which the capped race is declared safe.
    pub cap: u64,
    /// Exact probability, on the capped race, that the deficit is
    /// absorbed at 0 (a `T`-consistency violation).
    pub probability: f64,
    /// Rigorous upper bound on `p_infinite − probability`: the capped
    /// race only *under*-counts violations, and by at most this much.
    pub truncation_error: f64,
}

/// The effective adversarial block share of the Δ-delay race,
/// `q_eff = pνn / (pνn + ᾱ^{2Δ}α₁)`: the adversary's block rate against
/// the convergence-opportunity rate (the ratio the paper's Lemma 1
/// implies), with Theorem 1's `ᾱ = (1−p)^{µn}` and
/// `α₁ = pµn·(1−p)^{µn−1}` evaluated in log space (Eqs. 27 and 44).
///
/// Returns `None` outside the race analysis: an adversary-free
/// baseline (`ν ≤ 0`) or a convergence rate that underflows to zero.
#[must_use]
pub fn effective_share(n: u64, nu: f64, p: f64, delta: u64) -> Option<f64> {
    if nu <= 0.0 {
        return None;
    }
    let n = n as f64;
    let mu_n = (1.0 - nu) * n;
    let nu_n = nu * n;
    let ln_alpha_bar = mu_n * (-p).ln_1p();
    let ln_alpha1 = (p * mu_n).ln() + (mu_n - 1.0) * (-p).ln_1p();
    let ln_conv = 2.0 * delta as f64 * ln_alpha_bar + ln_alpha1;
    let adv = p * nu_n;
    let conv = ln_conv.exp();
    if conv == 0.0 {
        return None;
    }
    Some(adv / (adv + conv))
}

/// `ρ^d` with `ρ = q/(1−q)`: for `q < ½`, the probability that the
/// uncapped race ever catches up a deficit of `d` blocks (Nakamoto's
/// `(q/p)^z`). Deep deficits underflow to `0`, never to `NaN`.
#[must_use]
pub fn rho_pow(q: f64, d: u64) -> f64 {
    (q / (1.0 - q)).powi(i32::try_from(d).unwrap_or(i32::MAX))
}

/// Upper bound on the infinite-walk catch-up probability from a
/// deficit of `d` blocks: `min(1, ρ^d)`.
///
/// For `q < ½` this is the exact gambler's-ruin limit [`rho_pow`]; for
/// `q ≥ ½` the adversary eventually catches up with probability one
/// and the bound degrades to the trivial `1`, so the bound is valid
/// for every `q ∈ (0, 1)`.
#[must_use]
pub fn escape_tail_bound(q: f64, d: u64) -> f64 {
    if q >= 0.5 {
        1.0
    } else {
        rho_pow(q, d)
    }
}

/// Solves the capped race exactly: the probability that, starting `T`
/// blocks behind, the adversary's deficit hits `0` before `cap`,
/// together with the provable truncation error.
///
/// With `L = ln ρ`, the answer is `ρ^T·expm1((cap−T)·L)/expm1(cap·L)`.
/// For `L > 0` the reflected form `expm1(−(cap−T)·L)/expm1(−cap·L)`
/// is used, so no exponential overflows, and at `L = 0` it is
/// `(cap−T)/cap`. The truncation error is `P[hit cap first] ·
/// escape_tail_bound(q, cap)`: decomposing the infinite race at the
/// first exit of `(0, cap)` gives `p_∞ = p_capped + P[hit cap first] ·
/// p_∞(cap)`, and [`escape_tail_bound`] dominates `p_∞(cap)`. The
/// escape probability is evaluated in the same form, not as `1 − p`,
/// so it keeps full relative precision when it is tiny.
///
/// # Errors
///
/// [`Error::BadShape`] when `q ∉ (0, 1)`, `threshold` is 0, or
/// `cap ≤ threshold` / `cap > MAX_CAP`.
///
/// ```
/// use markov::race::violation_probability;
///
/// // 30% effective adversary, depth 6, cap far beyond the threshold:
/// // the capped answer matches the closed form (3/7)^6 tightly.
/// let race = violation_probability(0.3, 6, 70)?;
/// let closed = (0.3f64 / 0.7).powi(6);
/// assert!((race.probability - closed).abs() <= race.truncation_error + 1e-15);
/// assert!(race.truncation_error < 1e-20);
/// # Ok::<(), markov::Error>(())
/// ```
pub fn violation_probability(q: f64, threshold: u64, cap: u64) -> Result<ExactRace> {
    if threshold == 0 {
        return Err(Error::BadShape {
            message: "race threshold must be at least 1".into(),
        });
    }
    if cap <= threshold {
        return Err(Error::BadShape {
            message: format!("race cap {cap} must exceed the threshold {threshold}"),
        });
    }
    if !q.is_finite() || q <= 0.0 || q >= 1.0 {
        return Err(Error::BadShape {
            message: format!("race share q = {q} must lie strictly inside (0, 1)"),
        });
    }
    if cap > MAX_CAP {
        return Err(Error::BadShape {
            message: format!("race cap {cap} must not exceed {MAX_CAP}"),
        });
    }
    let ln_rho = (q / (1.0 - q)).ln();
    let (t, h) = (threshold as f64, cap as f64);
    let (probability, escaped) = if ln_rho < 0.0 {
        let total = (h * ln_rho).exp_m1();
        (
            rho_pow(q, threshold) * ((h - t) * ln_rho).exp_m1() / total,
            (t * ln_rho).exp_m1() / total,
        )
    } else if ln_rho > 0.0 {
        let total = (-h * ln_rho).exp_m1();
        (
            (-(h - t) * ln_rho).exp_m1() / total,
            (-(h - t) * ln_rho).exp() * (-t * ln_rho).exp_m1() / total,
        )
    } else {
        ((h - t) / h, t / h)
    };
    Ok(ExactRace {
        threshold,
        cap,
        probability,
        truncation_error: escaped * escape_tail_bound(q, cap),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absorption;
    use crate::chain::{MarkovChain, MarkovChainBuilder};

    /// The capped race as a dense chain: states `{0, …, cap}` are the
    /// adversary's deficit, `0` and `cap` are absorbing, and every
    /// interior deficit `d` steps to `d − 1` with probability `q` and
    /// `d + 1` with probability `1 − q`.
    fn race_chain(q: f64, cap: u64) -> MarkovChain {
        let h = usize::try_from(cap).unwrap();
        let mut b = MarkovChainBuilder::new(h + 1);
        b.add(0, 0, 1.0).unwrap();
        b.add(h, h, 1.0).unwrap();
        for d in 1..h {
            b.add(d, d - 1, q).unwrap();
            b.add(d, d + 1, 1.0 - q).unwrap();
        }
        b.build().unwrap()
    }

    /// The oracle: the capped race solved by the generic absorbing-chain
    /// machinery, `(P[hit 0 first], P[hit cap first])` from deficit `t`.
    fn dense_race(q: f64, t: u64, cap: u64) -> (f64, f64) {
        let analysis = absorption::analyze(&race_chain(q, cap)).unwrap();
        let (t, cap) = (t as usize, cap as usize);
        (analysis.probability(t, 0), analysis.probability(t, cap))
    }

    /// The closed form against the dense solve over sub-, near- and
    /// super-critical shares, shallow and deep thresholds, and caps from
    /// one step past the threshold to `MAX_CAP`. `1 − 7.8e-9` is the
    /// small-`c` edge of the committed exact grids, where a one-sided
    /// form overflows `exp(cap·L)`. The dense truncation mass is not an
    /// oracle there: it reports rounding noise (~5e-26) for an escape
    /// probability below 1e-800.
    ///
    /// Each share is snapped to `1 − (1 − q)`, whose complement is
    /// exact, so the dense chain's rows sum to exactly 1. Unsnapped,
    /// `q + fl(1 − q) ≠ 1` leaks ~1e-17 per step, and over the ~5·10⁴
    /// expected steps at `q = ½ − 1e-9`, cap 1024, that moves the dense
    /// answer by 1.7e-12; the closed form stays within 6e-15 of a
    /// 60-digit reference there.
    #[test]
    fn matches_gamblers_ruin_closed_form() {
        let shares = [
            1e-12,
            0.1,
            0.3,
            0.5 - 1e-9,
            0.5,
            0.5 + 1e-9,
            0.75,
            1.0 - 7.8e-9,
        ];
        for q in shares {
            let q = 1.0 - (1.0 - q);
            for t in [1u64, 6, 48] {
                for cap in [t + 1, t + 64, MAX_CAP] {
                    let race = violation_probability(q, t, cap).unwrap();
                    let (p, err) = (race.probability, race.truncation_error);
                    let at = format!("q={q} T={t} cap={cap}");
                    assert!((0.0..=1.0).contains(&p), "{at}: probability {p}");
                    assert!((0.0..=1.0).contains(&err), "{at}: truncation {err}");
                    let (dense, _) = dense_race(q, t, cap);
                    if dense > 1e-290 {
                        assert!(
                            (p - dense).abs() <= 1e-12 * dense,
                            "{at}: closed form {p:e} vs dense solve {dense:e}"
                        );
                    }
                    // The bracket contains the uncapped answer, up to
                    // the rounding of the sum p + truncation_error.
                    let p_inf = rho_pow(q, t).min(1.0);
                    assert!(p <= p_inf, "{at}: {p:e} above p_inf {p_inf:e}");
                    assert!(
                        p_inf <= (p + err) * (1.0 + 1e-12),
                        "{at}: p_inf {p_inf:e} above the bracket {:e}",
                        p + err
                    );
                }
            }
        }
    }

    #[test]
    fn escaped_mass_matches_the_dense_solve_where_it_is_resolvable() {
        for (q, t, cap) in [(0.3, 6, 12), (0.45, 3, 40), (0.6, 2, 9), (0.75, 1, 2)] {
            let race = violation_probability(q, t, cap).unwrap();
            let (_, escaped) = dense_race(q, t, cap);
            let bound = escaped * escape_tail_bound(q, cap);
            assert!(
                (race.truncation_error - bound).abs() <= 1e-12 * bound,
                "q={q} T={t} cap={cap}: {} vs {bound}",
                race.truncation_error
            );
        }
    }

    #[test]
    fn converges_to_the_infinite_closed_form_within_the_bound() {
        let q = 0.3_f64;
        let z = 4;
        let p_inf = (q / (1.0 - q)).powi(z as i32);
        for cap in [6, 10, 20, 60] {
            let race = violation_probability(q, z, cap).unwrap();
            assert!(
                race.probability <= p_inf + 1e-15,
                "truncation only under-counts"
            );
            assert!(
                p_inf - race.probability <= race.truncation_error + 1e-15,
                "cap {cap}: gap {} exceeds the reported bound {}",
                p_inf - race.probability,
                race.truncation_error
            );
        }
    }

    #[test]
    fn truncation_error_vanishes_with_the_cap() {
        let loose = violation_probability(0.25, 5, 10).unwrap();
        let tight = violation_probability(0.25, 5, 80).unwrap();
        assert!(tight.truncation_error < loose.truncation_error);
        assert!(tight.truncation_error < 1e-30);
    }

    #[test]
    fn supercritical_share_reports_the_trivial_tail() {
        // q ≥ ½: the adversary wins the infinite race almost surely, so
        // the bound cannot do better than the full escaped mass.
        let race = violation_probability(0.6, 3, 12).unwrap();
        assert_eq!(escape_tail_bound(0.6, 12), 1.0);
        let escaped = 1.0 - race.probability; // birth–death: all mass absorbs
        assert!((race.truncation_error - escaped).abs() < 1e-12);
        let hi = (race.probability + race.truncation_error).min(1.0);
        assert!(
            race.probability <= 1.0 && (hi - 1.0).abs() < 1e-12,
            "p_∞ = 1 is bracketed"
        );
    }

    #[test]
    fn tail_bound_is_monotone_and_log_space_safe() {
        assert!(escape_tail_bound(0.2, 5) > escape_tail_bound(0.2, 10));
        assert_eq!(escape_tail_bound(0.5, 7), 1.0);
        // Deep deficits underflow to exactly zero instead of NaN.
        let deep = escape_tail_bound(0.01, 1000);
        assert!((0.0..1e-300).contains(&deep));
    }

    #[test]
    fn effective_share_is_the_rate_ratio() {
        // n = 100, ν = 0.2, p = 1e-3, Δ = 2: direct powers agree with
        // the log-space evaluation.
        let (mu_n, p) = (80.0_f64, 1e-3_f64);
        let conv = (1.0 - p).powf(4.0 * mu_n) * p * mu_n * (1.0 - p).powf(mu_n - 1.0);
        let adv = p * 20.0;
        let q = effective_share(100, 0.2, p, 2).unwrap();
        assert!((q - adv / (adv + conv)).abs() < 1e-12 * q);
        assert!(effective_share(100, 0.0, p, 2).is_none());
        assert!(
            effective_share(100, 0.2, 0.5, 1 << 40).is_none(),
            "underflow"
        );
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(matches!(
            violation_probability(0.0, 3, 10),
            Err(Error::BadShape { .. })
        ));
        assert!(matches!(
            violation_probability(1.0, 3, 10),
            Err(Error::BadShape { .. })
        ));
        assert!(matches!(
            violation_probability(f64::NAN, 3, 10),
            Err(Error::BadShape { .. })
        ));
        assert!(matches!(
            violation_probability(0.3, 0, 10),
            Err(Error::BadShape { .. })
        ));
        assert!(matches!(
            violation_probability(0.3, 10, 10),
            Err(Error::BadShape { .. })
        ));
        assert!(matches!(
            violation_probability(0.3, 3, MAX_CAP + 1),
            Err(Error::BadShape { .. })
        ));
    }

    #[test]
    fn chain_is_the_expected_birth_death_structure() {
        let chain = race_chain(0.3, 5);
        assert_eq!(chain.n_states(), 6);
        assert_eq!(chain.prob(0, 0), 1.0);
        assert_eq!(chain.prob(5, 5), 1.0);
        assert!((chain.prob(2, 1) - 0.3).abs() < 1e-15);
        assert!((chain.prob(2, 3) - 0.7).abs() < 1e-15);
        assert_eq!(chain.prob(2, 2), 0.0);
    }
}
