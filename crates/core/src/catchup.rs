//! Catch-up analysis of the private-chain race: the probability that an
//! adversary starting `z` blocks behind ever overtakes the honest
//! chain, and the confirmation depths that make double-spends unlikely.
//!
//! This quantifies the attack side of the paper's Figure 1: the
//! consistency bound guarantees convergence opportunities outpace
//! adversary blocks; when they do not, the adversary wins this race.
//! The closed form is Nakamoto's `(q/p)^z` random-walk result; the race
//! itself, capped or not, lives in [`markov::race`].

use crate::{Error, Result};
use markov::race;

/// Probability that the adversary, currently `z` blocks behind, ever
/// catches up, when each next block is adversarial with probability
/// `q` and honest with `1 − q` (`q < ½`): `(q/(1−q))^z`
/// ([`race::rho_pow`]).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] unless `0 < q < ½`.
///
/// ```
/// use consistency_core::catchup::catchup_probability;
/// let p = catchup_probability(0.3, 6)?;
/// assert!((p - (0.3f64 / 0.7).powi(6)).abs() < 1e-15);
/// # Ok::<(), consistency_core::Error>(())
/// ```
pub fn catchup_probability(q: f64, z: u32) -> Result<f64> {
    validate_q(q)?;
    Ok(race::rho_pow(q, u64::from(z)))
}

/// Smallest confirmation depth `z` with catch-up probability at most
/// `target` — the "how many confirmations" question.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] unless `0 < q < ½` and
/// `0 < target < 1`.
pub fn confirmations_for_risk(q: f64, target: f64) -> Result<u32> {
    validate_q(q)?;
    if !(target > 0.0 && target < 1.0) {
        return Err(Error::invalid(
            "target",
            format!("must lie in (0, 1), got {target}"),
        ));
    }
    let per_block = (q / (1.0 - q)).ln();
    debug_assert!(per_block < 0.0);
    Ok((target.ln() / per_block).ceil().max(1.0) as u32)
}

/// The effective adversarial block share in the Δ-delay model,
/// `q_eff = pνn / (pνn + ᾱ^{2Δ}α₁)` ([`race::effective_share`]): honest
/// blocks only contribute to the race when they arrive in convergence-
/// opportunity-like slots, so the race ratio the paper's Lemma 1
/// implies is adversary rate vs convergence-opportunity rate.
///
/// Returns `None` when the convergence rate underflows relative to the
/// adversary rate (race hopeless for honest parties).
#[must_use]
pub fn effective_adversary_share(params: &crate::params::ProtocolParams) -> Option<f64> {
    race::effective_share(params.n(), params.nu(), params.p(), params.delta())
}

fn validate_q(q: f64) -> Result<()> {
    if !(q > 0.0 && q < 0.5) || q.is_nan() {
        return Err(Error::invalid(
            "q",
            format!("adversary share must lie in (0, 1/2), got {q}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProtocolParams;

    #[test]
    fn closed_form_matches_nakamoto_table() {
        // Nakamoto §11: q = 0.1, z = 5 → ≈ 0.0000169 per the pure
        // random-walk term (q/p)^z.
        let p = catchup_probability(0.1, 5).unwrap();
        assert!((p - (1.0f64 / 9.0).powi(5)).abs() < 1e-12);
        assert!(p < 2e-5 && p > 1e-5);
    }

    /// The race of `markov::race` from deficit `z`, capped at `h`.
    fn capped(q: f64, z: u32, h: u32) -> f64 {
        race::violation_probability(q, u64::from(z), u64::from(h))
            .unwrap()
            .probability
    }

    #[test]
    fn markov_truncation_converges_to_closed_form() {
        for &q in &[0.1, 0.3, 0.45] {
            for z in [1u32, 3, 6] {
                let closed = catchup_probability(q, z).unwrap();
                let coarse = capped(q, z, z + 10);
                let fine = capped(q, z, z + 80);
                // Absorbing truncation underestimates, and refining the
                // horizon shrinks the error.
                assert!(coarse <= closed + 1e-12, "q={q}, z={z}");
                assert!(
                    (fine - closed).abs() <= (coarse - closed).abs() + 1e-12,
                    "q={q}, z={z}"
                );
                assert!(
                    (fine - closed).abs() < 1e-6,
                    "q={q}, z={z}: fine {fine} vs closed {closed}"
                );
            }
        }
    }

    #[test]
    fn markov_matches_gamblers_ruin_closed_form() {
        // At finite horizon the truncated probability IS the gambler's
        // ruin formula: (r^{h−z} − 1)/(r^h − 1) with r = (1−q)/q.
        let q = 0.35f64;
        let r = (1.0 - q) / q;
        for (z, h) in [(2u32, 7u32), (3, 12), (5, 9)] {
            let expected = (r.powi((h - z) as i32) - 1.0) / (r.powi(h as i32) - 1.0);
            let got = capped(q, z, h);
            assert!(
                (got - expected).abs() < 1e-10,
                "z={z}, h={h}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn markov_validation_rejects_bad_inputs() {
        assert!(race::violation_probability(0.3, 0, 10).is_err());
        assert!(race::violation_probability(0.3, 10, 10).is_err());
        assert!(race::violation_probability(0.3, 11, 10).is_err());
        assert!(catchup_probability(0.6, 1).is_err());
        assert!(catchup_probability(0.0, 1).is_err());
    }

    #[test]
    fn confirmations_monotone_in_adversary_share() {
        let weak = confirmations_for_risk(0.1, 1e-3).unwrap();
        let strong = confirmations_for_risk(0.4, 1e-3).unwrap();
        assert!(strong > weak, "{strong} vs {weak}");
        // And in the target.
        let lax = confirmations_for_risk(0.3, 1e-2).unwrap();
        let strict = confirmations_for_risk(0.3, 1e-6).unwrap();
        assert!(strict > lax);
    }

    #[test]
    fn confirmations_achieve_their_target() {
        for &q in &[0.1, 0.25, 0.45] {
            for &target in &[1e-2, 1e-4, 1e-8] {
                let z = confirmations_for_risk(q, target).unwrap();
                assert!(catchup_probability(q, z).unwrap() <= target);
                if z > 1 {
                    assert!(catchup_probability(q, z - 1).unwrap() > target);
                }
            }
        }
    }

    #[test]
    fn effective_share_tracks_theorem1_margin() {
        // Below the neat bound the effective share exceeds 1/2 (the
        // adversary wins the race); above it, it is below 1/2.
        let nu = 0.3;
        let neat = crate::theorem2::neat_bound(nu);
        let good = ProtocolParams::from_c(1_000, 8, neat * 2.0, nu).unwrap();
        let bad = ProtocolParams::from_c(1_000, 8, neat * 0.4, nu).unwrap();
        assert!(effective_adversary_share(&good).unwrap() < 0.5);
        assert!(effective_adversary_share(&bad).unwrap() > 0.5);
    }
}
