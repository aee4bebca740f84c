//! A reconstruction of the Kiffer–Rajaraman–shelat (CCS 2018)
//! Markov-chain bound, for the paper's Section-IV discussion.
//!
//! The paper reports that reference \[6\]'s computation of the expected
//! inter-arrival lengths `ℓ₁₁`/`ℓ₁₀` uses `1/(µp)` where it should use
//! `1/α = 1/(1−(1−p)^{µn})` — i.e. it conflates the *per-miner* success
//! rate `µp` with the *aggregate per-round* honest success probability
//! `α`. We expose both variants so the ablation bench can show how far
//! the erroneous rate drifts (a factor ≈ n for small `p`).
//!
//! This is a documented reconstruction, not a transcription of \[6\]
//! (whose full constants live in its own appendix); what matters for the
//! paper's argument — and what we reproduce — is the *ratio* between the
//! corrected and uncorrected interarrival estimates and the resulting
//! sufficient conditions.

use crate::params::ProtocolParams;

/// Corrected expected waiting time between `H` rounds: `1/α`.
#[must_use]
pub fn interarrival_corrected(params: &ProtocolParams) -> f64 {
    1.0 / params.alpha()
}

/// The reported-as-incorrect waiting time: `1/(µp)` (per-miner rate,
/// missing the aggregation over `n` miners).
#[must_use]
pub fn interarrival_incorrect(params: &ProtocolParams) -> f64 {
    1.0 / (params.mu() * params.p())
}

/// The ratio `incorrect / corrected = α/(µp)` — approaches `n` as
/// `p → 0` (showing the mistake is not a constant-factor slip).
#[must_use]
pub fn interarrival_error_factor(params: &ProtocolParams) -> f64 {
    interarrival_incorrect(params) / interarrival_corrected(params)
}

/// Log-margin of the Kiffer-style condition with the **incorrect**
/// interarrival: the convergence-opportunity rate against the adversary
/// rate evaluated on *per-miner* rates throughout (honest rate `µp`
/// instead of `α`, adversary rate `νp` instead of `νnp`) — the
/// systematic substitution the `1/(µp)` slip corresponds to. The
/// corrected condition's margin is [`crate::theorem1::ln_margin`]
/// (Theorem 1 at `δ₁ → 0`); the condition holds where the margin is
/// positive.
#[must_use]
pub fn ln_incorrect_margin(params: &ProtocolParams) -> f64 {
    let rate = params.mu() * params.p(); // erroneous "α" = µp
    if rate >= 1.0 {
        return f64::NEG_INFINITY;
    }
    let ln_bar = (-rate).ln_1p();
    let ln_alpha1 = rate.ln() + ln_bar; // one success then none
    let ln_conv = 2.0 * params.delta() as f64 * ln_bar + ln_alpha1;
    ln_conv - (params.p() * params.nu()).ln() // erroneous "β" = νp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProtocolParams;

    fn params() -> ProtocolParams {
        ProtocolParams::new(1_000, 8, 1e-6, 0.25).unwrap()
    }

    #[test]
    fn error_factor_approaches_n() {
        // α ≈ µnp for small p, so α/(µp) ≈ n.
        let p = params();
        let f = interarrival_error_factor(&p);
        assert!((f - 1_000.0).abs() < 5.0, "factor {f}");
    }

    #[test]
    fn incorrect_condition_is_wildly_optimistic() {
        // With the per-miner rate the "convergence rate" is far too
        // high relative to pνn/… — at parameters where the corrected
        // condition fails, the incorrect one can still pass.
        let bad = ProtocolParams::from_c(1_000, 8, 0.5, 0.4).unwrap();
        assert!(crate::theorem1::ln_margin(&bad) <= 0.0);
        assert!(
            ln_incorrect_margin(&bad) > 0.0,
            "the uncorrected bound should (wrongly) accept these parameters"
        );
    }

    #[test]
    fn both_agree_deep_inside_safe_region() {
        let safe = ProtocolParams::from_c(1_000, 8, 100.0, 0.1).unwrap();
        assert!(crate::theorem1::ln_margin(&safe) > 0.0);
        assert!(ln_incorrect_margin(&safe) > 0.0);
    }

    #[test]
    fn margins_ordered() {
        // The incorrect margin always exceeds the corrected one in the
        // small-p regime (ᾱ' ≫ ᾱ, both raised to 2Δ).
        for &c in &[0.5, 1.0, 3.0] {
            let p = ProtocolParams::from_c(1_000, 8, c, 0.3).unwrap();
            assert!(
                ln_incorrect_margin(&p) > crate::theorem1::ln_margin(&p),
                "c={c}"
            );
        }
    }
}
