//! The analytic entry point of the spec-driven experiment layer: maps
//! a simulator configuration (the `[base]` of an experiment spec) to
//! the paper's theorem-1/2/3 predictions, so every simulated cell can
//! carry its analytic bound alongside the empirical Wilson interval.
//!
//! The paper's central empirical claim is that the Monte-Carlo failure
//! rates respect the analytic consistency region; this module packages
//! the region's three descriptions — Theorem 1's margin
//! `ln(ᾱ^{2Δ}α₁) − ln(pνn)`, Theorem 2's neat bound `c > 2µ/ln(µ/ν)`,
//! and Theorem 3's split conditions — into one [`AnalyticBounds`]
//! record that the `experiment` harness attaches to each cell. The
//! record places the cell's parameter point in that region; it grades
//! no estimate, because a sampled cell counts `T`-violations within its
//! own `rounds` under its own strategy, a question none of the three
//! answers.
//!
//! # Example
//!
//! ```
//! use consistency_core::analytic;
//! use nakamoto_sim::config::SimConfig;
//!
//! let cfg = SimConfig::from_c(100, 4, 3.0, 0.2, 7)?;
//! let bounds = analytic::for_sim_config(&cfg).expect("ν > 0");
//! assert!(bounds.theorem1_holds, "c = 3 at ν = 0.2 is consistent");
//! let (e_c, e_a) = bounds.expected_counts(10_000);
//! assert!(e_c > e_a, "more convergence opportunities than adversary blocks");
//! # Ok::<(), nakamoto_sim::config::ConfigError>(())
//! ```

use crate::params::ProtocolParams;
use crate::{numax, pss, theorem1, theorem2, theorem3};
use nakamoto_sim::config::SimConfig;

/// Reference `(ε₁, ε₂)` used for the Theorem-3 split-condition check
/// (the same pair `lemma_audit` exercises); Theorem 3 holding at one
/// valid ε-pair is sufficient for consistency.
pub const THEOREM3_EPSILONS: (f64, f64) = (0.1, 0.1);

/// The paper's predictions for one parameter point, attached to every
/// simulated cell by the spec-driven `experiment` harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticBounds {
    /// The validated parameters the bounds were computed from.
    pub params: ProtocolParams,
    /// The paper's `c = 1/(pnΔ)`.
    pub c: f64,
    /// Theorem 1's log margin `ln(ᾱ^{2Δ}α₁) − ln(pνn)` (Ineq. 10).
    pub theorem1_ln_margin: f64,
    /// Whether Theorem 1 holds for *some* positive `δ₁` (margin > 0).
    pub theorem1_holds: bool,
    /// The largest admissible `δ₁`, when the margin is positive.
    pub theorem1_max_delta1: Option<f64>,
    /// Per-round convergence-opportunity rate `ᾱ^{2Δ}α₁` in log space
    /// (Eq. 44; may be far below `f64` range in linear space).
    pub ln_convergence_rate: f64,
    /// Per-round adversary block rate `pνn` (Eq. 27).
    pub adversary_rate: f64,
    /// Theorem 2's neat bound `2µ/ln(µ/ν)` on `c` (Ineq. 11).
    pub theorem2_neat_bound_c: f64,
    /// Whether `c` exceeds the neat bound.
    pub theorem2_holds: bool,
    /// Whether Theorem 3's split conditions hold at
    /// [`THEOREM3_EPSILONS`].
    pub theorem3_holds: bool,
    /// The paper's `ν_max(c)` from inverting the neat bound, when the
    /// solver converges.
    pub nu_max_c: Option<f64>,
    /// The PSS attack threshold `ν > (2c+1−√(4c²+1))/2` for the same
    /// `c` (Figure 1's red line).
    pub pss_attack_nu: f64,
}

impl AnalyticBounds {
    /// Expected convergence opportunities and adversary blocks over a
    /// `t`-round horizon: `(E[C], E[A])` of Eqs. 26–27, the pair the
    /// simulator's counters validate.
    #[must_use]
    pub fn expected_counts(&self, t: u64) -> (f64, f64) {
        (
            theorem1::expected_convergence_opportunities(&self.params, t),
            theorem1::expected_adversary_blocks(&self.params, t),
        )
    }

    /// The strongest applicable consistency verdict: `true` when any
    /// of the three theorems certifies the point.
    #[must_use]
    pub fn consistent(&self) -> bool {
        self.theorem1_holds || self.theorem2_holds || self.theorem3_holds
    }
}

/// Computes every bound for validated parameters.
#[must_use]
pub fn bounds(params: &ProtocolParams) -> AnalyticBounds {
    let ln_margin = theorem1::ln_margin(params);
    let c = params.c();
    let (eps1, eps2) = THEOREM3_EPSILONS;
    AnalyticBounds {
        params: *params,
        c,
        theorem1_ln_margin: ln_margin,
        theorem1_holds: ln_margin > 0.0,
        theorem1_max_delta1: theorem1::max_delta1(params),
        ln_convergence_rate: theorem1::ln_convergence_rate(params),
        adversary_rate: theorem1::adversary_rate(params),
        theorem2_neat_bound_c: theorem2::neat_bound(params.nu()),
        theorem2_holds: params.is_consistent_by_neat_bound(),
        theorem3_holds: theorem3::holds(params, eps1, eps2),
        nu_max_c: numax::nu_max_for_c(c).ok(),
        pss_attack_nu: pss::attack_nu_threshold(c),
    }
}

/// Maps a simulator configuration — the `[base]` of an experiment spec
/// — to the paper's bounds. Returns `None` when the configuration lies
/// outside the analysis's parameter range (the simulator additionally
/// admits `ν = 0` as an adversary-free baseline, where every bound is
/// vacuous).
#[must_use]
pub fn for_sim_config(cfg: &SimConfig) -> Option<AnalyticBounds> {
    let params = ProtocolParams::new(
        cfg.n_miners,
        cfg.delta,
        cfg.hardness,
        cfg.adversary_fraction,
    )
    .ok()?;
    Some(bounds(&params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_point_certified_by_all_bounds() {
        let cfg = SimConfig::from_c(1_000, 4, 50.0, 0.1, 0).unwrap();
        let b = for_sim_config(&cfg).unwrap();
        assert!(b.theorem1_holds && b.theorem1_ln_margin > 0.0);
        assert!(b.theorem1_max_delta1.unwrap() > 0.0);
        assert!(b.theorem2_holds && b.c > b.theorem2_neat_bound_c);
        assert!(b.theorem3_holds);
        assert!(b.consistent());
        let (e_c, e_a) = b.expected_counts(100_000);
        assert!(e_c > e_a && e_a > 0.0);
        let nu_max = b.nu_max_c.unwrap();
        assert!(
            nu_max > 0.1,
            "at c = 50 the admissible ν_max {nu_max} clears the configured ν"
        );
    }

    #[test]
    fn inconsistent_point_fails_all_bounds() {
        let cfg = SimConfig::from_c(1_000, 4, 0.2, 0.4, 0).unwrap();
        let b = for_sim_config(&cfg).unwrap();
        assert!(!b.theorem1_holds && b.theorem1_ln_margin < 0.0);
        assert!(b.theorem1_max_delta1.is_none());
        assert!(!b.theorem2_holds);
        assert!(!b.theorem3_holds);
        assert!(!b.consistent());
    }

    #[test]
    fn adversary_free_baseline_has_no_bounds() {
        let cfg = SimConfig::from_c(100, 4, 1.0, 0.0, 0).unwrap();
        assert!(for_sim_config(&cfg).is_none(), "ν = 0 is out of range");
    }

    #[test]
    fn bounds_agree_with_the_theorem_modules() {
        let params = ProtocolParams::from_c(100, 4, 2.0, 0.25).unwrap();
        let b = bounds(&params);
        assert_eq!(b.theorem1_ln_margin, theorem1::ln_margin(&params));
        assert_eq!(b.theorem2_neat_bound_c, theorem2::neat_bound(0.25));
        assert_eq!(b.adversary_rate, theorem1::adversary_rate(&params));
        assert_eq!(
            b.theorem1_holds,
            theorem1::max_delta1(&params).is_some(),
            "margin sign and max_delta1 agree"
        );
    }

    /// The Figure-1 scale must survive: log-space margins stay finite
    /// at Δ = 10¹³.
    #[test]
    fn figure1_scale_is_finite() {
        let params = ProtocolParams::from_c(100_000, 10_000_000_000_000, 3.0, 0.3).unwrap();
        let b = bounds(&params);
        assert!(b.theorem1_ln_margin.is_finite());
        assert!(b.ln_convergence_rate.is_finite());
        assert!(b.theorem1_holds, "c = 3 at ν = 0.3 is inside the region");
    }
}
