//! The exact `markov` backend of the spec-driven experiment layer.
//!
//! Instead of sampling trials, this backend models the stationary
//! private-chain cell as the capped race of [`markov::race`]: each new
//! block extends the adversary's private chain with the *effective*
//! adversarial share [`markov::race::effective_share`] and the honest
//! chain otherwise. A `T`-consistency failure is the race reaching
//! deficit 0, solved in closed form on a race capped at
//! `max(T) + RACE_CAP_MARGIN`, and every answer carries the race
//! module's provable truncation-error bound — the capped race
//! under-counts the infinite one by at most that much. The answer is
//! the race-model probability: it does not depend on the spec's
//! `rounds`.

use crate::config::{ConfigError, SimConfig};
use markov::race;

/// How far past the largest threshold the race's safe-side absorbing
/// barrier sits. In any consistent regime (`q_eff` well below ½) the
/// omitted tail `(q/(1−q))^cap` at 64 extra states is far below `f64`
/// resolution, so the default cap never dominates an answer.
pub const RACE_CAP_MARGIN: u64 = 64;

/// Largest threshold the exact backend accepts: the cap must stay
/// within [`markov::race::MAX_CAP`] after adding [`RACE_CAP_MARGIN`].
pub const MAX_THRESHOLD: u64 = race::MAX_CAP - RACE_CAP_MARGIN;

/// One threshold's exact answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactEstimate {
    /// The consistency threshold `T`.
    pub threshold: u64,
    /// Exact `T`-violation probability on the capped race.
    pub probability: f64,
    /// Provable upper bound on the violation mass the cap truncates
    /// away (the un-truncated probability lies in
    /// `[probability, probability + truncation_error]`).
    pub truncation_error: f64,
}

/// Result of one exact-backend cell: per-threshold answers plus the
/// race parameters they were computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactRun {
    /// The effective adversarial share the race ran at.
    pub q: f64,
    /// The capped race's safe-side absorbing deficit.
    pub cap: u64,
    /// Per-threshold answers, in the spec's threshold order.
    pub estimates: Vec<ExactEstimate>,
}

impl ExactRun {
    /// The estimate for one threshold, if the run computed it.
    #[must_use]
    pub fn estimate_at(&self, threshold: u64) -> Option<&ExactEstimate> {
        self.estimates.iter().find(|e| e.threshold == threshold)
    }
}

/// A validated, runnable exact-backend cell (the `markov` analogue of
/// [`TrialPlan`]).
///
/// [`TrialPlan`]: crate::montecarlo::TrialPlan
#[derive(Debug, Clone, PartialEq)]
pub struct ExactPlan {
    /// The configuration the plan was built from.
    pub config: SimConfig,
    /// The effective adversarial share `q_eff`.
    pub q: f64,
    /// The race's cap (`max(thresholds) + RACE_CAP_MARGIN`).
    pub cap: u64,
    /// Thresholds to answer, in spec order.
    pub thresholds: Vec<u64>,
    /// The spec's stationary horizon, carried for uniform reporting
    /// (the exact answer itself is horizon-free).
    pub rounds: u64,
}

impl ExactPlan {
    /// Builds a validated exact plan.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an invalid configuration, a
    /// configuration outside the race analysis (`ν = 0` or a
    /// convergence-rate underflow — see [`race::effective_share`]),
    /// no thresholds, or a threshold outside `[1, MAX_THRESHOLD]`.
    pub fn new(config: SimConfig, thresholds: Vec<u64>, rounds: u64) -> Result<Self, ConfigError> {
        config.validate()?;
        let q = race::effective_share(
            config.n_miners,
            config.adversary_fraction,
            config.hardness,
            config.delta,
        )
        .ok_or_else(|| {
            ConfigError::new(
                "the markov backend needs an adversary inside the race analysis \
                 (ν > 0 and a non-underflowing convergence rate)",
            )
        })?;
        if thresholds.is_empty() {
            return Err(ConfigError::new(
                "the markov backend needs at least one consistency threshold",
            ));
        }
        let max_t = *thresholds.iter().max().expect("non-empty"); // detlint: allow(panic-expect) -- emptiness rejected two lines above
        if thresholds.contains(&0) || max_t > MAX_THRESHOLD {
            return Err(ConfigError::new(format!(
                "markov-backend thresholds must lie in [1, {MAX_THRESHOLD}]"
            )));
        }
        Ok(ExactPlan {
            config,
            q,
            cap: max_t + RACE_CAP_MARGIN,
            thresholds,
            rounds,
        })
    }

    /// Solves every threshold exactly on the capped race.
    ///
    /// # Panics
    ///
    /// Panics only if the race solve fails for inputs
    /// [`ExactPlan::new`] validated — a programming error, not a data
    /// error.
    #[must_use]
    pub fn run(&self) -> ExactRun {
        let estimates = self
            .thresholds
            .iter()
            .map(|&threshold| {
                let race = race::violation_probability(self.q, threshold, self.cap)
                    .expect("ExactPlan::new validated the race inputs"); // detlint: allow(panic-expect) -- new() checked q ∈ (0, 1) and thresholds within the cap range
                ExactEstimate {
                    threshold,
                    probability: race.probability,
                    truncation_error: race.truncation_error,
                }
            })
            .collect();
        ExactRun {
            q: self.q,
            cap: self.cap,
            estimates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consistent_config() -> SimConfig {
        SimConfig::from_c(100, 4, 3.0, 0.15, 7).unwrap()
    }

    #[test]
    fn effective_share_is_subcritical_in_the_consistent_region() {
        let q = ExactPlan::new(consistent_config(), vec![6], 1000)
            .unwrap()
            .q;
        assert!(q > 0.0 && q < 0.5, "q_eff = {q}");
    }

    #[test]
    fn effective_share_is_none_without_an_adversary() {
        let cfg = SimConfig::from_c(100, 4, 3.0, 0.0, 7).unwrap();
        assert!(race::effective_share(cfg.n_miners, 0.0, cfg.hardness, cfg.delta).is_none());
        assert!(ExactPlan::new(cfg, vec![6], 1000).is_err());
    }

    #[test]
    fn exact_run_matches_the_race_module_directly() {
        let plan = ExactPlan::new(consistent_config(), vec![6, 12], 1000).unwrap();
        let run = plan.run();
        assert_eq!(run.cap, 12 + RACE_CAP_MARGIN);
        for estimate in &run.estimates {
            let race = race::violation_probability(plan.q, estimate.threshold, plan.cap).unwrap();
            assert_eq!(estimate.probability, race.probability);
            assert_eq!(estimate.truncation_error, race.truncation_error);
        }
        let e6 = run.estimate_at(6).unwrap();
        let e12 = run.estimate_at(12).unwrap();
        assert!(e6.probability > e12.probability && e12.probability > 0.0);
        assert!(run.estimate_at(7).is_none());
    }

    #[test]
    fn exact_answers_track_the_closed_form_race_scale() {
        // In the consistent region the capped answer must sit within
        // its truncation bound of the closed form (q/(1−q))^T.
        let plan = ExactPlan::new(consistent_config(), vec![8], 1000).unwrap();
        let run = plan.run();
        let e = run.estimate_at(8).unwrap();
        let closed = (plan.q / (1.0 - plan.q)).powi(8);
        assert!(e.probability <= closed + 1e-18);
        assert!(closed - e.probability <= e.truncation_error + 1e-18);
    }

    #[test]
    fn rejects_out_of_range_plans() {
        let cfg = consistent_config();
        assert!(ExactPlan::new(cfg, Vec::new(), 10).is_err());
        assert!(ExactPlan::new(cfg, vec![0], 10).is_err());
        assert!(ExactPlan::new(cfg, vec![MAX_THRESHOLD + 1], 10).is_err());
        let baseline = SimConfig::from_c(100, 4, 3.0, 0.0, 7).unwrap();
        assert!(ExactPlan::new(baseline, vec![6], 10).is_err());
    }

    #[test]
    fn deterministic_across_runs() {
        let plan = ExactPlan::new(consistent_config(), vec![6, 12], 1000).unwrap();
        let a = plan.run();
        let b = plan.run();
        assert_eq!(a.estimates, b.estimates);
    }
}
