//! Monte-Carlo validation of the paper's expectation identities against
//! the protocol simulator:
//!
//! * Eq. (26): `E[C(t₀,t₀+T−1)] = T·ᾱ^{2Δ}α₁`,
//! * Eq. (27): `E[A(t₀,t₀+T−1)] = T·p·ν·n`,
//! * Eqs. (37a–d): empirical suffix-state occupancy vs. closed form.

use crate::params::ProtocolParams;
use crate::suffix_chain;
use crate::Result;
use nakamoto_sim::adversary::ImmediateReleaseAdversary;
use nakamoto_sim::execution::run_simulation;
use nakamoto_sim::metrics::SimReport;
use nakamoto_sim::montecarlo::TrialPlan;

/// Outcome of one validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationRow {
    /// Parameters used.
    pub params: ProtocolParams,
    /// Rounds simulated.
    pub rounds: u64,
    /// Analytic `E[C] = T·ᾱ^{2Δ}α₁` (Eq. 26). The analytic rate uses
    /// the *simulator's* integer honest count, so small-n rounding of
    /// `µn` does not contaminate the comparison.
    pub expected_convergence: f64,
    /// Measured convergence opportunities.
    pub measured_convergence: u64,
    /// Analytic `E[A] = T·p·νn` (Eq. 27), integer adversary count.
    pub expected_adversary: f64,
    /// Measured adversary blocks.
    pub measured_adversary: u64,
    /// Closed-form suffix stationary distribution (Eq. 37).
    pub expected_suffix: Vec<f64>,
    /// Empirical suffix distribution from the run.
    pub measured_suffix: Vec<f64>,
    /// The full simulator report.
    pub report: SimReport,
}

impl ValidationRow {
    /// Relative error of the convergence count vs. Eq. (26).
    #[must_use]
    pub fn convergence_rel_error(&self) -> f64 {
        (self.measured_convergence as f64 - self.expected_convergence).abs()
            / self.expected_convergence.max(1.0)
    }

    /// Relative error of the adversary count vs. Eq. (27).
    #[must_use]
    pub fn adversary_rel_error(&self) -> f64 {
        (self.measured_adversary as f64 - self.expected_adversary).abs()
            / self.expected_adversary.max(1.0)
    }

    /// Largest absolute gap between measured and closed-form suffix
    /// occupancy.
    pub fn suffix_max_abs_error(&self) -> f64 {
        self.expected_suffix
            .iter()
            .zip(self.measured_suffix.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// The Eq. 26/27 expectations recomputed with the *simulator's* integer
/// miner counts (`n_honest = n − round(νn)`), matching what the oracle
/// actually samples — shared by the single-run and multi-trial paths so
/// the two can never drift.
struct IntegerPopulationExpectations {
    /// `α` for the integer honest population.
    alpha: f64,
    /// `E[C] = T·ᾱ^{2Δ}α₁` (Eq. 26).
    expected_convergence: f64,
    /// `E[A] = T·p·νn` (Eq. 27).
    expected_adversary: f64,
}

fn integer_population_expectations(
    params: &ProtocolParams,
    cfg: &nakamoto_sim::config::SimConfig,
    rounds: u64,
) -> IntegerPopulationExpectations {
    let n_honest = cfg.n_honest();
    let n_adv = cfg.n_adversary();
    let p = params.p();
    let ln_alpha_bar = n_honest as f64 * (-p).ln_1p();
    let alpha = -ln_alpha_bar.exp_m1();
    let ln_alpha1 = (p * n_honest as f64).ln() + (n_honest as f64 - 1.0) * (-p).ln_1p();
    let ln_rate = 2.0 * params.delta() as f64 * ln_alpha_bar + ln_alpha1;
    IntegerPopulationExpectations {
        alpha,
        expected_convergence: rounds as f64 * ln_rate.exp(),
        expected_adversary: rounds as f64 * p * n_adv as f64,
    }
}

/// Runs the simulator with an honestly-behaving adversary and compares
/// measured counts against the analytic identities.
///
/// # Errors
///
/// Propagates parameter validation failures.
pub fn validate(params: &ProtocolParams, rounds: u64, seed: u64) -> Result<ValidationRow> {
    let cfg = params.to_sim_config(seed);
    let report = run_simulation(cfg, ImmediateReleaseAdversary::new(), rounds);

    let IntegerPopulationExpectations {
        alpha,
        expected_convergence,
        expected_adversary,
    } = integer_population_expectations(params, &cfg, rounds);

    let expected_suffix = suffix_chain::closed_form_stationary(alpha, params.delta())?;
    let measured_suffix: Vec<f64> = if report.suffix_rounds > 0 {
        report
            .suffix_occupancy
            .iter()
            .map(|&x| x as f64 / report.suffix_rounds as f64)
            .collect()
    } else {
        vec![0.0; expected_suffix.len()]
    };

    Ok(ValidationRow {
        params: *params,
        rounds,
        expected_convergence,
        measured_convergence: report.convergence_opportunities,
        expected_adversary,
        measured_adversary: report.adversary_blocks,
        expected_suffix,
        measured_suffix,
        report,
    })
}

/// Multi-trial validation: Eq. 26/27 expectations against the mean of
/// independent Monte-Carlo trials, with a standard error that makes
/// "is the gap just noise?" quantitative.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialValidationRow {
    /// Parameters used.
    pub params: ProtocolParams,
    /// Rounds per trial.
    pub rounds: u64,
    /// Number of trials.
    pub trials: u64,
    /// Analytic `E[C]` per trial (Eq. 26).
    pub expected_convergence: f64,
    /// Mean measured convergence opportunities per trial.
    pub mean_convergence: f64,
    /// Standard error of the per-trial convergence mean.
    pub sem_convergence: f64,
    /// Analytic `E[A]` per trial (Eq. 27).
    pub expected_adversary: f64,
    /// Mean measured adversary blocks per trial.
    pub mean_adversary: f64,
    /// Standard error of the per-trial adversary mean.
    pub sem_adversary: f64,
}

impl TrialValidationRow {
    /// Relative error of the mean convergence count vs. Eq. (26).
    #[must_use]
    pub fn convergence_rel_error(&self) -> f64 {
        (self.mean_convergence - self.expected_convergence).abs()
            / self.expected_convergence.max(1.0)
    }

    /// Relative error of the mean adversary count vs. Eq. (27).
    #[must_use]
    pub fn adversary_rel_error(&self) -> f64 {
        (self.mean_adversary - self.expected_adversary).abs() / self.expected_adversary.max(1.0)
    }

    /// Gap between the convergence mean and Eq. 26 in standard errors.
    #[must_use]
    pub fn convergence_z_score(&self) -> f64 {
        (self.mean_convergence - self.expected_convergence) / self.sem_convergence.max(1e-12)
    }
}

/// Mean and standard error of per-trial counts via the workspace's
/// Welford accumulator (SEM is 0 for a single trial, where the sample
/// variance is undefined).
fn mean_and_sem(counts: &[u64]) -> (f64, f64) {
    let mut moments = probability::summation::RunningMoments::new();
    for &c in counts {
        moments.push(c as f64);
    }
    let sem = if moments.count() < 2 {
        0.0
    } else {
        moments.standard_error()
    };
    (moments.mean(), sem)
}

/// Runs `trials` parallel honest-baseline simulations and compares the
/// per-trial means of `C` and `A` against Eqs. 26/27.
///
/// `seed` is the master seed of the trial fan-out (disjoint
/// `jump()`-derived streams per trial; results are independent of the
/// machine's thread count).
///
/// # Errors
///
/// Propagates parameter validation failures.
pub fn validate_trials(
    params: &ProtocolParams,
    rounds: u64,
    trials: u64,
    seed: u64,
) -> Result<TrialValidationRow> {
    let cfg = params.to_sim_config(seed);
    let run = TrialPlan::new(cfg, rounds, trials)
        .map_err(|e| crate::Error::invalid("trials", e.to_string()))?
        .run(|_| ImmediateReleaseAdversary::new());

    let IntegerPopulationExpectations {
        expected_convergence,
        expected_adversary,
        ..
    } = integer_population_expectations(params, &cfg, rounds);

    let (mean_convergence, sem_convergence) = mean_and_sem(&run.aggregate.convergence_counts);
    let (mean_adversary, sem_adversary) = mean_and_sem(&run.aggregate.adversary_counts);
    Ok(TrialValidationRow {
        params: *params,
        rounds,
        trials,
        expected_convergence,
        mean_convergence,
        sem_convergence,
        expected_adversary,
        mean_adversary,
        sem_adversary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A configuration where convergence opportunities are frequent:
    /// α ≈ 0.09, Δ = 2.
    fn fast_params() -> ProtocolParams {
        ProtocolParams::new(100, 2, 1e-3, 0.2).unwrap()
    }

    #[test]
    fn multi_trial_validation_tightens_on_expectations() {
        let params = fast_params();
        let row = validate_trials(&params, 150_000, 8, 99).unwrap();
        assert_eq!(row.trials, 8);
        assert!(
            row.convergence_rel_error() < 0.1,
            "Eq. 26 multi-trial: mean {} vs expected {}",
            row.mean_convergence,
            row.expected_convergence
        );
        assert!(
            row.adversary_rel_error() < 0.05,
            "Eq. 27 multi-trial: mean {} vs expected {}",
            row.mean_adversary,
            row.expected_adversary
        );
        assert!(row.sem_convergence > 0.0);
        // The mean should sit within ~4 standard errors of the theory.
        assert!(
            row.convergence_z_score().abs() < 4.0,
            "z = {}",
            row.convergence_z_score()
        );
    }

    #[test]
    fn multi_trial_deterministic_given_seed() {
        let params = fast_params();
        let a = validate_trials(&params, 20_000, 4, 5).unwrap();
        let b = validate_trials(&params, 20_000, 4, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn eq_26_and_27_validated_by_simulation() {
        let params = fast_params();
        let rounds = 600_000;
        let row = validate(&params, rounds, 1234).unwrap();
        assert!(
            row.expected_convergence > 500.0,
            "test needs a frequent pattern, got E[C] = {}",
            row.expected_convergence
        );
        assert!(
            row.convergence_rel_error() < 0.1,
            "Eq. 26: measured {} vs expected {}",
            row.measured_convergence,
            row.expected_convergence
        );
        assert!(
            row.adversary_rel_error() < 0.05,
            "Eq. 27: measured {} vs expected {}",
            row.measured_adversary,
            row.expected_adversary
        );
    }

    #[test]
    fn eq_37_suffix_occupancy_validated() {
        let params = fast_params();
        let row = validate(&params, 400_000, 77).unwrap();
        assert!(
            row.suffix_max_abs_error() < 0.01,
            "Eq. 37: max abs error {}",
            row.suffix_max_abs_error()
        );
        // Distributions both sum to 1.
        let sum: f64 = row.measured_suffix.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let params = fast_params();
        let a = validate(&params, 50_000, 5).unwrap();
        let b = validate(&params, 50_000, 5).unwrap();
        assert_eq!(a.measured_convergence, b.measured_convergence);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn delta_one_edge_case() {
        let params = ProtocolParams::new(50, 1, 2e-3, 0.1).unwrap();
        let row = validate(&params, 300_000, 9).unwrap();
        assert!(
            row.convergence_rel_error() < 0.1,
            "Δ=1: rel err {}",
            row.convergence_rel_error()
        );
    }
}
