//! Parallel Monte-Carlo experiment engine.
//!
//! Every empirical claim in the paper (Figure 1's attack thresholds,
//! the T-consistency failure rates, the convergence-opportunity counts)
//! rests on many independent simulation trials. This module fans those
//! trials out over the shared [`crate::executor`] pool with three
//! guarantees:
//!
//! * **Disjoint randomness** — trial `t` runs on the master generator
//!   advanced by `t` [`Xoshiro256PlusPlus::jump`]s (2¹²⁸ steps each),
//!   so trial streams can never overlap no matter how long a trial
//!   runs.
//! * **Pool-width independence** — per-trial generators are derived
//!   from the master seed alone and trial results are reduced in trial
//!   order, so [`TrialPlan::run`] returns a bit-identical
//!   [`TrialAggregate`] at every pool width (the `--jobs` flag is the
//!   only parallelism knob).
//! * **One engine** — every trial runs through the scalar
//!   [`Simulation::run`] loop; plain `std`, no rayon, no channels.
//!
//! # Example
//!
//! ```
//! use nakamoto_sim::adversary::PrivateChainAdversary;
//! use nakamoto_sim::config::SimConfig;
//! use nakamoto_sim::montecarlo::TrialPlan;
//!
//! let cfg = SimConfig::from_c(100, 4, 2.0, 0.3, 7)?; // seed 7 = master seed
//! let plan = TrialPlan::new(cfg, 5_000, 8)?.thresholds(vec![6, 12]);
//! let run = plan.run(|_trial| PrivateChainAdversary::new(4));
//! let wilson = run.aggregate.failure_interval(12, 1.96).unwrap();
//! println!(
//!     "T=12 failure rate {:.2} [{:.2}, {:.2}]",
//!     wilson.estimate, wilson.lo, wilson.hi,
//! );
//! # Ok::<(), nakamoto_sim::config::ConfigError>(())
//! ```

use crate::adversary::Adversary;
use crate::config::{ConfigError, SimConfig};
use crate::execution::Simulation;
use crate::executor::{self, TaskKind};
use crate::metrics::SimReport;
use probability::rng::Xoshiro256PlusPlus;
use std::sync::Arc;

/// Critical value used by the sequential stopping rule: the per-wave
/// Wilson half-width check runs at 95% confidence (z = 1.96), matching
/// the confidence level every reporting surface defaults to.
pub const STOP_Z: f64 = 1.96;

/// Trials per stopping-rule wave when [`TrialPlan::stop_half_width`]
/// is set. Checkpoints land on fixed trial counts (multiples of the
/// wave size), so the stopping decision is a pure function of the
/// master seed — never of pool width.
pub const STOP_CHECK_EVERY: u64 = 64;

/// A Monte-Carlo experiment: `trials` independent simulations of
/// `rounds` rounds each, all sharing one validated configuration.
///
/// `config.seed` is the *master seed*: it determines every trial's
/// random stream. The pool width affects wall-clock time only, never
/// results.
#[derive(Debug, Clone)]
pub struct TrialPlan {
    /// Shared simulation parameters; `config.seed` is the master seed.
    pub config: SimConfig,
    /// Rounds per trial.
    pub rounds: u64,
    /// Number of independent trials.
    pub trials: u64,
    /// Consistency thresholds `T` for which per-trial violation is
    /// tallied (see [`TrialAggregate::failure_counts`]).
    pub consistency_thresholds: Vec<u64>,
    /// Sequential stopping target: when set, trials run in
    /// deterministic waves of [`STOP_CHECK_EVERY`] and stop at
    /// the first wave boundary where every threshold's Wilson
    /// half-width (at [`STOP_Z`]) is at most this value — `trials`
    /// then acts as the *maximum* budget. Requires at least one
    /// consistency threshold.
    pub stop_half_width: Option<f64>,
}

impl TrialPlan {
    /// Creates a plan with no consistency thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `trials == 0` or `rounds == 0` (an
    /// empty experiment has no well-defined aggregate — a zero-trial
    /// run used to surface only much later, as an `n > 0` assertion
    /// deep inside [`WilsonInterval::new`]) or if `config` itself fails
    /// [`SimConfig::validate`].
    pub fn new(config: SimConfig, rounds: u64, trials: u64) -> Result<Self, ConfigError> {
        config.validate()?;
        if trials == 0 {
            return Err(ConfigError::new(
                "a trial plan needs at least one trial (trials = 0)",
            ));
        }
        if rounds == 0 {
            return Err(ConfigError::new(
                "a trial plan needs at least one round per trial (rounds = 0)",
            ));
        }
        Ok(TrialPlan {
            config,
            rounds,
            trials,
            consistency_thresholds: Vec::new(),
            stop_half_width: None,
        })
    }

    /// Sets the consistency thresholds to tally (builder style).
    #[must_use]
    pub fn thresholds(mut self, thresholds: Vec<u64>) -> Self {
        self.consistency_thresholds = thresholds;
        self
    }

    /// Enables the sequential stopping rule (builder style): run in
    /// deterministic waves of [`STOP_CHECK_EVERY`] trials until every
    /// threshold's Wilson half-width at [`STOP_Z`] is at most
    /// `half_width`, capped by the plan's `trials` budget.
    #[must_use]
    pub fn with_stopping(mut self, half_width: f64) -> Self {
        self.stop_half_width = Some(half_width);
        self
    }

    /// Runs `trials` independent simulations as one ordered job on the
    /// shared [`crate::executor`] pool and reduces their reports in
    /// trial order.
    ///
    /// `make_adversary` builds a fresh strategy for trial `t`; it runs
    /// on pool workers, so it must be `Send + Sync + 'static` (it is
    /// called once per trial). The job occupies up to the pool's width
    /// in slots.
    ///
    /// With [`TrialPlan::stop_half_width`] set, trials run in
    /// deterministic waves and stop at the first wave boundary meeting
    /// the target (see `run_trials_adaptive`).
    ///
    /// The returned [`TrialAggregate`] is bit-identical for a fixed
    /// `config.seed` at every pool width.
    ///
    /// # Panics
    ///
    /// Panics if the public fields were mutated into an empty
    /// experiment (`trials == 0` or `rounds == 0`) after construction —
    /// [`TrialPlan::new`] rejects those as [`ConfigError`]s; bypassing
    /// it is a programming error, not a silently-empty result. Also
    /// panics if `stop_half_width` is set without any consistency
    /// threshold or outside `(0, 1)`.
    pub fn run<A, F>(&self, make_adversary: F) -> MonteCarloRun
    where
        A: Adversary,
        F: Fn(u64) -> A + Send + Sync + 'static,
    {
        assert!(
            self.trials > 0 && self.rounds > 0,
            "empty experiment: construct plans through TrialPlan::new"
        );
        let config = self.config;
        let rounds = self.rounds;
        let run_one = Arc::new(move |trial: u64, rng: Xoshiro256PlusPlus| {
            let mut sim = Simulation::with_rng(config, make_adversary(trial), rng);
            sim.run(rounds);
            sim.report()
        });
        let reports = match self.stop_half_width {
            Some(target) => run_trials_adaptive(self, target, run_one),
            None => fan_out_reports(trial_streams(config.seed, self.trials), 0, run_one),
        };
        MonteCarloRun {
            aggregate: aggregate_reports(&reports, rounds, &self.consistency_thresholds),
        }
    }
}

/// A Wilson score interval for a binomial proportion — the right
/// confidence interval for failure *rates* near 0 or 1, where the
/// normal approximation collapses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WilsonInterval {
    /// Point estimate `x/n`.
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl WilsonInterval {
    /// Computes the interval for `successes` out of `n` at critical
    /// value `z` (1.96 ≈ 95%).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(successes: u64, n: u64, z: f64) -> Self {
        assert!(n > 0, "interval over zero observations");
        let nf = n as f64;
        let p_hat = successes as f64 / nf;
        let z2 = z * z;
        let denom = 1.0 + z2 / nf;
        let centre = p_hat + z2 / (2.0 * nf);
        let half = z * (p_hat * (1.0 - p_hat) / nf + z2 / (4.0 * nf * nf)).sqrt();
        WilsonInterval {
            estimate: p_hat,
            lo: ((centre - half) / denom).max(0.0),
            hi: ((centre + half) / denom).min(1.0),
        }
    }
}

/// Order-deterministic aggregate over all trials of a [`TrialPlan`].
///
/// Everything in here is a pure function of the master seed and the
/// plan — never of pool width or scheduling (verified by the
/// determinism tests). Wall-clock metrics live on [`MonteCarloRun`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrialAggregate {
    /// Number of trials aggregated.
    pub trials: u64,
    /// Rounds simulated per trial.
    pub rounds_per_trial: u64,
    /// Honest blocks summed over trials.
    pub total_honest_blocks: u64,
    /// Adversary blocks summed over trials.
    pub total_adversary_blocks: u64,
    /// Convergence opportunities summed over trials.
    pub total_convergence_opportunities: u64,
    /// Per-trial convergence-opportunity counts, in trial order.
    pub convergence_counts: Vec<u64>,
    /// Per-trial adversary block counts, in trial order.
    pub adversary_counts: Vec<u64>,
    /// Per-trial deepest reorg, in trial order.
    pub reorg_depths: Vec<u64>,
    /// Per-trial deepest cross-group divergence, in trial order.
    pub divergence_depths: Vec<u64>,
    /// Deepest reorg over all trials.
    pub max_reorg_depth: u64,
    /// Deepest divergence over all trials.
    pub max_divergence_depth: u64,
    /// For each plan threshold `T`, `(T, number of trials violating
    /// T-consistency)` — a violation being a reorg or divergence
    /// deeper than `T`.
    pub failure_counts: Vec<(u64, u64)>,
}

impl TrialAggregate {
    /// Mean per-trial convergence-opportunity count.
    #[must_use]
    pub fn mean_convergence(&self) -> f64 {
        self.total_convergence_opportunities as f64 / self.trials as f64
    }

    /// Mean per-trial adversary block count.
    #[must_use]
    pub fn mean_adversary(&self) -> f64 {
        self.total_adversary_blocks as f64 / self.trials as f64
    }

    /// Number of trials violating `T`-consistency, if `T` was a plan
    /// threshold.
    #[must_use]
    pub fn failures_at(&self, t: u64) -> Option<u64> {
        self.failure_counts
            .iter()
            .find(|&&(thr, _)| thr == t)
            .map(|&(_, count)| count)
    }

    /// Wilson interval for the `T`-consistency failure rate, if `T`
    /// was a plan threshold. Returns `None` for an empty (zero-trial)
    /// aggregate — an interval over zero observations is undefined, and
    /// used to panic deep inside [`WilsonInterval::new`] instead of
    /// being reported as absent.
    #[must_use]
    pub fn failure_interval(&self, t: u64, z: f64) -> Option<WilsonInterval> {
        if self.trials == 0 {
            return None;
        }
        self.failures_at(t)
            .map(|failures| WilsonInterval::new(failures, self.trials, z))
    }

    /// Half the width of the Wilson interval for the `T`-consistency
    /// failure rate at critical value `z`, if `T` was a plan threshold
    /// and the aggregate is non-empty. This is the quantity the
    /// sequential stopping rule drives to the spec's target: even at
    /// zero observed failures the Wilson upper bound stays positive,
    /// so the half-width shrinks like `z²/n` rather than collapsing to
    /// zero — a zero-failure cell still has to *earn* its precision.
    #[must_use]
    pub fn half_width(&self, t: u64, z: f64) -> Option<f64> {
        self.failure_interval(t, z).map(|w| (w.hi - w.lo) / 2.0)
    }

    /// Total rounds simulated across all trials.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.trials * self.rounds_per_trial
    }
}

/// Result of [`TrialPlan::run`]: the deterministic aggregate, a pure
/// function of the plan.
#[derive(Debug, Clone)]
pub struct MonteCarloRun {
    /// Pool-width-independent statistics.
    pub aggregate: TrialAggregate,
}

/// Derives the per-trial generators: the master stream seeded from
/// `config.seed`, advanced `t` jumps for trial `t`. Shared with the
/// splitting estimator, whose first stage must be stream-for-stream
/// identical to a plain trial fan-out.
pub(crate) fn trial_streams(master_seed: u64, trials: u64) -> Vec<Xoshiro256PlusPlus> {
    let mut stream = Xoshiro256PlusPlus::seed_from_u64(master_seed);
    let mut streams = Vec::with_capacity(trials as usize);
    for _ in 0..trials {
        streams.push(stream.clone());
        stream = stream.jump();
    }
    streams
}

/// The deterministic fan-out shared by [`TrialPlan::run`], its adaptive
/// waves, and the scenario layer's `ScenarioPlan`: runs
/// `run_one(base_trial + i, streams[i])` for every stream as one
/// ordered job on the shared [`crate::executor`] pool, at the pool's
/// width, and returns the reports **in trial order**.
///
/// The caller derives the streams from the master seed alone (trial
/// `t` runs on the master generator advanced by `t` jumps), and the
/// reduction order is the trial index, so the result is a pure
/// function of `(streams, run_one)` — never of pool width or
/// scheduling.
pub(crate) fn fan_out_reports<F>(
    streams: Vec<Xoshiro256PlusPlus>,
    base_trial: u64,
    run_one: Arc<F>,
) -> Vec<SimReport>
where
    F: Fn(u64, Xoshiro256PlusPlus) -> SimReport + Send + Sync + 'static,
{
    let trials = streams.len() as u64;
    let streams = Arc::new(streams);
    executor::run_ordered(trials, executor::global_width(), TaskKind::Leaf, move |i| {
        run_one(base_trial + i, streams[i as usize].clone())
    })
}

/// Order-preserving reduction of per-trial reports into a
/// [`TrialAggregate`]; shared by [`TrialPlan::run`] and the scenario layer.
pub(crate) fn aggregate_reports(
    reports: &[SimReport],
    rounds_per_trial: u64,
    thresholds: &[u64],
) -> TrialAggregate {
    let mut aggregate = TrialAggregate {
        trials: reports.len() as u64,
        rounds_per_trial,
        total_honest_blocks: 0,
        total_adversary_blocks: 0,
        total_convergence_opportunities: 0,
        convergence_counts: Vec::with_capacity(reports.len()),
        adversary_counts: Vec::with_capacity(reports.len()),
        reorg_depths: Vec::with_capacity(reports.len()),
        divergence_depths: Vec::with_capacity(reports.len()),
        max_reorg_depth: 0,
        max_divergence_depth: 0,
        failure_counts: thresholds.iter().map(|&t| (t, 0)).collect(),
    };
    for report in reports {
        aggregate.total_honest_blocks += report.honest_blocks;
        aggregate.total_adversary_blocks += report.adversary_blocks;
        aggregate.total_convergence_opportunities += report.convergence_opportunities;
        aggregate
            .convergence_counts
            .push(report.convergence_opportunities);
        aggregate.adversary_counts.push(report.adversary_blocks);
        aggregate.reorg_depths.push(report.max_reorg_depth);
        aggregate
            .divergence_depths
            .push(report.max_divergence_depth);
        aggregate.max_reorg_depth = aggregate.max_reorg_depth.max(report.max_reorg_depth);
        aggregate.max_divergence_depth = aggregate
            .max_divergence_depth
            .max(report.max_divergence_depth);
        for (t, failures) in &mut aggregate.failure_counts {
            if !report.is_consistent(*t) {
                *failures += 1;
            }
        }
    }
    aggregate
}

/// Sequential-stopping fan-out: runs trials in deterministic waves of
/// [`STOP_CHECK_EVERY`] and stops at the first wave boundary where
/// every plan threshold's Wilson half-width at [`STOP_Z`] is at most the
/// target — or when the `plan.trials` budget is exhausted. Returns the
/// trial-ordered reports.
///
/// Checkpoints land on trial counts that are pure functions of the plan
/// (multiples of the wave size, capped by the budget), and each
/// checkpoint's statistic is computed over the trial-ordered prefix, so
/// the stopping decision — and hence the aggregate — is bit-identical
/// at every pool width. Trial `t` still runs on the master stream
/// advanced `t` jumps: the master generator rolls forward wave by wave
/// instead of being expanded up front, and each wave goes through the
/// same [`fan_out_reports`] as the fixed-budget path.
fn run_trials_adaptive<F>(plan: &TrialPlan, target: f64, run_one: Arc<F>) -> Vec<SimReport>
where
    F: Fn(u64, Xoshiro256PlusPlus) -> SimReport + Send + Sync + 'static,
{
    assert!(
        target > 0.0 && target < 1.0,
        "stop_half_width must lie in (0, 1), got {target}"
    );
    assert!(
        !plan.consistency_thresholds.is_empty(),
        "the stopping rule tracks consistency failure rates: set at least one threshold"
    );
    let mut master = Xoshiro256PlusPlus::seed_from_u64(plan.config.seed);
    let mut reports: Vec<SimReport> = Vec::new();
    let mut failures: Vec<(u64, u64)> = plan
        .consistency_thresholds
        .iter()
        .map(|&t| (t, 0))
        .collect();
    while (reports.len() as u64) < plan.trials {
        let wave = STOP_CHECK_EVERY.min(plan.trials - reports.len() as u64);
        let wave_streams: Vec<Xoshiro256PlusPlus> = (0..wave)
            .map(|_| {
                let stream = master.clone();
                master = master.jump();
                stream
            })
            .collect();
        let base = reports.len() as u64;
        let wave_reports = fan_out_reports(wave_streams, base, Arc::clone(&run_one));
        for report in &wave_reports {
            for (t, count) in &mut failures {
                if !report.is_consistent(*t) {
                    *count += 1;
                }
            }
        }
        reports.extend(wave_reports);
        let n = reports.len() as u64;
        let stop = failures.iter().all(|&(_, count)| {
            let w = WilsonInterval::new(count, n, STOP_Z);
            (w.hi - w.lo) / 2.0 <= target
        });
        if stop {
            break;
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BalanceAdversary, ImmediateReleaseAdversary, PrivateChainAdversary};
    use crate::execution::run_simulation;

    fn plan(seed: u64, trials: u64) -> TrialPlan {
        let cfg = SimConfig::from_c(60, 3, 1.0, 0.35, seed).unwrap();
        TrialPlan::new(cfg, 4_000, trials)
            .unwrap()
            .thresholds(vec![0, 4, 12])
    }

    #[test]
    fn empty_plans_are_rejected_at_construction() {
        // Satellite regression: zero trials / zero rounds used to panic
        // (or, for hand-built aggregates, to blow up much later inside
        // WilsonInterval); now they are proper ConfigErrors.
        let cfg = SimConfig::from_c(60, 3, 1.0, 0.35, 1).unwrap();
        let err = TrialPlan::new(cfg, 4_000, 0).unwrap_err();
        assert!(err.to_string().contains("trial"), "{err}");
        let err = TrialPlan::new(cfg, 0, 4).unwrap_err();
        assert!(err.to_string().contains("round"), "{err}");
        // An invalid config is caught at the same place.
        let mut bad = cfg;
        bad.adversary_fraction = 0.7;
        assert!(TrialPlan::new(bad, 4_000, 4).is_err());
    }

    #[test]
    fn empty_aggregate_reports_no_interval() {
        let aggregate = aggregate_reports(&[], 1_000, &[12]);
        assert_eq!(aggregate.trials, 0);
        assert_eq!(aggregate.failures_at(12), Some(0));
        assert_eq!(
            aggregate.failure_interval(12, 1.96),
            None,
            "an interval over zero observations is undefined, not a panic"
        );
    }

    #[test]
    fn aggregate_independent_of_thread_count() {
        let reference =
            executor::with_test_width(1, || plan(11, 12).run(|_| PrivateChainAdversary::new(3)));
        for threads in [2usize, 3, 8] {
            let other = executor::with_test_width(threads, || {
                plan(11, 12).run(|_| PrivateChainAdversary::new(3))
            });
            assert_eq!(
                reference.aggregate, other.aggregate,
                "aggregate differs at {threads} threads"
            );
        }
    }

    #[test]
    fn trials_match_sequential_jump_streams() {
        // The pooled aggregate must equal a plain sequential loop in
        // which trial t runs on the master stream jumped t times.
        let p = plan(23, 12);
        let run = p.run(|_| PrivateChainAdversary::new(3));
        let mut stream = Xoshiro256PlusPlus::seed_from_u64(23);
        let mut reports = Vec::new();
        for _ in 0..12 {
            let mut sim =
                Simulation::with_rng(p.config, PrivateChainAdversary::new(3), stream.clone());
            sim.run(p.rounds);
            reports.push(sim.report());
            stream = stream.jump();
        }
        let sequential = aggregate_reports(&reports, p.rounds, &p.consistency_thresholds);
        assert_eq!(run.aggregate, sequential);
    }

    #[test]
    fn different_master_seeds_give_different_results() {
        let a = plan(1, 6).run(|_| PrivateChainAdversary::new(3));
        let b = plan(2, 6).run(|_| PrivateChainAdversary::new(3));
        assert_ne!(a.aggregate, b.aggregate);
    }

    #[test]
    fn trials_are_not_identical_copies() {
        let run = plan(5, 8).run(|_| PrivateChainAdversary::new(3));
        // With disjoint streams the per-trial convergence counts can't
        // all coincide.
        let first = run.aggregate.convergence_counts[0];
        assert!(
            run.aggregate.convergence_counts.iter().any(|&c| c != first),
            "all trials produced identical counts: streams not disjoint?"
        );
    }

    #[test]
    fn failure_counts_and_intervals() {
        // ν = 0 with the baseline adversary: nothing can be deeper than
        // a height-tie reorg, so T = 12 never fails and T = 0 counts
        // trials with any reorg at all.
        let cfg = SimConfig::new(50, 0.0, 2e-3, 2, 3).unwrap();
        let run = TrialPlan::new(cfg, 5_000, 10)
            .unwrap()
            .thresholds(vec![0, 12])
            .run(|_| ImmediateReleaseAdversary::new());
        assert_eq!(run.aggregate.failures_at(12), Some(0));
        let w = run.aggregate.failure_interval(12, 1.96).unwrap();
        assert_eq!(w.estimate, 0.0);
        assert!(w.hi > 0.0, "upper bound stays positive at 0 successes");
        assert_eq!(run.aggregate.failures_at(7), None, "unlisted threshold");
        assert_eq!(run.aggregate.total_adversary_blocks, 0);
    }

    #[test]
    fn aggregate_totals_match_single_runs() {
        let p = plan(77, 3);
        let run = p.run(|_| BalanceAdversary::new(3));
        let mut stream = Xoshiro256PlusPlus::seed_from_u64(77);
        let mut honest = 0u64;
        for _ in 0..3 {
            let mut sim = Simulation::with_rng(p.config, BalanceAdversary::new(3), stream.clone());
            sim.run(p.rounds);
            honest += sim.report().honest_blocks;
            stream = stream.jump();
        }
        assert_eq!(run.aggregate.total_honest_blocks, honest);
    }

    #[test]
    fn wilson_interval_known_values() {
        // 50/100 at z=1.96: classic ≈ [0.404, 0.596].
        let w = WilsonInterval::new(50, 100, 1.96);
        assert!((w.estimate - 0.5).abs() < 1e-12);
        assert!((w.lo - 0.404).abs() < 0.002, "lo = {}", w.lo);
        assert!((w.hi - 0.596).abs() < 0.002, "hi = {}", w.hi);
        // Degenerate edges stay in [0, 1].
        let w = WilsonInterval::new(0, 10, 1.96);
        assert_eq!(w.estimate, 0.0);
        assert!(w.lo >= 0.0 && w.hi <= 1.0 && w.hi > 0.0);
        let w = WilsonInterval::new(10, 10, 1.96);
        assert!(w.lo < 1.0 && w.hi <= 1.0);
    }

    #[test]
    fn seed_variation_through_config_seed_only() {
        // The per-trial adversary factory receives the trial index, so
        // strategies can vary per trial without touching the RNG.
        let run = plan(9, 4).run(PrivateChainAdversary::new);
        assert_eq!(run.aggregate.trials, 4);
    }

    #[test]
    fn adaptive_stopping_is_thread_and_width_independent() {
        // The stopping rule must fire at the same trial count — and
        // return the same aggregate — at every job width: checkpoints
        // are pure functions of the master seed.
        let run = |width: usize| {
            let cfg = SimConfig::from_c(60, 3, 1.0, 0.35, 41).unwrap();
            let plan = TrialPlan::new(cfg, 4_000, 4_096)
                .unwrap()
                .thresholds(vec![4, 12])
                .with_stopping(0.05);
            executor::with_test_width(width, || plan.run(|_| PrivateChainAdversary::new(3)))
        };
        let reference = run(1);
        assert!(
            reference.aggregate.trials < 4_096,
            "stopping rule never fired; tighten the test target"
        );
        assert_eq!(
            reference.aggregate.trials % STOP_CHECK_EVERY,
            0,
            "stopping must land on a wave boundary"
        );
        for width in [2usize, 3, 8, 16] {
            let other = run(width);
            assert_eq!(reference.aggregate, other.aggregate, "width {width}");
        }
    }

    #[test]
    fn adaptive_stopping_matches_fixed_budget_prefix() {
        // The adaptive run's aggregate over n trials must equal a
        // fixed-budget run of exactly n trials: stopping only truncates
        // the trial sequence, it never alters any trial. Checkpoints
        // are pure functions of the plan, so it stops on a wave
        // boundary.
        let cfg = SimConfig::from_c(60, 3, 1.0, 0.35, 43).unwrap();
        let adaptive = TrialPlan::new(cfg, 4_000, 4_096)
            .unwrap()
            .thresholds(vec![4, 12])
            .with_stopping(0.05)
            .run(|_| PrivateChainAdversary::new(3));
        let n = adaptive.aggregate.trials;
        assert!(n < 4_096, "stopping rule never fired; tighten the target");
        assert_eq!(n % STOP_CHECK_EVERY, 0, "stopping lands on a wave boundary");
        let fixed = TrialPlan::new(cfg, 4_000, n)
            .unwrap()
            .thresholds(vec![4, 12])
            .run(|_| PrivateChainAdversary::new(3));
        assert_eq!(adaptive.aggregate, fixed.aggregate);
    }

    #[test]
    fn adaptive_stopping_respects_trial_budget() {
        // An unreachable target exhausts the budget and returns the
        // full fixed-budget aggregate.
        let cfg = SimConfig::from_c(60, 3, 1.0, 0.35, 44).unwrap();
        let run = TrialPlan::new(cfg, 2_000, 40)
            .unwrap()
            .thresholds(vec![0])
            .with_stopping(1e-6)
            .run(|_| PrivateChainAdversary::new(3));
        assert_eq!(run.aggregate.trials, 40);
    }

    #[test]
    #[should_panic(expected = "at least one threshold")]
    fn adaptive_stopping_requires_thresholds() {
        let cfg = SimConfig::from_c(60, 3, 1.0, 0.35, 45).unwrap();
        let _ = TrialPlan::new(cfg, 2_000, 40)
            .unwrap()
            .with_stopping(0.05)
            .run(|_| PrivateChainAdversary::new(3));
    }

    #[test]
    fn half_width_accessor() {
        // 50/100 at z=1.96: hi − lo ≈ 0.192, half ≈ 0.096.
        let mut aggregate = aggregate_reports(&[], 1_000, &[12]);
        aggregate.trials = 100;
        aggregate.failure_counts = vec![(12, 50)];
        let hw = aggregate.half_width(12, 1.96).unwrap();
        assert!((hw - 0.096).abs() < 0.002, "half-width {hw}");
        // Zero-failure edge case: the Wilson upper bound stays
        // positive, so the half-width is positive too and shrinks as
        // n grows — a zero-failure cell cannot claim instant
        // convergence.
        aggregate.failure_counts = vec![(12, 0)];
        let at_100 = aggregate.half_width(12, 1.96).unwrap();
        assert!(at_100 > 0.0, "zero failures must not give zero width");
        aggregate.trials = 10_000;
        let at_10k = aggregate.half_width(12, 1.96).unwrap();
        assert!(at_10k > 0.0 && at_10k < at_100);
        // Unlisted threshold and empty aggregate report absence.
        assert_eq!(aggregate.half_width(7, 1.96), None);
        aggregate.trials = 0;
        assert_eq!(aggregate.half_width(12, 1.96), None);
    }

    /// The engine must agree with `run_simulation` when a single
    /// trial uses the master stream directly (trial 0 = zero jumps).
    #[test]
    fn trial_zero_equals_plain_simulation() {
        let cfg = SimConfig::from_c(80, 2, 2.0, 0.2, 4242).unwrap();
        let run = TrialPlan::new(cfg, 6_000, 1)
            .unwrap()
            .run(|_| PrivateChainAdversary::new(2));
        let report = run_simulation(cfg, PrivateChainAdversary::new(2), 6_000);
        assert_eq!(run.aggregate.total_honest_blocks, report.honest_blocks);
        assert_eq!(run.aggregate.max_reorg_depth, report.max_reorg_depth);
    }
}
