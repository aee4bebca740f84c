//! Multilevel-splitting rare-event estimator for consistency failures.
//!
//! The paper's theorems bound failure probabilities around 10⁻⁹ —
//! far below anything a direct Monte-Carlo fan-out can resolve: at
//! `n` trials the Wilson interval for zero observed failures is
//! `[0, ≈3/n]`, so every feasible budget reports "0 [0, 0.3]" against
//! a bound of 10⁻⁹. This module estimates those probabilities with
//! fixed-effort importance splitting instead.
//!
//! # Level function
//!
//! The level function is the run's **consistency depth**
//! ([`crate::execution::Simulation::consistency_depth`]): the deeper of
//! the deepest reorg and the deepest cross-group divergence. It is
//! monotone non-decreasing over a run, and a `T`-consistency violation
//! is exactly the event `depth ≥ T + 1` — so the rare event factors
//! through the nested levels `depth ≥ 1, depth ≥ 2, …, depth ≥ T + 1`.
//!
//! # Fixed-effort splitting
//!
//! Stage 1 launches `effort` independent replicas from round 0 (on the
//! *same* `jump()`-derived streams a plain
//! [`crate::montecarlo::TrialPlan::run`] fan-out would use) and runs
//! each until it crosses the first level or its round horizon expires.
//! Stage `k` then resamples `effort` replicas with replacement from
//! stage `k−1`'s crossing states (cloning the stored engine state at
//! the crossing round), hands each clone a fresh disjoint stream via
//! [`crate::execution::Simulation::reseed_mining`] (sound because
//! geometric mining gaps are memoryless), and races them toward the
//! next level. The failure probability estimate is the
//! product of per-stage crossing fractions, with the relative-error
//! accounting of [`probability::rare_event::product_estimate`].
//!
//! A crossing state is stored pruned to its live fork: the block tree
//! and chain trackers keep only what descends from the common ancestor
//! of the group tips, the in-flight deliveries and the adversary's live
//! blocks, the state is stripped of spare capacity and boxed
//! (`Simulation::compact`). Only that future can
//! influence the next stage, so this changes no result, and a stage's
//! memory scales with effort × live fork window rather than with the
//! rounds already simulated.
//!
//! Survivors that no replica of the next stage resamples are dropped
//! before that stage runs (about e⁻¹ of them when all `effort`
//! replicas survive), on the joining thread while the workers sleep;
//! the kept ones are cloned by the same replicas as before, so this
//! changes no result either.
//!
//! # Determinism contract
//!
//! Identical to the trial engine's: parent selections and replica
//! streams are derived from `config.seed` alone before any worker
//! starts, and stage results are reduced in replica order, so a
//! [`SplittingRun`]'s statistics are bit-identical at every pool
//! width. With no intermediate levels (a single-stage "degenerate"
//! schedule) the estimator *is* the plain Monte-Carlo failure fraction,
//! bit for bit.

use crate::adversary::Adversary;
use crate::config::{ConfigError, SimConfig};
use crate::execution::Simulation;
use crate::executor::{self, TaskKind};
use crate::montecarlo::trial_streams;
use probability::rare_event::{product_estimate, LevelOutcome};
use probability::rng::{RandomSource, SplitMix64};
use std::sync::Arc;

/// Domain-separation tag mixed into `config.seed` for the stage-seed
/// stream, keeping stage-≥2 replica streams distinct from the stage-1
/// streams (which deliberately coincide with `TrialPlan::run`'s streams).
const STAGE_SEED_TAG: u64 = 0x5350_4C49_5454_494E;

/// A fixed-effort splitting experiment: `effort` replicas per level,
/// racing toward `depth ≥ max(thresholds) + 1` within `rounds` rounds.
///
/// `config.seed` is the master seed; as with
/// [`crate::montecarlo::TrialPlan`], the pool width affects wall-clock
/// time only, never results.
#[derive(Debug, Clone, PartialEq)]
pub struct SplittingPlan {
    /// Shared simulation parameters; `config.seed` is the master seed.
    pub config: SimConfig,
    /// Round horizon per replica (absolute: a replica cloned at round
    /// `r` races from `r` to `rounds`).
    pub rounds: u64,
    /// Consistency thresholds `T` to estimate `P[depth ≥ T+1]` for.
    pub thresholds: Vec<u64>,
    /// Intermediate depth levels strictly below `max(thresholds) + 1`:
    /// `None` selects the automatic unit ladder `1, 2, …, max(T)`;
    /// `Some(vec![])` is the degenerate single-stage schedule (plain
    /// Monte-Carlo); explicit levels are merged with every `T + 1`.
    pub levels: Option<Vec<u64>>,
    /// Replicas launched per stage (≥ 1).
    pub effort: u64,
}

impl SplittingPlan {
    /// Creates a validated plan with the automatic unit level ladder.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an invalid config, `rounds == 0`,
    /// `effort == 0`, or empty `thresholds`.
    pub fn new(
        config: SimConfig,
        rounds: u64,
        effort: u64,
        thresholds: Vec<u64>,
    ) -> Result<Self, ConfigError> {
        let plan = SplittingPlan {
            config,
            rounds,
            thresholds,
            levels: None,
            effort,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Sets the intermediate level schedule (builder style); see
    /// [`SplittingPlan::levels`] for the `None` / `Some(vec![])`
    /// semantics.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the levels are not strictly
    /// increasing, contain 0, or reach past `max(thresholds)`.
    pub fn with_levels(mut self, levels: Option<Vec<u64>>) -> Result<Self, ConfigError> {
        self.levels = levels;
        self.validate()?;
        Ok(self)
    }

    /// Re-checks every plan invariant (useful after mutating the public
    /// fields directly).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.config.validate()?;
        if self.rounds == 0 {
            return Err(ConfigError::new(
                "a splitting plan needs at least one round (rounds = 0)",
            ));
        }
        if self.effort == 0 {
            return Err(ConfigError::new(
                "a splitting plan needs at least one replica per level (effort = 0)",
            ));
        }
        let Some(&max_t) = self.thresholds.iter().max() else {
            return Err(ConfigError::new(
                "a splitting plan needs at least one consistency threshold",
            ));
        };
        if let Some(levels) = &self.levels {
            for (i, &level) in levels.iter().enumerate() {
                if level == 0 {
                    return Err(ConfigError::new("splitting levels must be ≥ 1"));
                }
                if level > max_t {
                    return Err(ConfigError::new(format!(
                        "splitting level {level} reaches past the largest threshold {max_t}"
                    )));
                }
                if i > 0 && levels[i - 1] >= level {
                    return Err(ConfigError::new(
                        "splitting levels must be strictly increasing",
                    ));
                }
            }
        }
        Ok(())
    }

    /// The full stage ladder in crossing order: the intermediate levels
    /// (automatic unit ladder when unset) merged with `T + 1` for every
    /// threshold, sorted and deduplicated.
    #[must_use]
    pub fn stage_levels(&self) -> Vec<u64> {
        let Some(&max_t) = self.thresholds.iter().max() else {
            return Vec::new();
        };
        let mut ladder: Vec<u64> = match &self.levels {
            None => (1..=max_t + 1).collect(),
            Some(levels) => {
                let mut ladder = levels.clone();
                ladder.extend(self.thresholds.iter().map(|&t| t + 1));
                ladder.sort_unstable();
                ladder.dedup();
                ladder
            }
        };
        ladder.retain(|&l| l <= max_t + 1);
        ladder
    }

    /// Runs the fixed-effort splitting experiment.
    ///
    /// `make_adversary` builds the strategy for first-stage replica `i`
    /// exactly as [`crate::montecarlo::TrialPlan::run`] does for trial
    /// `i`; later stages clone the adversary (mid-attack state
    /// included) along with the rest of the engine.
    ///
    /// The returned statistics are bit-identical for a fixed
    /// `config.seed` at every pool width.
    ///
    /// # Panics
    ///
    /// Panics if the public fields were mutated into an invalid state
    /// after construction (see [`SplittingPlan::validate`]).
    pub fn run<A, F>(&self, make_adversary: F) -> SplittingRun
    where
        A: Adversary + Clone + Send + Sync + 'static,
        F: Fn(u64) -> A + Send + Sync + 'static,
    {
        self.validate()
            .expect("invalid splitting plan: construct through SplittingPlan::new"); // detlint: allow(panic-expect) -- documented # Panics contract for post-construction field mutation
        let make_adversary = Arc::new(make_adversary);
        let ladder = self.stage_levels();
        let mut stage_seeder = SplitMix64::new(self.config.seed ^ STAGE_SEED_TAG);
        let mut level_stats: Vec<LevelStats> = Vec::with_capacity(ladder.len());
        let mut total_rounds = 0u64;
        let mut entrants: Vec<Box<Simulation<A>>> = Vec::new();

        for (stage, &level) in ladder.iter().enumerate() {
            let (survivors, stage_rounds) =
                self.run_stage(stage, level, entrants, &mut stage_seeder, &make_adversary);
            total_rounds += stage_rounds;
            entrants = survivors;
            let hits = entrants.len() as u64;
            level_stats.push(LevelStats {
                level,
                hits,
                effort: self.effort,
            });
            if hits == 0 {
                // Level starvation: no entrance states remain, so every
                // deeper level (and every threshold above it) estimates 0.
                break;
            }
        }

        let estimates = self
            .thresholds
            .iter()
            .map(|&t| {
                let stages: Vec<&LevelStats> =
                    level_stats.iter().filter(|s| s.level <= t + 1).collect();
                let outcomes: Vec<LevelOutcome> = stages
                    .iter()
                    .map(|s| LevelOutcome {
                        hits: s.hits,
                        trials: s.effort,
                    })
                    .collect();
                let product = product_estimate(&outcomes);
                SplittingEstimate {
                    threshold: t,
                    probability: product.probability,
                    relative_error: product.relative_error,
                    starved_at: product.starved_at.map(|i| stages[i].level),
                }
            })
            .collect();

        SplittingRun {
            estimates,
            levels: level_stats,
            total_rounds,
        }
    }

    /// Runs stage `stage` of the ladder, racing `effort` replicas toward
    /// `level`, and returns its survivors (replica order, each pruned to
    /// its live fork and boxed) with the rounds it simulated. Stage 0
    /// launches fresh replicas; a later stage resamples `entrants`, the
    /// previous stage's survivors, with parent selections and streams
    /// drawn from `stage_seeder`.
    fn run_stage<A, F>(
        &self,
        stage: usize,
        level: u64,
        entrants: Vec<Box<Simulation<A>>>,
        stage_seeder: &mut SplitMix64,
        make_adversary: &Arc<F>,
    ) -> (Vec<Box<Simulation<A>>>, u64)
    where
        A: Adversary + Clone + Send + Sync + 'static,
        F: Fn(u64) -> A + Send + Sync + 'static,
    {
        let effort = self.effort;
        if stage == 0 {
            // Stage 1 replicas are plain trials: same streams, same
            // adversary factory, same engine entry as `TrialPlan::run` — a
            // degenerate (single-stage) schedule reproduces the plain
            // Monte-Carlo failure count bit for bit.
            let streams = trial_streams(self.config.seed, effort);
            let make_adversary = Arc::clone(make_adversary);
            let config = self.config;
            return fan_out_stage(effort, self.rounds, level, move |replica| {
                let rng = streams[replica as usize].clone();
                Simulation::with_rng(config, make_adversary(replica), rng)
            });
        }
        // Later stages: resample entrance states with replacement and
        // restart each clone on its own disjoint stream. Both the parent
        // selections and the streams are fixed before the fan-out, so
        // scheduling cannot perturb them.
        let stage_seed = stage_seeder.next_u64();
        let selection_seed = stage_seeder.next_u64();
        let mut selection = SplitMix64::new(selection_seed);
        let mut parents: Vec<usize> = (0..effort)
            .map(|_| selection.next_below(entrants.len() as u64) as usize)
            .collect();
        let entrants = keep_resampled(entrants, &mut parents);
        let streams = trial_streams(stage_seed, effort);
        fan_out_stage(effort, self.rounds, level, move |replica| {
            let mut sim = Simulation::clone(&entrants[parents[replica as usize]]);
            sim.reseed_mining(streams[replica as usize].clone());
            sim
        })
    }
}

/// Keeps the entrance states that at least one replica resamples, in
/// their order, and remaps `parents` onto the kept states, so every
/// replica still clones the same state. The joiner calls it before a
/// stage's fan-out: the states no replica resamples (about e⁻¹ of them
/// when as many parents are drawn, uniformly with replacement, as there
/// are states) are freed there, while the workers sleep, instead of
/// being held through the stage.
fn keep_resampled<T>(mut entrants: Vec<T>, parents: &mut [usize]) -> Vec<T> {
    let mut picked = vec![false; entrants.len()];
    for &parent in parents.iter() {
        picked[parent] = true;
    }
    // `kept_before[i]`: how many picked states precede state `i`, its
    // index among the kept states when it is picked itself.
    let mut kept_before = Vec::with_capacity(picked.len());
    let mut kept = 0;
    for &is_picked in &picked {
        kept_before.push(kept);
        kept += usize::from(is_picked);
    }
    let mut picked = picked.into_iter();
    entrants.retain(|_| picked.next() == Some(true));
    for parent in parents.iter_mut() {
        *parent = kept_before[*parent];
    }
    entrants
}

/// One stage of a splitting run: how many of the `effort` replicas
/// crossed `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelStats {
    /// The consistency depth this stage raced toward.
    pub level: u64,
    /// Replicas that reached it before the round horizon.
    pub hits: u64,
    /// Replicas launched (the fixed effort).
    pub effort: u64,
}

/// The splitting estimate for one consistency threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplittingEstimate {
    /// The consistency threshold `T`.
    pub threshold: u64,
    /// Estimated `P[T-consistency violated within the horizon]` — the
    /// product of stage crossing fractions through level `T + 1`.
    pub probability: f64,
    /// Relative error (one standard error / estimate); `None` when the
    /// chain starved before level `T + 1`.
    pub relative_error: Option<f64>,
    /// The level at which the chain starved (zero hits), if it did at
    /// or below `T + 1`.
    pub starved_at: Option<u64>,
}

impl SplittingEstimate {
    /// One-standard-error half-width `probability · relative_error`;
    /// `None` for a starved chain.
    #[must_use]
    pub fn standard_error(&self) -> Option<f64> {
        self.relative_error.map(|re| self.probability * re)
    }
}

/// Result of [`SplittingPlan::run`]: per-threshold estimates, the full stage
/// ladder and the simulated rounds, all independent of pool width.
#[derive(Debug, Clone)]
pub struct SplittingRun {
    /// One estimate per plan threshold, in plan order.
    pub estimates: Vec<SplittingEstimate>,
    /// Per-stage crossing statistics, in ladder order; truncated at the
    /// first starved stage (later stages have no entrance states).
    pub levels: Vec<LevelStats>,
    /// Rounds simulated across every replica of every stage.
    pub total_rounds: u64,
}

impl SplittingRun {
    /// The estimate for threshold `t`, if `t` was a plan threshold.
    #[must_use]
    pub fn estimate_at(&self, t: u64) -> Option<&SplittingEstimate> {
        self.estimates.iter().find(|e| e.threshold == t)
    }
}

/// One stage's fan-out: enters replica `i` as `enter(i)` and races it
/// toward `level` until the absolute round `horizon`, as one ordered job
/// on the shared [`crate::executor`] pool at the pool's width, and
/// reduces the results **in replica order** (the mirror of
/// `fan_out_reports`, carrying engine states instead of reports).
/// Returns the survivors and the rounds simulated.
///
/// A survivor is compacted ([`Simulation::compact`]) and boxed on its
/// worker as it crosses: a stored state then costs its live fork window,
/// not its history, and each of the `effort` result slots the job keeps
/// costs a pointer, not a whole engine. Compaction changes no result.
fn fan_out_stage<A, F>(
    effort: u64,
    horizon: u64,
    level: u64,
    enter: F,
) -> (Vec<Box<Simulation<A>>>, u64)
where
    A: Adversary + Send + 'static,
    F: Fn(u64) -> Simulation<A> + Send + Sync + 'static,
{
    let run_one = move |replica: u64| {
        let mut sim = enter(replica);
        let entered_at = sim.round();
        let hit = sim.run_until_depth(horizon, level);
        let consumed = sim.round() - entered_at;
        let survivor = hit.then(|| {
            sim.compact();
            Box::new(sim)
        });
        (survivor, consumed)
    };
    let slots = executor::run_ordered(effort, executor::global_width(), TaskKind::Leaf, run_one);
    debug_assert_eq!(slots.len() as u64, effort);
    let mut rounds_total = 0u64;
    let survivors = slots
        .into_iter()
        .filter_map(|(survivor, rounds)| {
            rounds_total += rounds;
            survivor
        })
        .collect();
    (survivors, rounds_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BalanceAdversary, ImmediateReleaseAdversary, PrivateChainAdversary};
    use crate::block::BlockId;
    use crate::montecarlo::TrialPlan;

    fn cfg(seed: u64) -> SimConfig {
        SimConfig::from_c(60, 3, 1.0, 0.35, seed).unwrap()
    }

    #[test]
    fn plan_validation_rejects_bad_inputs() {
        assert!(SplittingPlan::new(cfg(1), 0, 8, vec![2]).is_err());
        assert!(SplittingPlan::new(cfg(1), 100, 0, vec![2]).is_err());
        assert!(SplittingPlan::new(cfg(1), 100, 8, vec![]).is_err());
        let plan = SplittingPlan::new(cfg(1), 100, 8, vec![4]).unwrap();
        assert!(plan.clone().with_levels(Some(vec![0])).is_err(), "level 0");
        assert!(
            plan.clone().with_levels(Some(vec![2, 2])).is_err(),
            "not strictly increasing"
        );
        assert!(
            plan.clone().with_levels(Some(vec![5])).is_err(),
            "past the largest threshold"
        );
        assert!(plan.with_levels(Some(vec![1, 3])).is_ok());
    }

    #[test]
    fn stage_ladder_merges_levels_and_thresholds() {
        let plan = SplittingPlan::new(cfg(1), 100, 8, vec![2, 6]).unwrap();
        assert_eq!(plan.stage_levels(), vec![1, 2, 3, 4, 5, 6, 7]);
        let plan = plan.with_levels(Some(vec![2, 4])).unwrap();
        // Explicit levels ∪ {T+1} = {2, 4} ∪ {3, 7}.
        assert_eq!(plan.stage_levels(), vec![2, 3, 4, 7]);
        let degenerate = SplittingPlan::new(cfg(1), 100, 8, vec![4])
            .unwrap()
            .with_levels(Some(vec![]))
            .unwrap();
        assert_eq!(degenerate.stage_levels(), vec![5]);
    }

    /// Satellite edge case: a single-stage (degenerate) schedule must
    /// reduce to the plain Monte-Carlo estimator, bit for bit — same
    /// streams, same failure count, same point estimate.
    #[test]
    fn degenerate_schedule_reduces_to_plain_monte_carlo() {
        let trials = 24;
        let threshold = 2u64;
        let rounds = 4_000;
        for seed in [11u64, 23, 77] {
            let mc = TrialPlan::new(cfg(seed), rounds, trials)
                .unwrap()
                .thresholds(vec![threshold])
                .run(|_| PrivateChainAdversary::new(3));
            let split = SplittingPlan::new(cfg(seed), rounds, trials, vec![threshold])
                .unwrap()
                .with_levels(Some(vec![]))
                .unwrap()
                .run(|_| PrivateChainAdversary::new(3));
            let failures = mc.aggregate.failures_at(threshold).unwrap();
            assert_eq!(split.levels.len(), 1, "one stage");
            assert_eq!(split.levels[0].hits, failures, "seed {seed}");
            let estimate = split.estimate_at(threshold).unwrap();
            assert_eq!(
                estimate.probability,
                failures as f64 / trials as f64,
                "seed {seed}"
            );
        }
    }

    /// Job-width bit-identity at 1/2/4/8 slots (the CI determinism job
    /// picks this test up by name), for a private-chain plan and for a
    /// balance plan whose survivors carry two live, divergent branches
    /// into every stored entrance state.
    #[test]
    fn splitting_independent_of_thread_count() {
        let private = SplittingPlan::new(cfg(42), 3_000, 16, vec![3]).unwrap();
        let balance = SplittingPlan::new(cfg(42), 3_000, 24, vec![7]).unwrap();
        let run = |threads: usize| {
            executor::with_test_width(threads, || {
                [
                    private.run(|_| PrivateChainAdversary::new(3)),
                    balance.run(|_| BalanceAdversary::new(3)),
                ]
            })
        };
        let reference = run(1);
        let deepest = reference[1].levels.last().unwrap();
        assert!(
            deepest.level >= 6 && deepest.hits > 0,
            "the balance plan must carry survivors deep into the ladder, got {deepest:?}"
        );
        for threads in [2usize, 4, 8] {
            for (reference, other) in reference.iter().zip(run(threads)) {
                assert_eq!(
                    reference.estimates, other.estimates,
                    "estimates differ at {threads} threads"
                );
                assert_eq!(
                    reference.levels, other.levels,
                    "level stats differ at {threads} threads"
                );
                assert_eq!(reference.total_rounds, other.total_rounds);
            }
        }
    }

    /// Every stored entrance state holds only its live fork: its tree
    /// is rooted at its live root (the common ancestor of the group
    /// tips, the in-flight deliveries and the adversary's live blocks),
    /// and no block older than that root is resident.
    #[test]
    fn stored_entrance_states_hold_only_their_live_fork() {
        let config = SimConfig::from_c(100, 4, 3.0, 0.15, 20_260_808).unwrap();
        let plan = SplittingPlan::new(config, 5_000, 32, vec![13]).unwrap();
        let make_adversary = Arc::new(|_| BalanceAdversary::new(4));
        let mut stage_seeder = SplitMix64::new(config.seed ^ STAGE_SEED_TAG);
        let mut entrants = Vec::new();
        let mut past_genesis = 0;
        for (stage, &level) in plan.stage_levels().iter().take(6).enumerate() {
            entrants = plan
                .run_stage(stage, level, entrants, &mut stage_seeder, &make_adversary)
                .0;
            assert!(!entrants.is_empty(), "stage {stage} starved");
            for sim in &entrants {
                let tree = sim.tree();
                assert_eq!(tree.root(), sim.live_root(), "stage {stage}");
                assert_eq!(
                    tree.total_created() - tree.len() as u64,
                    u64::from(tree.root().0),
                    "stage {stage}: blocks older than the live root are resident"
                );
                past_genesis += usize::from(tree.root() != BlockId::GENESIS);
            }
        }
        assert!(past_genesis > 0, "no stored state had moved past genesis");
    }

    /// Satellite edge case: zero successes at an intermediate level.
    /// With no adversary and one group, the consistency depth can reach
    /// shallow levels (same-round sibling ties) but never deep ones, so
    /// the chain starves and deeper thresholds report a clean zero.
    #[test]
    fn intermediate_level_starvation_reports_zero() {
        let config = SimConfig::new(50, 0.0, 2e-3, 2, 9).unwrap();
        let run = SplittingPlan::new(config, 3_000, 12, vec![12])
            .unwrap()
            .run(|_| ImmediateReleaseAdversary::new());
        let starved = run.levels.last().unwrap();
        assert_eq!(starved.hits, 0, "deep levels must starve");
        assert!(
            (run.levels.len() as u64) < 13,
            "ladder must truncate at the starved stage"
        );
        let estimate = run.estimate_at(12).unwrap();
        assert_eq!(estimate.probability, 0.0);
        assert_eq!(estimate.relative_error, None);
        assert_eq!(estimate.standard_error(), None);
        assert_eq!(estimate.starved_at, Some(starved.level));
    }

    #[test]
    fn multi_threshold_estimates_are_nested_products() {
        let run = SplittingPlan::new(cfg(7), 4_000, 20, vec![1, 3])
            .unwrap()
            .run(|_| PrivateChainAdversary::new(3));
        // Recompute each estimate from the level stats by hand.
        for estimate in &run.estimates {
            let expected: f64 = run
                .levels
                .iter()
                .filter(|s| s.level <= estimate.threshold + 1)
                .map(|s| s.hits as f64 / s.effort as f64)
                .product();
            if estimate.starved_at.is_none() {
                assert!((estimate.probability - expected).abs() < 1e-15);
            }
        }
        // Deeper thresholds can never be more likely.
        let p1 = run.estimate_at(1).unwrap().probability;
        let p3 = run.estimate_at(3).unwrap().probability;
        assert!(p3 <= p1, "P[depth ≥ 4] = {p3} > P[depth ≥ 2] = {p1}");
        assert!((0.0..=1.0).contains(&p1));
    }

    /// The resample step drops the states no replica picks: after the
    /// drop and remap, each replica's parent is the same state as
    /// before, and every kept state has at least one replica.
    #[test]
    fn resampling_drops_unpicked_states_and_keeps_every_parent() {
        let mut selection = SplitMix64::new(5);
        for (states, effort) in [(1usize, 1usize), (1, 9), (9, 1), (40, 40), (400, 4000)] {
            let entrants: Vec<Box<u64>> = (0..states as u64).map(|v| Box::new(v * 7)).collect();
            let before: Vec<u64> = entrants.iter().map(|state| **state).collect();
            let old_parents: Vec<usize> = (0..effort)
                .map(|_| selection.next_below(states as u64) as usize)
                .collect();
            let mut parents = old_parents.clone();
            let kept = keep_resampled(entrants, &mut parents);
            for (&old, &new) in old_parents.iter().zip(&parents) {
                assert_eq!(*kept[new], before[old], "{states} states, effort {effort}");
            }
            let mut picks = vec![0usize; kept.len()];
            for &parent in &parents {
                picks[parent] += 1;
            }
            assert!(
                picks.iter().all(|&n| n > 0),
                "{states} states, effort {effort}: a kept state has no replica"
            );
            assert!(
                kept.windows(2).all(|w| w[0] < w[1]),
                "kept states stay in order"
            );
        }
    }

    #[test]
    fn total_rounds_populated() {
        let run = SplittingPlan::new(cfg(3), 500, 4, vec![1])
            .unwrap()
            .run(|_| PrivateChainAdversary::new(3));
        assert!(run.total_rounds > 0);
    }
}
