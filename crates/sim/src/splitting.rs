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
//! blocks, and the state is copied without spare capacity and boxed
//! (`Simulation::stored_copy`). Only that future can
//! influence the next stage, so this changes no result, and a stage's
//! memory scales with effort × live fork window rather than with the
//! rounds already simulated.
//!
//! A resampled stage runs in parent order. Its replicas are grouped by
//! the survivor they resample into units of consecutive picked parents.
//! A unit owns its parents and runs all their children in one working
//! engine: for each child it copies the parent with `clone_from`,
//! reusing the engine's allocations, reseeds it and races it. The unit
//! frees each parent once its children have run, and survivors that no
//! replica resamples (about e⁻¹ of them when all `effort` replicas
//! survive) are dropped when the units are built. Every child still
//! starts from its parent's state on its own stream, and the joiner
//! puts the new survivors back in replica order, so this changes no
//! result either. A stage then holds at most `effort` stored states
//! beside one unit's parents and one working engine per slot.
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
use probability::rng::{RandomSource, SplitMix64, Xoshiro256PlusPlus};
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
            let units = (0..effort)
                .step_by(UNIT_CHILDREN)
                .map(|first| first..effort.min(first + UNIT_CHILDREN as u64))
                .collect();
            return fan_out_stage(units, self.rounds, level, move |replicas, crossings| {
                for replica in replicas {
                    let rng = streams[replica as usize].clone();
                    let mut sim = Simulation::with_rng(config, make_adversary(replica), rng);
                    crossings.race(replica, &mut sim);
                }
            });
        }
        // Later stages: resample entrance states with replacement and
        // restart each child on its own disjoint stream. Both the parent
        // selections and the streams are fixed before the fan-out, so
        // scheduling cannot perturb them.
        let (parents, streams) = resample(stage_seeder, entrants.len(), effort);
        let units = group_by_parent(entrants, &parents);
        fan_out_stage(units, self.rounds, level, move |unit, crossings| {
            let Brood { parents, replicas } = unit;
            let mut replicas = replicas.into_iter();
            // One working engine runs every child of the unit: it copies
            // each child's parent with `clone_from`, reusing its own
            // allocations, instead of allocating a fresh clone per child.
            let mut working: Option<Simulation<A>> = None;
            for (parent, children) in parents {
                for replica in replicas.by_ref().take(children) {
                    if let Some(sim) = &mut working {
                        sim.clone_from(&parent);
                    }
                    let sim = working.get_or_insert_with(|| Simulation::clone(&parent));
                    sim.reseed_mining(streams[replica as usize].clone());
                    crossings.race(replica, sim);
                }
                // `parent` is freed here, once its children have run.
            }
        })
    }
}

/// Children one unit of a stage races, at least: a unit of a resampled
/// stage closes at the parent that brings its children to this many
/// (so it holds at most this many parents), and stage 1's units are
/// runs of this many replicas. A unit's work is then even whether its
/// parents have one child each or many, and a stage splits into about
/// `effort / UNIT_CHILDREN` units for the pool to balance.
///
/// Measured on perfbench's `rare_split` (effort 4,000, `--jobs 2`, a
/// shared 2-vCPU host), 14 alternating runs each: units of 32, 64 and
/// 128 children, and of 32 parents, read median peak RSS 9.51, 9.43,
/// 9.36 and 9.42 MB and `wall_s` 0.90, 0.90, 0.89 and 0.84 s, all
/// within the runs' spread (0.61–1.52 s). 32 keeps the most units per
/// stage (125) for the pool to balance. Each unit's working engine
/// starts as an exact-size copy and grows, so smaller units cost more
/// reallocations (about 48,000 per run at `--jobs 1`, against 21,000
/// at 128) but no measurable time.
const UNIT_CHILDREN: usize = 32;

/// Draws a resampled stage's randomness from `stage_seeder`: each of
/// the `effort` replicas' parent among `entrants` entrance states,
/// uniformly with replacement, and each replica's disjoint stream.
fn resample(
    stage_seeder: &mut SplitMix64,
    entrants: usize,
    effort: u64,
) -> (Vec<usize>, Vec<Xoshiro256PlusPlus>) {
    let stage_seed = stage_seeder.next_u64();
    let selection_seed = stage_seeder.next_u64();
    let mut selection = SplitMix64::new(selection_seed);
    let parents = (0..effort)
        .map(|_| selection.next_below(entrants as u64) as usize)
        .collect();
    (parents, trial_streams(stage_seed, effort))
}

/// One unit of a resampled stage: consecutive picked parents, in
/// parent order, each with its number of children, and the children's
/// replica indices, parent by parent and in replica order within a
/// parent.
#[derive(Debug)]
struct Brood<T> {
    parents: Vec<(T, usize)>,
    replicas: Vec<u64>,
}

/// Groups a resampled stage's replicas by the entrant they resample
/// (`parents[replica]`) into units of consecutive picked entrants (see
/// [`UNIT_CHILDREN`]). The entrants no replica picks are dropped here,
/// before the fan-out.
fn group_by_parent<T>(entrants: Vec<T>, parents: &[usize]) -> Vec<Brood<T>> {
    let mut children = vec![0usize; entrants.len()];
    for &parent in parents {
        children[parent] += 1;
    }
    // The replicas entrant by entrant; the sort is stable, so each
    // entrant's stay in replica order.
    let mut by_parent: Vec<u64> = (0..parents.len() as u64).collect();
    by_parent.sort_by_key(|&replica| parents[replica as usize]);
    let mut by_parent = by_parent.into_iter();
    let mut units = Vec::new();
    let mut unit_parents = Vec::new();
    let mut unit_children = 0;
    for (entrant, n) in entrants.into_iter().zip(children) {
        if n == 0 {
            continue;
        }
        unit_parents.push((entrant, n));
        unit_children += n;
        if unit_children >= UNIT_CHILDREN {
            units.push(Brood {
                parents: std::mem::take(&mut unit_parents),
                replicas: by_parent.by_ref().take(unit_children).collect(),
            });
            unit_children = 0;
        }
    }
    if !unit_parents.is_empty() {
        units.push(Brood {
            parents: unit_parents,
            replicas: by_parent.collect(),
        });
    }
    units
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

/// What one unit of a stage hands back: the replicas that crossed the
/// stage's level, each stored with its replica index, and the rounds
/// the unit simulated.
struct Crossings<A: Adversary> {
    horizon: u64,
    level: u64,
    survivors: Vec<(u64, Box<Simulation<A>>)>,
    rounds: u64,
}

impl<A: Adversary + Clone> Crossings<A> {
    /// Races replica `replica`, entered as `sim`, toward the level
    /// until the absolute round `horizon`, and stores a copy of it if
    /// it crosses ([`Simulation::stored_copy`]): a stored state costs
    /// its live fork window, not its history, and changes no result.
    fn race(&mut self, replica: u64, sim: &mut Simulation<A>) {
        let entered_at = sim.round();
        let hit = sim.run_until_depth(self.horizon, self.level);
        self.rounds += sim.round() - entered_at;
        if hit {
            self.survivors.push((replica, sim.stored_copy()));
        }
    }
}

/// One stage's fan-out: runs each unit as `run_unit(unit, crossings)`,
/// one ordered job on the shared [`crate::executor`] pool at the pool's
/// width, with each unit owning its input, and puts the survivors back
/// **in replica order** (the mirror of `fan_out_reports`, carrying
/// engine states instead of reports). Returns the survivors and the
/// rounds simulated.
fn fan_out_stage<A, U, F>(
    units: Vec<U>,
    horizon: u64,
    level: u64,
    run_unit: F,
) -> (Vec<Box<Simulation<A>>>, u64)
where
    A: Adversary + Clone + Send + 'static,
    U: Send + 'static,
    F: Fn(U, &mut Crossings<A>) + Send + Sync + 'static,
{
    let done = executor::run_owned_with(
        units,
        executor::global_width(),
        TaskKind::Leaf,
        move |unit| {
            let mut crossings = Crossings {
                horizon,
                level,
                survivors: Vec::new(),
                rounds: 0,
            };
            run_unit(unit, &mut crossings);
            crossings
        },
        |_, _| {},
    );
    let mut rounds = 0u64;
    let mut survivors = Vec::with_capacity(done.iter().map(|c| c.survivors.len()).sum());
    for crossings in done {
        rounds += crossings.rounds;
        survivors.extend(crossings.survivors);
    }
    survivors.sort_unstable_by_key(|&(replica, _)| replica);
    (survivors.into_iter().map(|(_, sim)| sim).collect(), rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BalanceAdversary, ImmediateReleaseAdversary, PrivateChainAdversary};
    use crate::block::BlockId;
    use crate::metrics::SimReport;
    use crate::montecarlo::TrialPlan;
    use std::sync::atomic::{AtomicI64, Ordering};

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

    /// A resampled stage's units: every picked entrant lands in exactly
    /// one unit, in entrant order, with exactly the replicas that picked
    /// it, in replica order; no unpicked entrant lands anywhere; and a
    /// unit closes at the parent that brings it to `UNIT_CHILDREN`
    /// children.
    #[test]
    fn grouping_puts_each_picked_parent_in_one_unit_with_its_children() {
        let mut selection = SplitMix64::new(5);
        for (states, effort) in [(1usize, 1usize), (1, 90), (9, 1), (40, 40), (400, 4000)] {
            let parents: Vec<usize> = (0..effort)
                .map(|_| selection.next_below(states as u64) as usize)
                .collect();
            let units = group_by_parent((0..states).collect(), &parents);
            let mut placed = Vec::new();
            for (u, unit) in units.iter().enumerate() {
                let mut replicas = unit.replicas.iter();
                for &(state, children) in &unit.parents {
                    let expected: Vec<u64> = (0..effort as u64)
                        .filter(|&r| parents[r as usize] == state)
                        .collect();
                    let got: Vec<u64> = replicas.by_ref().take(children).copied().collect();
                    assert_eq!(
                        got, expected,
                        "{states} states, effort {effort}, state {state}"
                    );
                    placed.push(state);
                }
                assert!(
                    replicas.next().is_none(),
                    "a unit has replicas of no parent"
                );
                let children = unit.replicas.len();
                let last_children = unit.parents.last().unwrap().1;
                if u + 1 < units.len() {
                    assert!(children >= UNIT_CHILDREN, "unit {u} closed early");
                }
                assert!(
                    children - last_children < UNIT_CHILDREN,
                    "unit {u} closed late"
                );
            }
            let mut picked: Vec<usize> = parents.clone();
            picked.sort_unstable();
            picked.dedup();
            assert_eq!(placed, picked, "{states} states, effort {effort}");
        }
    }

    /// A resampled stage equals the plain per-child walk: each replica
    /// clones its parent afresh, reseeds and races, and the survivors
    /// are kept in replica order. Units reuse one engine per unit and
    /// reorder the children by parent, so this checks that `clone_from`
    /// leaves nothing of the previous child behind and that the joiner
    /// restores replica order, at widths 1 and 4.
    #[test]
    fn resampled_stages_equal_a_fresh_clone_per_child_in_replica_order() {
        let config = SimConfig::from_c(100, 4, 3.0, 0.15, 20_260_808).unwrap();
        let plan = SplittingPlan::new(config, 5_000, 96, vec![13]).unwrap();
        let make_adversary = Arc::new(|_| BalanceAdversary::new(4));
        let levels = plan.stage_levels();
        for width in [1, 4] {
            executor::with_test_width(width, || {
                let mut stage_seeder = SplitMix64::new(config.seed ^ STAGE_SEED_TAG);
                let mut entrants = plan
                    .run_stage(0, levels[0], Vec::new(), &mut stage_seeder, &make_adversary)
                    .0;
                for (stage, &level) in levels.iter().enumerate().take(5).skip(1) {
                    let (parents, streams) =
                        resample(&mut stage_seeder.clone(), entrants.len(), plan.effort);
                    let mut expected = Vec::new();
                    let mut expected_rounds = 0;
                    for (replica, &parent) in parents.iter().enumerate() {
                        let mut sim = Simulation::clone(&entrants[parent]);
                        sim.reseed_mining(streams[replica].clone());
                        let entered_at = sim.round();
                        if sim.run_until_depth(plan.rounds, level) {
                            expected.push(sim.report());
                        }
                        expected_rounds += sim.round() - entered_at;
                    }
                    let (survivors, rounds) =
                        plan.run_stage(stage, level, entrants, &mut stage_seeder, &make_adversary);
                    let got: Vec<SimReport> = survivors.iter().map(|sim| sim.report()).collect();
                    assert_eq!(got, expected, "width {width}, stage {stage}");
                    assert_eq!(rounds, expected_rounds, "width {width}, stage {stage}");
                    entrants = survivors;
                }
            });
        }
    }

    /// Live engine states of a splitting run, counted through their
    /// adversaries: each construction and clone counts one, each drop
    /// takes one away, and the peak is kept.
    static LIVE: AtomicI64 = AtomicI64::new(0);
    static PEAK: AtomicI64 = AtomicI64::new(0);

    #[derive(Debug)]
    struct Counted(BalanceAdversary);

    impl Counted {
        fn new(inner: BalanceAdversary) -> Self {
            let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(live, Ordering::SeqCst);
            Counted(inner)
        }
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            Counted::new(self.0.clone())
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl Adversary for Counted {
        fn group_count(&self) -> usize {
            self.0.group_count()
        }

        fn honest_delay(&mut self, round: u64, from_group: usize, to_group: usize) -> u64 {
            self.0.honest_delay(round, from_group, to_group)
        }

        fn act(
            &mut self,
            round: u64,
            group_tips: &[BlockId; 2],
            tree: &mut crate::tree::BlockTree,
            successes: &[u64],
            releases: &mut Vec<crate::adversary::ReleaseDirective>,
        ) {
            self.0.act(round, group_tips, tree, successes, releases);
        }
    }

    /// A resampled stage holds at most `effort` engine states beside one
    /// unit's parents and one working engine per slot: a parent is freed
    /// once its children have run, not at the end of the stage. On
    /// `rare_split`'s cell, whose first levels all hit, keeping the
    /// picked parents through the stage peaks near 1.6 × effort.
    #[test]
    fn a_stage_holds_at_most_effort_states_beside_one_unit() {
        let effort = 256;
        let config = SimConfig::from_c(100, 4, 3.0, 0.15, 20_260_808).unwrap();
        let plan = SplittingPlan::new(config, 5_000, effort, vec![4]).unwrap();
        let run =
            executor::with_test_width(1, || plan.run(|_| Counted::new(BalanceAdversary::new(4))));
        assert_eq!(LIVE.load(Ordering::SeqCst), 0, "a state leaked");
        let all_hit = run.levels.iter().filter(|s| s.hits == effort).count();
        assert!(all_hit >= 2, "want all-hit levels, got {:?}", run.levels);
        let peak = PEAK.load(Ordering::SeqCst);
        let bound = effort as i64 + UNIT_CHILDREN as i64 + 1;
        assert!(
            peak <= bound,
            "{peak} live states at the peak, bound {bound}"
        );
    }

    #[test]
    fn total_rounds_populated() {
        let run = SplittingPlan::new(cfg(3), 500, 4, vec![1])
            .unwrap()
            .run(|_| PrivateChainAdversary::new(3));
        assert!(run.total_rounds > 0);
    }
}
