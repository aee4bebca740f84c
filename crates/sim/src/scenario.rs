//! Declarative time-varying scenarios: phases of adversary power,
//! strategy, and network regime driving one continuous run.
//!
//! The paper's Δ-bounded-delay bounds are worst-case over *all*
//! adversarial schedules, but a stationary simulation (one strategy,
//! one power level, one delay regime for the whole run) only probes a
//! single point of that schedule space. This module drives the round
//! engine through a [`Scenario`]: an ordered list of [`PhaseSpec`]s,
//! each fixing for some number of rounds
//!
//! * the **adversary power** (hash-power shifts re-derive the mining
//!   oracle at the boundary while continuing the same random stream —
//!   see [`crate::oracle::MiningOracle::reconfigure`]),
//! * the **strategy** (a [`StrategyKind`]; withheld private forks are
//!   frozen across a switch and resumed on re-activation), and
//! * the **network regime** (a [`Regime`]: calm delay-1 scheduling,
//!   full-Δ adversarial scheduling, or a one-group eclipse window) —
//!   regimes re-schedule delays *within* the model bound `[1, Δ]`, so
//!   the streaming detectors (derived from Δ) stay valid throughout.
//!
//! Determinism carries over from the stationary engine: a scenario run
//! is a pure function of the base config's seed, and the Monte-Carlo
//! fan-out ([`ScenarioPlan`]) reuses the `montecarlo` trial engine, so
//! aggregates are **bit-identical for a fixed master seed at any
//! thread count**.
//!
//! # Example
//!
//! A calm warm-up, an eclipse window with a power surge and a private
//! chain, then recovery:
//!
//! ```
//! use nakamoto_sim::config::SimConfig;
//! use nakamoto_sim::scenario::{PhaseSpec, Regime, Scenario, ScenarioPlan, StrategyKind};
//!
//! let base = SimConfig::from_c(100, 4, 1.0, 0.1, 7)?;
//! let scenario = Scenario::new(
//!     base,
//!     vec![
//!         PhaseSpec::new(2_000, StrategyKind::Honest, Regime::Calm),
//!         PhaseSpec::new(2_000, StrategyKind::PrivateChain, Regime::Eclipse { group: 1 })
//!             .with_power(0.4),
//!         PhaseSpec::new(2_000, StrategyKind::Honest, Regime::Calm),
//!     ],
//! )?;
//! let run = ScenarioPlan::new(scenario, 4)?.thresholds(vec![12]).run();
//! assert_eq!(run.aggregate.trials, 4);
//! # Ok::<(), nakamoto_sim::config::ConfigError>(())
//! ```

use crate::adversary::{best_tip, Adversary, ReleaseDirective, Strategy};
use crate::block::{BlockId, Round};
use crate::compose::Composition;
use crate::config::{ConfigError, SimConfig};
use crate::execution::Simulation;
use crate::metrics::SimReport;
use crate::montecarlo::{aggregate_reports, fan_out_reports, trial_streams, MonteCarloRun};
use crate::tree::BlockTree;
use probability::rng::Xoshiro256PlusPlus;

/// How the adversary schedules message delays during a phase. Every
/// regime stays within the model bound `[1, Δ]`, so the Δ-derived
/// detectors remain valid across regime changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Benign network: every delivery takes the minimum one round.
    Calm,
    /// Fully adversarial scheduling: every cross-group delivery is
    /// delayed the maximum Δ rounds (the paper's worst case).
    Adversarial,
    /// One honest group is eclipsed: everything delivered *to* it —
    /// honest announcements and adversary releases alike — takes the
    /// full Δ, while the rest of the network stays calm.
    Eclipse {
        /// The eclipsed honest group (0 or 1; forces two groups).
        group: usize,
    },
}

impl Regime {
    /// Delay applied to an honest block delivered to `to_group`.
    fn honest_delay(self, delta: u64, to_group: usize) -> u64 {
        match self {
            Regime::Calm => 1,
            Regime::Adversarial => delta,
            Regime::Eclipse { group } => {
                if to_group == group {
                    delta
                } else {
                    1
                }
            }
        }
    }

    /// Minimum delay for an adversary release to `to_group`: an eclipse
    /// also throttles releases into the eclipsed group (otherwise the
    /// adversary could trivially pierce its own eclipse); the other
    /// regimes let the strategy time its own releases.
    fn release_floor(self, delta: u64, to_group: usize) -> u64 {
        match self {
            Regime::Eclipse { group } if to_group == group => delta,
            _ => 1,
        }
    }

    /// Whether this regime only makes sense with two honest groups.
    fn needs_two_groups(self) -> bool {
        matches!(self, Regime::Eclipse { .. })
    }
}

/// The adversary's mining/release strategy during a phase. Fork state
/// (withheld private blocks) is per-kind and persists across phases:
/// a switch freezes the fork, a switch back resumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Behave honestly: publish every block immediately to all groups.
    Honest,
    /// Withhold a private fork, release on catch-up threat
    /// ([`crate::adversary::PrivateChainAdversary`]).
    PrivateChain,
    /// Keep two honest branches level
    /// ([`crate::adversary::BalanceAdversary`]; forces two groups).
    Balance,
    /// Eyal–Sirer selfish mining
    /// ([`crate::selfish::SelfishMiningAdversary`]).
    Selfish,
    /// Several sub-strategies acting *simultaneously* over a shared
    /// mining-power budget ([`crate::compose::ComposedAdversary`]): the
    /// payload indexes the scenario's composition table
    /// ([`Scenario::with_compositions`]). Each table entry keeps its
    /// own persistent sub-strategy state, frozen and resumed across
    /// phases like the monolithic strategies.
    Composed(usize),
}

/// One phase of a scenario: a duration plus the strategy, regime, and
/// optional parameter overrides in force for those rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    /// Rounds this phase lasts (≥ 1).
    pub rounds: u64,
    /// Active adversary strategy.
    pub strategy: StrategyKind,
    /// Active network regime.
    pub regime: Regime,
    /// Adversary fraction ν during this phase; `None` inherits the base
    /// config's value.
    pub adversary_fraction: Option<f64>,
    /// PoW hardness p during this phase; `None` inherits the base
    /// config's value.
    pub hardness: Option<f64>,
    /// Effective delay bound `Δ_effective` the streaming detectors are
    /// re-derived with at this phase's boundary; `None` inherits the
    /// previous phase's value (ultimately the base config's `Δ`). Must
    /// lie in `[1, Δ]`. The *network* bound stays the base `Δ` — this
    /// only changes what the suffix and convergence detectors treat as
    /// a long-enough quiet gap, e.g. measuring a calm phase at
    /// `Δ_eff = 1`.
    pub detector_delta: Option<u64>,
}

impl PhaseSpec {
    /// A phase of `rounds` rounds with no parameter overrides.
    #[must_use]
    pub fn new(rounds: u64, strategy: StrategyKind, regime: Regime) -> Self {
        PhaseSpec {
            rounds,
            strategy,
            regime,
            adversary_fraction: None,
            hardness: None,
            detector_delta: None,
        }
    }

    /// Overrides the adversary fraction ν for this phase (builder
    /// style) — a hash-power shift at the phase boundary.
    #[must_use]
    pub fn with_power(mut self, adversary_fraction: f64) -> Self {
        self.adversary_fraction = Some(adversary_fraction);
        self
    }

    /// Sets the detectors' effective delay bound for this phase
    /// (builder style): at the boundary both streaming detectors are
    /// re-derived for `delta` — equivalent to fresh detectors, with the
    /// cumulative convergence count carried (see
    /// [`crate::execution::Simulation::reconfigure_detectors`]).
    #[must_use]
    pub fn with_detector_delta(mut self, delta: u64) -> Self {
        self.detector_delta = Some(delta);
        self
    }
}

/// A validated multi-phase scenario over a base configuration.
///
/// The base config provides `n`, `Δ` and the master seed; each phase
/// may override ν and p. `Δ` is fixed for the whole scenario (the
/// streaming detectors are derived from it); regimes vary realised
/// delays within `[1, Δ]` instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    base: SimConfig,
    phases: Vec<PhaseSpec>,
    compositions: Vec<Composition>,
}

impl Scenario {
    /// Validates and builds a scenario with no composition table
    /// (equivalent to [`Scenario::with_compositions`] with an empty
    /// table).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `phases` is empty, any phase lasts 0
    /// rounds, any phase's effective parameters violate
    /// [`SimConfig::validate`], an eclipse names a group ≥ 2, a
    /// detector-Δ override leaves `[1, Δ]`, or a phase references a
    /// composition the table does not hold.
    pub fn new(base: SimConfig, phases: Vec<PhaseSpec>) -> Result<Self, ConfigError> {
        Scenario::with_compositions(base, phases, Vec::new())
    }

    /// Validates and builds a scenario whose phases may run composed
    /// adversaries: [`StrategyKind::Composed`]`(i)` runs the `i`-th
    /// entry of `compositions` (each entry keeps persistent sub-strategy
    /// state across its phases, like the monolithic strategies).
    ///
    /// # Errors
    ///
    /// Same contract as [`Scenario::new`].
    pub fn with_compositions(
        base: SimConfig,
        phases: Vec<PhaseSpec>,
        compositions: Vec<Composition>,
    ) -> Result<Self, ConfigError> {
        base.validate()?;
        if phases.is_empty() {
            return Err(ConfigError::new("a scenario needs at least one phase"));
        }
        let scenario = Scenario {
            base,
            phases,
            compositions,
        };
        for (i, phase) in scenario.phases.iter().enumerate() {
            if phase.rounds == 0 {
                return Err(ConfigError::new(format!(
                    "phase {i} lasts 0 rounds; every phase needs at least one"
                )));
            }
            scenario
                .phase_config(i)
                .validate()
                .map_err(|e| ConfigError::new(format!("phase {i}: {e}")))?;
            if let Regime::Eclipse { group } = phase.regime {
                if group >= 2 {
                    return Err(ConfigError::new(format!(
                        "phase {i} eclipses group {group}; only groups 0 and 1 exist"
                    )));
                }
            }
            if let Some(d) = phase.detector_delta {
                if d == 0 || d > scenario.base.delta {
                    return Err(ConfigError::new(format!(
                        "phase {i} sets detector Δ_effective = {d}; it must lie in [1, Δ = {}]",
                        scenario.base.delta
                    )));
                }
            }
            if let StrategyKind::Composed(c) = phase.strategy {
                if c >= scenario.compositions.len() {
                    return Err(ConfigError::new(format!(
                        "phase {i} runs composition {c}, but the table holds {}",
                        scenario.compositions.len()
                    )));
                }
            }
        }
        Ok(scenario)
    }

    /// The base configuration (also the source of the master seed).
    #[must_use]
    pub fn base(&self) -> &SimConfig {
        &self.base
    }

    /// The phases, in execution order.
    #[must_use]
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// The composition table [`StrategyKind::Composed`] indexes into.
    #[must_use]
    pub fn compositions(&self) -> &[Composition] {
        &self.compositions
    }

    /// The effective detector delay bound of phase `i`: the phase's
    /// override, or — matching the boundary semantics of "no override
    /// keeps the running detectors" — the nearest earlier override,
    /// falling back to the base `Δ`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn detector_delta(&self, i: usize) -> u64 {
        self.phases[..=i] // detlint: allow(panic-slice-index) -- documented # Panics contract: i must be a phase index
            .iter()
            .rev()
            .find_map(|p| p.detector_delta)
            .unwrap_or(self.base.delta)
    }

    /// Total rounds over all phases.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.phases.iter().map(|p| p.rounds).sum()
    }

    /// Honest delivery groups the scenario needs: 2 if any phase runs a
    /// strategy that splits the honest views (a balance attack,
    /// monolithic or as an active composition sub) or an eclipse
    /// window, else 1 — the count its [`ScenarioAdversary`] asks for.
    #[must_use]
    pub fn group_count(&self) -> usize {
        ScenarioAdversary::new(self).group_count()
    }

    /// The effective configuration of phase `i`: the base config with
    /// this phase's overrides applied.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn phase_config(&self, i: usize) -> SimConfig {
        let phase = &self.phases[i];
        let mut cfg = self.base;
        if let Some(nu) = phase.adversary_fraction {
            cfg.adversary_fraction = nu;
        }
        if let Some(p) = phase.hardness {
            cfg.hardness = p;
        }
        cfg
    }
}

/// The engine-facing composition of a scenario's strategies: one
/// [`Adversary`] whose delay policy follows the active [`Regime`] and
/// whose mining/release behaviour delegates to the active phase's
/// [`Strategy`].
///
/// It keeps one persistent strategy per kind the scenario's phases
/// run, and nothing for kinds no phase runs. Every round, each dormant
/// strategy does [`Strategy`]'s dormant-fork bookkeeping: an empty
/// fork base follows the public tip, so it never holds a reference the
/// tree pruner could invalidate; a fork *with* withheld blocks is
/// frozen and kept alive through [`Adversary::live_blocks`] until its
/// strategy runs again — or until the public chain strictly overtakes
/// it, at which point it is abandoned (the move its own strategy would
/// make on resume), so a dead fork cannot pin the pruner and unbound
/// memory across a long dormant phase.
#[derive(Debug, Clone)]
pub struct ScenarioAdversary {
    delta: u64,
    n_groups: usize,
    regime: Regime,
    /// One slot per kind the phases run, in first-use order.
    slots: Vec<(StrategyKind, Strategy)>,
    /// Index of the active phase's slot.
    active: usize,
}

impl ScenarioAdversary {
    /// Builds the adversary for `scenario`, starting in phase 0.
    #[must_use]
    pub fn new(scenario: &Scenario) -> Self {
        let delta = scenario.base().delta;
        let phases = scenario.phases();
        let mut slots: Vec<(StrategyKind, Strategy)> = Vec::new();
        for phase in phases {
            if slots.iter().any(|(kind, _)| *kind == phase.strategy) {
                continue;
            }
            // `Scenario::with_compositions` checks every composition
            // index, so every kind builds.
            if let Some(strategy) = Strategy::new(phase.strategy, delta, scenario.compositions()) {
                slots.push((phase.strategy, strategy));
            }
        }
        let split = slots.iter().any(|(_, slot)| slot.group_count() == 2)
            || phases.iter().any(|p| p.regime.needs_two_groups());
        ScenarioAdversary {
            delta,
            n_groups: if split { 2 } else { 1 },
            regime: phases[0].regime,
            slots,
            // Phase 0's kind is the first slot.
            active: 0,
        }
    }

    /// Switches strategy and regime at a phase boundary. Must only be
    /// called between [`Simulation::run`] segments (the fast-forward
    /// contract assumes the strategy is round-invariant within one),
    /// and only with a kind one of the scenario's phases runs: other
    /// kinds have no slot.
    pub(crate) fn set_phase(&mut self, strategy: StrategyKind, regime: Regime) {
        if let Some(slot) = self.slots.iter().position(|(kind, _)| *kind == strategy) {
            self.active = slot;
        }
        self.regime = regime;
    }

    /// The currently active strategy.
    #[must_use]
    pub fn strategy(&self) -> StrategyKind {
        self.slots[self.active].0
    }

    /// The currently active regime.
    #[must_use]
    pub fn regime(&self) -> Regime {
        self.regime
    }

    /// Applies [`Strategy`]'s dormant-fork bookkeeping to every slot
    /// but the active one.
    fn track_dormant(&mut self, group_tips: &[BlockId; 2], tree: &BlockTree) {
        let best = best_tip(tree, group_tips);
        for (i, (_, slot)) in self.slots.iter_mut().enumerate() {
            if i != self.active {
                slot.track_dormant(best, tree);
            }
        }
    }

    /// The eclipse applies to adversary releases too: nothing enters
    /// the eclipsed group faster than Δ.
    fn apply_release_floor(&self, releases: &mut [ReleaseDirective], start: usize) {
        if let Regime::Eclipse { .. } = self.regime {
            // detlint: allow(panic-slice-index) -- start is a prior releases.len() snapshot, so start <= len
            for release in &mut releases[start..] {
                let floor = self.regime.release_floor(self.delta, release.group);
                release.delay = release.delay.max(floor);
            }
        }
    }
}

impl Adversary for ScenarioAdversary {
    fn group_count(&self) -> usize {
        self.n_groups
    }

    fn honest_delay(&mut self, _round: Round, _from: usize, to_group: usize) -> u64 {
        self.regime.honest_delay(self.delta, to_group)
    }

    fn act(
        &mut self,
        round: Round,
        group_tips: &[BlockId; 2],
        tree: &mut BlockTree,
        successes: &[u64],
        releases: &mut Vec<ReleaseDirective>,
    ) {
        self.track_dormant(group_tips, tree);
        let start = releases.len();
        self.slots[self.active]
            .1
            .act(round, group_tips, tree, successes, releases);
        self.apply_release_floor(releases, start);
    }

    fn sub_miner_counts(&self, n_adversary: u64) -> Option<Vec<u64>> {
        self.slots[self.active].1.sub_miner_counts(n_adversary)
    }

    fn live_blocks(&self) -> Vec<BlockId> {
        // Dormant fork bases follow the public tip (always alive);
        // frozen forks — monolithic or inside a composition — must
        // survive pruning until their strategy resumes.
        self.slots
            .iter()
            .flat_map(|(_, slot)| slot.live_blocks())
            .collect()
    }
}

/// Per-phase slice of a scenario run: additive counters are diffs
/// between the phase's boundary snapshots; depth maxima are cumulative
/// (a reorg's depth cannot be un-observed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseReport {
    /// Rounds simulated in this phase.
    pub rounds: u64,
    /// Honest blocks mined during this phase.
    pub honest_blocks: u64,
    /// Adversary blocks mined during this phase.
    pub adversary_blocks: u64,
    /// Convergence opportunities completed during this phase.
    pub convergence_opportunities: u64,
    /// Reorgs observed during this phase.
    pub reorg_count: u64,
    /// The effective delay bound `Δ_effective` the streaming detectors
    /// ran with during this phase (the base `Δ` unless overridden; see
    /// [`PhaseSpec::with_detector_delta`]).
    pub detector_delta: u64,
    /// Deepest reorg observed up to the end of this phase.
    pub cumulative_max_reorg_depth: u64,
    /// Deepest cross-group divergence observed up to the end of this
    /// phase.
    pub cumulative_max_divergence_depth: u64,
}

/// Result of one scenario run: the final cumulative report plus a
/// per-phase breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Cumulative report over the whole run (what a [`ScenarioPlan`]
    /// aggregates across trials).
    pub final_report: SimReport,
    /// One entry per phase, in order.
    pub phase_reports: Vec<PhaseReport>,
}

/// Drives one simulation through a scenario's phases, snapshotting the
/// cumulative report at every boundary.
#[derive(Debug)]
pub struct ScenarioRunner {
    scenario: Scenario,
    sim: Simulation<ScenarioAdversary>,
    next_phase: usize,
    snapshots: Vec<SimReport>,
}

impl ScenarioRunner {
    /// Builds a runner seeding the mining generator from the base
    /// config's seed.
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        let rng = Xoshiro256PlusPlus::seed_from_u64(scenario.base().seed);
        ScenarioRunner::with_rng(scenario, rng)
    }

    /// Builds a runner driving mining from an explicit generator (how
    /// the Monte-Carlo engine hands each trial its disjoint stream).
    #[must_use]
    pub fn with_rng(scenario: Scenario, rng: Xoshiro256PlusPlus) -> Self {
        let adversary = ScenarioAdversary::new(&scenario);
        let mut sim = Simulation::with_rng(scenario.phase_config(0), adversary, rng);
        // A phase-0 detector override re-derives fresh detectors — and
        // at round 0 the detectors *are* fresh, so this is exactly the
        // engine a base config with that Δ_eff would have built.
        let d0 = scenario.detector_delta(0);
        if d0 != scenario.base().delta {
            sim.reconfigure_detectors(d0);
        }
        ScenarioRunner {
            scenario,
            sim,
            next_phase: 0,
            snapshots: Vec::new(),
        }
    }

    /// Sets the engine's automatic prune cadence (`None` disables
    /// pruning); the scenario fuzzer uses this to prove pruning is
    /// behaviour-invisible on randomly generated scenarios. See
    /// [`Simulation::set_prune_interval`].
    pub fn set_prune_interval(&mut self, interval: Option<u64>) {
        self.sim.set_prune_interval(interval);
    }

    /// Read access to the underlying simulation (round, tree, report —
    /// and the mining-generator snapshot the phase-boundary tests use).
    #[must_use]
    pub fn sim(&self) -> &Simulation<ScenarioAdversary> {
        &self.sim
    }

    /// Runs the next phase to its end: applies the phase's strategy and
    /// regime, re-derives the mining oracle if ν, p or the composed
    /// sub split changed (a no-op boundary otherwise — an unsplit run
    /// and a split-into-identical-phases run are bit-identical),
    /// re-derives the detectors if the phase carries a different
    /// `Δ_effective`, then advances the engine. Returns the cumulative
    /// report at the phase's end, or `None` when every phase has run.
    pub fn run_next_phase(&mut self) -> Option<&SimReport> {
        if self.next_phase >= self.scenario.phases().len() {
            return None;
        }
        let i = self.next_phase;
        let phase = self.scenario.phases()[i];
        if i > 0 {
            let cfg = self.scenario.phase_config(i);
            self.sim
                .adversary_mut()
                .set_phase(phase.strategy, phase.regime);
            self.sim
                .reconfigure_mining(cfg.adversary_fraction, cfg.hardness);
            let d = self.scenario.detector_delta(i);
            if d != self.scenario.detector_delta(i - 1) {
                self.sim.reconfigure_detectors(d);
            }
        }
        self.sim.run(phase.rounds);
        self.snapshots.push(self.sim.report());
        self.next_phase = i + 1;
        self.snapshots.last()
    }

    /// Runs every remaining phase and assembles the scenario report.
    pub fn run_to_completion(&mut self) -> ScenarioReport {
        while self.run_next_phase().is_some() {}
        let final_report = self
            .snapshots
            .last()
            .cloned()
            .expect("a scenario has at least one phase"); // detlint: allow(panic-expect) -- Scenario::new rejects empty phase lists, so one snapshot exists
        let mut phase_reports = Vec::with_capacity(self.snapshots.len());
        let mut prev: Option<&SimReport> = None;
        for (i, snap) in self.snapshots.iter().enumerate() {
            let (rounds, honest, adversary, convergence, reorgs) = match prev {
                None => (
                    snap.rounds,
                    snap.honest_blocks,
                    snap.adversary_blocks,
                    snap.convergence_opportunities,
                    snap.reorg_count,
                ),
                Some(p) => (
                    snap.rounds - p.rounds,
                    snap.honest_blocks - p.honest_blocks,
                    snap.adversary_blocks - p.adversary_blocks,
                    snap.convergence_opportunities - p.convergence_opportunities,
                    snap.reorg_count - p.reorg_count,
                ),
            };
            phase_reports.push(PhaseReport {
                rounds,
                honest_blocks: honest,
                adversary_blocks: adversary,
                convergence_opportunities: convergence,
                reorg_count: reorgs,
                detector_delta: self.scenario.detector_delta(i),
                cumulative_max_reorg_depth: snap.max_reorg_depth,
                cumulative_max_divergence_depth: snap.max_divergence_depth,
            });
            prev = Some(snap);
        }
        ScenarioReport {
            final_report,
            phase_reports,
        }
    }
}

/// Runs a scenario to completion, seeding from the base config's seed.
#[must_use]
pub fn run_scenario(scenario: &Scenario) -> ScenarioReport {
    ScenarioRunner::new(scenario.clone()).run_to_completion()
}

/// Runs a scenario to completion on an explicit generator.
#[must_use]
pub fn run_scenario_with_rng(scenario: &Scenario, rng: Xoshiro256PlusPlus) -> ScenarioReport {
    ScenarioRunner::with_rng(scenario.clone(), rng).run_to_completion()
}

/// A Monte-Carlo experiment over a scenario: independent trials of the
/// full phase sequence, fanned out on the shared deterministic trial
/// engine — the aggregate is bit-identical for a fixed master seed
/// (the base config's seed) at any pool width.
#[derive(Debug, Clone)]
pub struct ScenarioPlan {
    /// The scenario every trial runs.
    pub scenario: Scenario,
    /// Number of independent trials.
    pub trials: u64,
    /// Consistency thresholds `T` tallied per trial.
    pub consistency_thresholds: Vec<u64>,
}

impl ScenarioPlan {
    /// Creates a plan with no thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `trials == 0`.
    pub fn new(scenario: Scenario, trials: u64) -> Result<Self, ConfigError> {
        if trials == 0 {
            return Err(ConfigError::new(
                "a scenario plan needs at least one trial (trials = 0)",
            ));
        }
        Ok(ScenarioPlan {
            scenario,
            trials,
            consistency_thresholds: Vec::new(),
        })
    }

    /// Sets the consistency thresholds to tally (builder style).
    #[must_use]
    pub fn thresholds(mut self, thresholds: Vec<u64>) -> Self {
        self.consistency_thresholds = thresholds;
        self
    }

    /// Runs the trials and reduces the final reports in trial order.
    ///
    /// # Panics
    ///
    /// Panics if `trials` was mutated to 0 after construction
    /// ([`ScenarioPlan::new`] rejects that as a [`ConfigError`]).
    #[must_use]
    pub fn run(&self) -> MonteCarloRun {
        assert!(
            self.trials > 0,
            "empty experiment: construct plans through ScenarioPlan::new"
        );
        let scenario = std::sync::Arc::new(self.scenario.clone());
        let run_one = std::sync::Arc::new(move |_trial: u64, rng: Xoshiro256PlusPlus| {
            run_scenario_with_rng(&scenario, rng).final_report
        });
        let streams = trial_streams(self.scenario.base().seed, self.trials);
        let reports = fan_out_reports(streams, 0, run_one);
        MonteCarloRun {
            aggregate: aggregate_reports(
                &reports,
                self.scenario.total_rounds(),
                &self.consistency_thresholds,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BalanceAdversary, ImmediateReleaseAdversary, PrivateChainAdversary};
    use crate::execution::run_simulation;
    use crate::selfish::SelfishMiningAdversary;

    fn base(nu: f64, seed: u64) -> SimConfig {
        SimConfig::from_c(100, 4, 1.0, nu, seed).unwrap()
    }

    fn phase(rounds: u64, strategy: StrategyKind, regime: Regime) -> PhaseSpec {
        PhaseSpec::new(rounds, strategy, regime)
    }

    /// The acceptance scenario: a power shift, a strategy switch, and
    /// an eclipse window.
    fn acceptance_scenario(seed: u64) -> Scenario {
        Scenario::new(
            base(0.1, seed),
            vec![
                phase(4_000, StrategyKind::Honest, Regime::Calm),
                phase(
                    4_000,
                    StrategyKind::PrivateChain,
                    Regime::Eclipse { group: 1 },
                )
                .with_power(0.4),
                phase(4_000, StrategyKind::Balance, Regime::Adversarial).with_power(0.3),
                phase(4_000, StrategyKind::Honest, Regime::Calm),
            ],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_scenarios() {
        let b = base(0.2, 1);
        assert!(Scenario::new(b, vec![]).is_err(), "no phases");
        assert!(
            Scenario::new(b, vec![phase(0, StrategyKind::Honest, Regime::Calm)]).is_err(),
            "zero-round phase"
        );
        assert!(
            Scenario::new(
                b,
                vec![phase(10, StrategyKind::Honest, Regime::Calm).with_power(0.6)],
            )
            .is_err(),
            "majority adversary in a phase"
        );
        assert!(
            Scenario::new(
                b,
                vec![PhaseSpec {
                    hardness: Some(1.5),
                    ..phase(10, StrategyKind::Honest, Regime::Calm)
                }],
            )
            .is_err(),
            "invalid hardness override"
        );
        assert!(
            Scenario::new(
                b,
                vec![phase(
                    10,
                    StrategyKind::Honest,
                    Regime::Eclipse { group: 2 }
                )],
            )
            .is_err(),
            "eclipse of a nonexistent group"
        );
    }

    #[test]
    fn group_count_follows_phases() {
        let b = base(0.2, 2);
        let one =
            Scenario::new(b, vec![phase(10, StrategyKind::PrivateChain, Regime::Calm)]).unwrap();
        assert_eq!(one.group_count(), 1);
        let balance =
            Scenario::new(b, vec![phase(10, StrategyKind::Balance, Regime::Calm)]).unwrap();
        assert_eq!(balance.group_count(), 2);
        let eclipse = Scenario::new(
            b,
            vec![phase(
                10,
                StrategyKind::Honest,
                Regime::Eclipse { group: 0 },
            )],
        )
        .unwrap();
        assert_eq!(eclipse.group_count(), 2);
    }

    #[test]
    fn phase_config_applies_overrides() {
        let s = Scenario::new(
            base(0.1, 3),
            vec![
                phase(10, StrategyKind::Honest, Regime::Calm),
                PhaseSpec {
                    hardness: Some(1e-4),
                    ..phase(10, StrategyKind::Honest, Regime::Calm).with_power(0.3)
                },
            ],
        )
        .unwrap();
        assert_eq!(s.phase_config(0).adversary_fraction, 0.1);
        assert_eq!(s.phase_config(1).adversary_fraction, 0.3);
        assert_eq!(s.phase_config(1).hardness, 1e-4);
        assert_eq!(s.phase_config(1).delta, s.base().delta, "Δ is fixed");
        assert_eq!(s.total_rounds(), 20);
    }

    /// A single-phase scenario must reproduce the corresponding
    /// stationary engine bit-for-bit: the composition layer adds no
    /// behaviour of its own.
    #[test]
    fn single_phase_equals_stationary_engine() {
        let rounds = 20_000;
        // Private chain under full-Δ scheduling == PrivateChainAdversary.
        let cfg = base(0.35, 11);
        let scenario = Scenario::new(
            cfg,
            vec![phase(
                rounds,
                StrategyKind::PrivateChain,
                Regime::Adversarial,
            )],
        )
        .unwrap();
        let scen = run_scenario(&scenario).final_report;
        let raw = run_simulation(cfg, PrivateChainAdversary::new(cfg.delta), rounds);
        assert_eq!(scen, raw, "private-chain composition");

        // Honest under calm scheduling == ImmediateReleaseAdversary.
        let cfg = base(0.25, 12);
        let scenario =
            Scenario::new(cfg, vec![phase(rounds, StrategyKind::Honest, Regime::Calm)]).unwrap();
        let scen = run_scenario(&scenario).final_report;
        let raw = run_simulation(cfg, ImmediateReleaseAdversary::new(), rounds);
        assert_eq!(scen, raw, "honest composition");

        // Balance under full-Δ scheduling == BalanceAdversary.
        let cfg = base(0.4, 13);
        let scenario = Scenario::new(
            cfg,
            vec![phase(rounds, StrategyKind::Balance, Regime::Adversarial)],
        )
        .unwrap();
        let scen = run_scenario(&scenario).final_report;
        let raw = run_simulation(cfg, BalanceAdversary::new(cfg.delta), rounds);
        assert_eq!(scen, raw, "balance composition");

        // Selfish mining under calm scheduling == SelfishMiningAdversary.
        let cfg = base(0.3, 14);
        let scenario = Scenario::new(
            cfg,
            vec![phase(rounds, StrategyKind::Selfish, Regime::Calm)],
        )
        .unwrap();
        let scen = run_scenario(&scenario).final_report;
        let raw = run_simulation(cfg, SelfishMiningAdversary::new(cfg.delta), rounds);
        assert_eq!(scen, raw, "selfish composition");
    }

    /// Splitting one phase into identical back-to-back phases is a
    /// no-op boundary: the oracle is not re-derived, the buffered gap
    /// survives, and the run is bit-identical to the unsplit one.
    #[test]
    fn identical_phase_split_is_seamless() {
        let cfg = base(0.3, 21);
        let whole = Scenario::new(
            cfg,
            vec![phase(
                24_000,
                StrategyKind::PrivateChain,
                Regime::Adversarial,
            )],
        )
        .unwrap();
        let split = Scenario::new(
            cfg,
            vec![
                phase(7_000, StrategyKind::PrivateChain, Regime::Adversarial),
                phase(9_500, StrategyKind::PrivateChain, Regime::Adversarial),
                phase(7_500, StrategyKind::PrivateChain, Regime::Adversarial),
            ],
        )
        .unwrap();
        assert_eq!(
            run_scenario(&whole).final_report,
            run_scenario(&split).final_report
        );
    }

    /// Engine-level phase-boundary contract: after a power shift, the
    /// rest of the run must be driven by an oracle indistinguishable
    /// from a from-scratch oracle built at the boundary with the new
    /// parameters and the generator state captured there.
    #[test]
    fn power_shift_matches_from_scratch_oracle_at_boundary() {
        use crate::oracle::MiningOracle;
        let scenario = Scenario::new(
            base(0.1, 31),
            vec![
                phase(5_000, StrategyKind::Honest, Regime::Calm),
                phase(5_000, StrategyKind::Honest, Regime::Calm).with_power(0.4),
            ],
        )
        .unwrap();
        let mut runner = ScenarioRunner::new(scenario.clone());
        runner.run_next_phase().unwrap();
        let boundary_rng = runner.sim().mining_rng();
        runner.run_next_phase().unwrap();
        assert!(runner.run_next_phase().is_none());

        // Replay phase 2's mining stream from scratch. The engine's
        // reconfigure discarded the (old-law) buffered gap, so the
        // first thing drawn after the boundary was a fresh gap from the
        // reconfigured oracle — exactly what this oracle produces.
        let cfg2 = scenario.phase_config(1);
        let n_honest = cfg2.n_honest();
        let mut fresh = MiningOracle::new(
            [n_honest, 0],
            cfg2.n_adversary(),
            cfg2.hardness,
            boundary_rng,
        );
        let mut mined = 0u64;
        let mut rounds = 0u64;
        while rounds < 5_000 {
            let (gap, out) = fresh.sample_gap_to_success().unwrap();
            rounds += gap;
            if rounds <= 5_000 {
                mined += out.honest_total() + out.adversary;
            }
        }
        let report = runner.run_to_completion();
        let phase2 = &report.phase_reports[1];
        assert_eq!(
            phase2.honest_blocks + phase2.adversary_blocks,
            mined,
            "post-boundary mining must replay the from-scratch oracle stream"
        );
    }

    /// Power shifts show up in the per-phase rates: an adversary-free
    /// phase mines no adversary blocks, a 0.4-power phase mines plenty.
    #[test]
    fn per_phase_reports_track_power_shifts() {
        let scenario = Scenario::new(
            base(0.0, 41),
            vec![
                phase(10_000, StrategyKind::Honest, Regime::Calm),
                phase(10_000, StrategyKind::PrivateChain, Regime::Adversarial).with_power(0.4),
                phase(10_000, StrategyKind::Honest, Regime::Calm).with_power(0.0),
            ],
        )
        .unwrap();
        let report = run_scenario(&scenario);
        assert_eq!(report.phase_reports.len(), 3);
        assert_eq!(report.phase_reports[0].adversary_blocks, 0, "ν = 0 phase");
        assert!(
            report.phase_reports[1].adversary_blocks > 0,
            "ν = 0.4 phase mines adversary blocks"
        );
        assert_eq!(report.phase_reports[2].adversary_blocks, 0, "ν back to 0");
        let total: u64 = report.phase_reports.iter().map(|p| p.rounds).sum();
        assert_eq!(total, scenario.total_rounds());
        assert_eq!(report.final_report.rounds, scenario.total_rounds());
        // Per-phase additive counters recompose into the final report.
        assert_eq!(
            report
                .phase_reports
                .iter()
                .map(|p| p.honest_blocks)
                .sum::<u64>(),
            report.final_report.honest_blocks
        );
    }

    /// An eclipse window isolates one group: while it lasts, the two
    /// groups' views diverge far deeper than under calm scheduling.
    #[test]
    fn eclipse_window_creates_divergence() {
        let calm = Scenario::new(
            base(0.2, 51),
            vec![
                // A Balance phase forces two groups without an eclipse.
                phase(200, StrategyKind::Balance, Regime::Calm),
                phase(30_000, StrategyKind::Honest, Regime::Calm),
            ],
        )
        .unwrap();
        let eclipsed = Scenario::new(
            base(0.2, 51),
            vec![
                phase(200, StrategyKind::Balance, Regime::Calm),
                phase(30_000, StrategyKind::Honest, Regime::Eclipse { group: 1 }),
            ],
        )
        .unwrap();
        let calm_div = run_scenario(&calm).final_report.max_divergence_depth;
        let ecl_div = run_scenario(&eclipsed).final_report.max_divergence_depth;
        assert!(
            ecl_div > calm_div,
            "eclipse divergence {ecl_div} should exceed calm {calm_div}"
        );
    }

    /// Acceptance: the multi-phase scenario (power shift + strategy
    /// switch + eclipse window) aggregates on the pool bit-identically
    /// to a plain sequential loop over the jump-derived trial streams.
    #[test]
    fn multi_phase_aggregate_matches_sequential_reference() {
        let plan = ScenarioPlan::new(acceptance_scenario(99), 8)
            .unwrap()
            .thresholds(vec![0, 6, 12]);
        let pooled = plan.run();
        let reports: Vec<SimReport> = trial_streams(plan.scenario.base().seed, 8)
            .into_iter()
            .map(|rng| run_scenario_with_rng(&plan.scenario, rng).final_report)
            .collect();
        let sequential = aggregate_reports(&reports, plan.scenario.total_rounds(), &[0, 6, 12]);
        assert_eq!(pooled.aggregate.trials, 8);
        assert_eq!(pooled.aggregate, sequential);
    }

    /// A fork frozen at a strategy switch must stop pinning the tree
    /// pruner once the public chain strictly overtakes it: a long
    /// dormant phase after an attack keeps bounded memory.
    #[test]
    fn overtaken_frozen_fork_does_not_block_pruning() {
        let scenario = Scenario::new(
            base(0.45, 81),
            vec![
                phase(2_000, StrategyKind::PrivateChain, Regime::Adversarial),
                phase(200_000, StrategyKind::Honest, Regime::Calm).with_power(0.0),
            ],
        )
        .unwrap();
        let mut runner = ScenarioRunner::new(scenario);
        runner.run_next_phase().unwrap();
        let adversary = runner.sim().adversary();
        let Strategy::PrivateChain(private) = &adversary.slots[adversary.active].1 else {
            panic!("phase 1 runs the private-chain slot");
        };
        assert!(
            private.withheld_len() > 0,
            "phase 1 must end with a frozen withheld fork for this test to bite"
        );
        runner.run_next_phase().unwrap();
        let resident = runner.sim().tree().len();
        assert!(
            resident < 16_384,
            "dormant phase pinned the pruner: {resident} resident blocks"
        );
    }

    #[test]
    fn scenario_plan_rejects_zero_trials() {
        assert!(ScenarioPlan::new(acceptance_scenario(1), 0).is_err());
    }

    #[test]
    fn validation_rejects_bad_compositions_and_detector_deltas() {
        use crate::compose::{Composition, SubSpec};
        let b = base(0.2, 1);
        assert!(
            Scenario::new(b, vec![phase(10, StrategyKind::Composed(0), Regime::Calm)],).is_err(),
            "composition index without a table"
        );
        let table = vec![Composition::new(vec![SubSpec::new(StrategyKind::Balance, 1)]).unwrap()];
        assert!(
            Scenario::with_compositions(
                b,
                vec![phase(10, StrategyKind::Composed(1), Regime::Calm)],
                table.clone(),
            )
            .is_err(),
            "composition index out of range"
        );
        assert!(
            Scenario::with_compositions(
                b,
                vec![phase(10, StrategyKind::Composed(0), Regime::Calm)],
                table,
            )
            .is_ok(),
            "in-range composition index"
        );
        assert!(
            Scenario::new(
                b,
                vec![phase(10, StrategyKind::Honest, Regime::Calm).with_detector_delta(0)],
            )
            .is_err(),
            "Δ_effective = 0"
        );
        assert!(
            Scenario::new(
                b,
                vec![phase(10, StrategyKind::Honest, Regime::Calm)
                    .with_detector_delta(b.delta + 1)],
            )
            .is_err(),
            "Δ_effective above the model bound"
        );
    }

    /// A single composed phase under full-Δ scheduling must reproduce
    /// the stationary composed engine bit-for-bit, exactly like the
    /// monolithic strategies (the Balance sub's max-delay vote makes
    /// the standalone delay policy coincide with the Adversarial
    /// regime).
    #[test]
    fn single_composed_phase_equals_stationary_composed_run() {
        use crate::compose::{ComposedAdversary, Composition, SubSpec};
        let rounds = 20_000;
        let cfg = base(0.4, 15);
        let composition = Composition::new(vec![
            SubSpec::new(StrategyKind::Balance, 2),
            SubSpec::new(StrategyKind::Selfish, 1),
        ])
        .unwrap();
        let scenario = Scenario::with_compositions(
            cfg,
            vec![phase(
                rounds,
                StrategyKind::Composed(0),
                Regime::Adversarial,
            )],
            vec![composition.clone()],
        )
        .unwrap();
        let scen = run_scenario(&scenario).final_report;
        let raw = run_simulation(cfg, ComposedAdversary::new(cfg.delta, composition), rounds);
        assert_eq!(scen, raw, "composed composition");
    }

    /// A composed phase's frozen sub-forks must not pin the tree pruner
    /// across a long dormant phase (the composed analogue of the
    /// monolithic overtaken-frozen-fork test).
    #[test]
    fn dormant_composed_forks_do_not_block_pruning() {
        use crate::compose::{Composition, SubSpec};
        let composition = Composition::new(vec![
            SubSpec::new(StrategyKind::PrivateChain, 1),
            SubSpec::new(StrategyKind::Selfish, 1),
        ])
        .unwrap();
        let scenario = Scenario::with_compositions(
            base(0.45, 82),
            vec![
                phase(2_000, StrategyKind::Composed(0), Regime::Adversarial),
                phase(200_000, StrategyKind::Honest, Regime::Calm).with_power(0.0),
            ],
            vec![composition],
        )
        .unwrap();
        let mut runner = ScenarioRunner::new(scenario);
        runner.run_next_phase().unwrap();
        runner.run_next_phase().unwrap();
        let resident = runner.sim().tree().len();
        assert!(
            resident < 16_384,
            "dormant composed phase pinned the pruner: {resident} resident blocks"
        );
    }

    /// Per-phase Δ_effective: re-deriving the detectors never touches
    /// the mining dynamics, only the measurement — a calm phase
    /// measured at Δ_eff = 1 counts strictly more convergence
    /// opportunities than the same phase measured at the network bound.
    #[test]
    fn per_phase_detector_delta_recounts_convergence() {
        let rounds = 20_000;
        let phases = |detector: Option<u64>| {
            let mut second = phase(rounds, StrategyKind::Honest, Regime::Calm);
            if let Some(d) = detector {
                second = second.with_detector_delta(d);
            }
            vec![
                phase(rounds, StrategyKind::Honest, Regime::Calm),
                second,
                phase(rounds, StrategyKind::Honest, Regime::Calm),
            ]
        };
        let plain = Scenario::new(base(0.1, 91), phases(None)).unwrap();
        let refined = Scenario::new(base(0.1, 91), phases(Some(1))).unwrap();
        // Sticky semantics: a later phase without an override inherits
        // the nearest earlier Δ_eff.
        assert_eq!(refined.detector_delta(0), 4);
        assert_eq!(refined.detector_delta(1), 1);
        assert_eq!(refined.detector_delta(2), 1);
        let plain = run_scenario(&plain);
        let refined = run_scenario(&refined);
        for (a, b) in plain.phase_reports.iter().zip(&refined.phase_reports) {
            assert_eq!(a.honest_blocks, b.honest_blocks, "dynamics untouched");
            assert_eq!(a.adversary_blocks, b.adversary_blocks);
        }
        assert_eq!(
            plain.phase_reports[0].convergence_opportunities,
            refined.phase_reports[0].convergence_opportunities,
            "identical before the boundary"
        );
        assert!(
            refined.phase_reports[1].convergence_opportunities
                > plain.phase_reports[1].convergence_opportunities,
            "Δ_eff = 1 must count strictly more opportunities: {} vs {}",
            refined.phase_reports[1].convergence_opportunities,
            plain.phase_reports[1].convergence_opportunities,
        );
        assert_eq!(plain.phase_reports[1].detector_delta, 4);
        assert_eq!(refined.phase_reports[1].detector_delta, 1);
        assert_eq!(refined.phase_reports[2].detector_delta, 1, "sticky");
    }

    /// Per-phase Δ_effective re-derivation is equivalent to running a
    /// fresh engine over the boundary: the refined phase's opportunity
    /// count must equal a from-scratch Δ_eff detector fed the same
    /// post-boundary rounds (proven here through the whole engine, not
    /// just the detector unit tests). The phase also shifts power so
    /// the boundary discards the buffered quiet gap — that is what
    /// makes a from-scratch oracle replay exact (see
    /// `power_shift_matches_from_scratch_oracle_at_boundary`).
    #[test]
    fn detector_rederivation_matches_fresh_detector_at_boundary() {
        use crate::events::ConvergenceDetector;
        use crate::oracle::MiningOracle;
        let rounds = 10_000;
        let scenario = Scenario::new(
            base(0.1, 93),
            vec![
                phase(rounds, StrategyKind::Honest, Regime::Calm),
                phase(rounds, StrategyKind::Honest, Regime::Calm)
                    .with_power(0.3)
                    .with_detector_delta(2),
            ],
        )
        .unwrap();
        let mut runner = ScenarioRunner::new(scenario.clone());
        runner.run_next_phase().unwrap();
        let boundary_rng = runner.sim().mining_rng();
        let report = runner.run_to_completion();

        // Replay phase 2's mining stream on a fresh oracle and feed the
        // honest totals to a fresh Δ_eff = 2 detector.
        let cfg = scenario.phase_config(1);
        let mut oracle = MiningOracle::new(
            [cfg.n_honest(), 0],
            cfg.n_adversary(),
            cfg.hardness,
            boundary_rng,
        );
        let mut fresh = ConvergenceDetector::new(2);
        let mut r = 0u64;
        while r < rounds {
            let (gap, out) = oracle.sample_gap_to_success().unwrap();
            if r + gap > rounds {
                fresh.advance_n_run(rounds - r);
                break;
            }
            fresh.advance_n_run(gap - 1);
            fresh.update(out.honest_total());
            r += gap;
        }
        assert_eq!(
            report.phase_reports[1].convergence_opportunities,
            fresh.count(),
            "phase 2 must count exactly what a fresh Δ_eff detector counts"
        );
    }

    /// A frozen private fork survives a strategy switch and resumes.
    #[test]
    fn withheld_fork_frozen_across_phases() {
        use crate::block::Provenance;
        let mut tree = BlockTree::new();
        let mut honest_tip = BlockId::GENESIS;
        for r in 1..=2 {
            honest_tip = tree.add_block(honest_tip, r, Provenance::Honest(0));
        }
        let scenario = Scenario::new(
            base(0.3, 61),
            vec![
                phase(10, StrategyKind::PrivateChain, Regime::Adversarial),
                phase(10, StrategyKind::Honest, Regime::Calm),
                phase(10, StrategyKind::PrivateChain, Regime::Adversarial),
            ],
        )
        .unwrap();
        let mut adv = ScenarioAdversary::new(&scenario);
        // Phase 1: mine a big private lead (5 blocks over height 2).
        let mut buf = Vec::new();
        adv.act(3, &[honest_tip, honest_tip], &mut tree, &[5], &mut buf);
        assert!(buf.is_empty(), "a 5-lead fork stays withheld");
        let frozen = adv.live_blocks();
        // Phase 2: honest behaviour; the fork must stay frozen and alive.
        adv.set_phase(StrategyKind::Honest, Regime::Calm);
        buf.clear();
        adv.act(4, &[honest_tip, honest_tip], &mut tree, &[1], &mut buf);
        assert_eq!(buf.len(), 2, "honest phase publishes to both groups");
        assert!(
            adv.live_blocks().contains(&frozen[0]),
            "frozen fork tip stays pinned for the pruner"
        );
        // Phase 3: switch back; the fork resumes from its frozen tip.
        adv.set_phase(StrategyKind::PrivateChain, Regime::Adversarial);
        buf.clear();
        adv.act(5, &[honest_tip, honest_tip], &mut tree, &[1], &mut buf);
        assert!(
            tree.is_ancestor(frozen[0], adv.live_blocks()[0]),
            "resumed fork extends the frozen tip"
        );
    }

    /// Eclipse regime: releases into the eclipsed group are floored to
    /// Δ, releases elsewhere keep the strategy's timing.
    #[test]
    fn eclipse_floors_release_delays() {
        let scenario = Scenario::new(
            base(0.3, 71),
            vec![phase(
                10,
                StrategyKind::Honest,
                Regime::Eclipse { group: 1 },
            )],
        )
        .unwrap();
        let mut adv = ScenarioAdversary::new(&scenario);
        assert_eq!(adv.honest_delay(1, 0, 1), 4, "into the eclipse: Δ");
        assert_eq!(adv.honest_delay(1, 1, 0), 1, "out of the eclipse: calm");
        let mut tree = BlockTree::new();
        let mut buf = Vec::new();
        adv.act(
            1,
            &[BlockId::GENESIS, BlockId::GENESIS],
            &mut tree,
            &[1],
            &mut buf,
        );
        let to_eclipsed: Vec<_> = buf.iter().filter(|r| r.group == 1).collect();
        let to_open: Vec<_> = buf.iter().filter(|r| r.group == 0).collect();
        assert!(to_eclipsed.iter().all(|r| r.delay == 4));
        assert!(to_open.iter().all(|r| r.delay == 1));
    }
}
