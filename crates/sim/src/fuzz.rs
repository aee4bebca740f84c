//! Randomized scenario fuzzing: a seeded generator over the combined
//! *scenario × composition* space, asserting engine invariants on every
//! generated case.
//!
//! The scenario subsystem's contracts — pool bit-identity,
//! behaviour-invisible pruning, monotone cumulative counters — are each
//! proven by targeted unit tests on hand-written scenarios, but the
//! space of phase grids, power splits, network regimes, detector
//! re-derivations and strategy compositions is far too large for
//! hand-written coverage. The [`ScenarioFuzzer`] samples that space
//! (phase counts, durations, ν/p overrides, regimes, `Δ_effective`
//! overrides, and composition tables with random sub-strategy weights —
//! zero-weight passengers included) and checks, per case:
//!
//! 1. **Pool bit-identity** — a two-trial [`ScenarioPlan`] aggregate
//!    computed on the shared executor pool is bit-identical to a plain
//!    sequential loop over the same jump-derived trial streams.
//! 2. **Pruning-liveness** — a pruned run and an unpruned run of the
//!    same scenario produce identical final and per-phase reports, and
//!    the pruned tree never holds more blocks than the unpruned one.
//! 3. **Prefix monotonicity** — along the phase snapshots of one run,
//!    every cumulative counter (rounds, blocks, convergence
//!    opportunities, reorgs, depth maxima, group heights) is
//!    nondecreasing, and the per-phase rounds recompose into the
//!    scenario total.
//!
//! A violation aborts the run with a [`FuzzFailure`] carrying the full
//! sampled case as a TOML repro ([`FuzzFailure::repro_toml`]) whose
//! `[fuzz]` header holds the `(master_seed, case)` pair that
//! `scenario_fuzz --replay` regenerates it from exactly. CI runs a few
//! thousand cases per PR with a
//! run-unique seed and uploads the repro as an artifact on failure.
//!
//! # Example
//!
//! ```
//! use nakamoto_sim::fuzz::ScenarioFuzzer;
//!
//! let stats = ScenarioFuzzer::new(7).run(4).expect("invariants hold");
//! assert_eq!(stats.cases, 4);
//! ```

use crate::compose::{Composition, SubSpec};
use crate::config::SimConfig;
use crate::metrics::SimReport;
use crate::montecarlo::{aggregate_reports, trial_streams};
use crate::scenario::{
    run_scenario_with_rng, PhaseSpec, Regime, Scenario, ScenarioPlan, ScenarioRunner, StrategyKind,
};
use crate::spec::{ExperimentMode, ExperimentSpec, FuzzHeader, RunSettings};
use probability::rng::{RandomSource, SplitMix64};
use std::fmt;

/// Aggregate statistics of a completed fuzz run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzStats {
    /// Generated cases, all of which passed every invariant.
    pub cases: u64,
    /// Cases whose scenario ran at least one composed phase.
    pub composed_cases: u64,
    /// Total phases across all generated scenarios.
    pub phases: u64,
    /// Scenario rounds per single execution, summed over cases (each
    /// case executes the scenario several times for the invariants).
    pub rounds: u64,
}

/// A failed invariant, carrying everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Master seed the fuzzer ran with.
    pub master_seed: u64,
    /// Index of the failing case under that seed (replay with
    /// `scenario_fuzz --replay`).
    pub case: u64,
    /// Which invariant was violated.
    pub invariant: &'static str,
    /// Human-readable mismatch description.
    pub detail: String,
    /// The sampled scenario that triggered the failure.
    pub scenario: Scenario,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fuzz case {} (master seed {:#x}) violated `{}`: {}",
            self.case, self.master_seed, self.invariant, self.detail
        )
    }
}

impl std::error::Error for FuzzFailure {}

impl FuzzFailure {
    /// Renders the failing case as a **directly runnable experiment
    /// spec** (see [`crate::spec`]) — the artifact the CI fuzz job
    /// uploads. The `[fuzz]` table records the exact `(master_seed,
    /// case)` replay coordinates; the body is the sampled scenario in
    /// the standard spec schema, so the document loads through
    /// [`ExperimentSpec::parse`] for `scenario_fuzz --replay` and the
    /// `experiment` harness alike.
    #[must_use]
    pub fn repro_toml(&self) -> String {
        let mut out = String::new();
        out.push_str("# scenario_fuzz failing case\n");
        out.push_str("# replay: scenario_fuzz --replay <this file>\n");
        out.push_str(&self.to_spec().to_toml());
        out
    }

    /// The failing case as an [`ExperimentSpec`]: the sampled scenario
    /// plus the trial settings the invariant checker runs (two trials,
    /// threshold 6 — see [`check_scenario`]), stamped with the replay
    /// coordinates in the `[fuzz]` table.
    #[must_use]
    pub fn to_spec(&self) -> ExperimentSpec {
        ExperimentSpec {
            run: RunSettings {
                trials: 2,
                thresholds: vec![6],
                ..RunSettings::default()
            },
            base: *self.scenario.base(),
            compositions: self.scenario.compositions().to_vec(),
            mode: ExperimentMode::Scenario(self.scenario.phases().to_vec()),
            sweep: None,
            fuzz: Some(FuzzHeader {
                master_seed: self.master_seed,
                case: self.case,
                invariant: self.invariant.to_string(),
                detail: self.detail.clone(),
            }),
        }
    }
}

/// The seeded scenario fuzzer (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct ScenarioFuzzer {
    master_seed: u64,
    next_case: u64,
}

impl ScenarioFuzzer {
    /// Creates a fuzzer; every run is a pure function of `master_seed`.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        ScenarioFuzzer {
            master_seed,
            next_case: 0,
        }
    }

    /// Generates and checks the next `budget` cases. Returns the run's
    /// statistics, or the first failing case. Calling `run` again
    /// continues with fresh cases (the case counter persists).
    ///
    /// # Errors
    ///
    /// Returns a [`FuzzFailure`] describing the first violated
    /// invariant, replayable with `scenario_fuzz --replay`.
    pub fn run(&mut self, budget: u64) -> Result<FuzzStats, Box<FuzzFailure>> {
        let mut stats = FuzzStats {
            cases: 0,
            composed_cases: 0,
            phases: 0,
            rounds: 0,
        };
        for _ in 0..budget {
            let case = self.next_case;
            self.next_case += 1;
            let scenario = sample_scenario(self.master_seed, case);
            stats.cases += 1;
            stats.phases += scenario.phases().len() as u64;
            stats.rounds += scenario.total_rounds();
            if scenario
                .phases()
                .iter()
                .any(|p| matches!(p.strategy, StrategyKind::Composed(_)))
            {
                stats.composed_cases += 1;
            }
            check_scenario(&scenario).map_err(|(invariant, detail)| {
                Box::new(FuzzFailure {
                    master_seed: self.master_seed,
                    case,
                    invariant,
                    detail,
                    scenario: scenario.clone(),
                })
            })?;
        }
        Ok(stats)
    }
}

/// The scenario the generator samples for `(master_seed, case)` — the
/// coordinates a repro spec's `[fuzz]` table records. Replay tooling
/// (`scenario_fuzz --replay`) uses this to verify a saved repro
/// against the case it claims to reproduce.
#[must_use]
pub fn sample_scenario_for(master_seed: u64, case: u64) -> Scenario {
    sample_scenario(master_seed, case)
}

/// Derives the per-case generator: cases are independent SplitMix64
/// streams, so any case replays in O(1) without re-walking its
/// predecessors.
fn case_rng(master_seed: u64, case: u64) -> SplitMix64 {
    SplitMix64::new(master_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Samples one random scenario. Every sampled point satisfies
/// [`Scenario::with_compositions`]'s validation by construction, so a
/// validation error here is a generator bug and panics.
fn sample_scenario(master_seed: u64, case: u64) -> Scenario {
    let rng = &mut case_rng(master_seed, case);
    let n = 40 + rng.next_below(121);
    let delta = 1 + rng.next_below(4);
    let c = [0.5, 1.0, 2.0, 4.0][rng.next_below(4) as usize];
    let nu = 0.05 * rng.next_below(10) as f64;
    let base = SimConfig::from_c(n, delta, c, nu, rng.next_u64()).expect("generator: base config"); // detlint: allow(panic-expect) -- the generator samples n, delta, c, nu inside SimConfig accepted ranges

    let compositions: Vec<Composition> = (0..rng.next_below(3))
        .map(|_| sample_composition(rng))
        .collect();
    let strategy_space = 4 + compositions.len() as u64;

    let n_phases = 1 + rng.next_below(3);
    let phases = (0..n_phases)
        .map(|_| {
            let strategy = match rng.next_below(strategy_space) {
                0 => StrategyKind::Honest,
                1 => StrategyKind::PrivateChain,
                2 => StrategyKind::Balance,
                3 => StrategyKind::Selfish,
                i => StrategyKind::Composed((i - 4) as usize),
            };
            let regime = match rng.next_below(4) {
                0 | 1 => Regime::Calm,
                2 => Regime::Adversarial,
                _ => Regime::Eclipse {
                    group: rng.next_below(2) as usize,
                },
            };
            let mut phase = PhaseSpec::new(200 + rng.next_below(1_301), strategy, regime);
            if rng.next_below(2) == 0 {
                phase = phase.with_power(0.05 * rng.next_below(10) as f64);
            }
            if rng.next_below(3) == 0 {
                phase = phase.with_detector_delta(1 + rng.next_below(delta));
            }
            phase
        })
        .collect();
    // detlint: allow(panic-expect) -- the generator builds phases and compositions within Scenario constraints
    Scenario::with_compositions(base, phases, compositions).expect("generator: scenario")
}

/// Samples one composition: 1–3 subs of random kind and weight 0–3
/// (zero-weight passengers deliberately included — they must be
/// no-ops), with at least one positive weight.
fn sample_composition(rng: &mut SplitMix64) -> Composition {
    let kinds = [
        StrategyKind::Honest,
        StrategyKind::PrivateChain,
        StrategyKind::Balance,
        StrategyKind::Selfish,
    ];
    let n_subs = 1 + rng.next_below(3);
    let mut subs: Vec<SubSpec> = (0..n_subs)
        .map(|_| SubSpec::new(kinds[rng.next_below(4) as usize], rng.next_below(4)))
        .collect();
    if subs.iter().all(|s| s.weight == 0) {
        subs[0].weight = 1;
    }
    Composition::new(subs).expect("generator: composition") // detlint: allow(panic-expect) -- a nonzero weight is forced two lines above
}

/// Checks every engine invariant (pool bit-identity,
/// pruning-liveness, prefix monotonicity) on one scenario, exactly as
/// the fuzzer does per sampled case. Returns `(invariant, detail)` on
/// the first violation.
///
/// This is the `scenario_fuzz --replay` entry point: a saved repro
/// spec's scenario goes back through the same checks that failed.
///
/// # Errors
///
/// Returns the violated invariant's name and a human-readable mismatch
/// description.
pub fn check_scenario(scenario: &Scenario) -> Result<(), (&'static str, String)> {
    // 1. Pool bit-identity: a small Monte-Carlo fan-out on the shared
    // pool against a plain sequential loop over the same trial streams.
    let plan = ScenarioPlan::new(scenario.clone(), 2)
        .expect("two trials") // detlint: allow(panic-expect) -- trials = 2 is statically nonzero
        .thresholds(vec![6]);
    let pooled = plan.run().aggregate;
    let reports: Vec<SimReport> = trial_streams(scenario.base().seed, 2)
        .into_iter()
        .map(|rng| run_scenario_with_rng(scenario, rng).final_report)
        .collect();
    let sequential = aggregate_reports(&reports, scenario.total_rounds(), &[6]);
    if pooled != sequential {
        return Err((
            "pool bit-identity",
            format!("pooled and sequential aggregates diverge: {pooled:?} vs {sequential:?}"),
        ));
    }

    // 2 + 3. One pruned run stepped phase by phase (snapshots feed the
    // monotonicity checks) against one unpruned run. Sampled scenarios
    // are usually shorter than the engine's default prune cadence
    // (4096 rounds), which would leave this invariant vacuous — force a
    // tight cadence so every case actually prunes many times while
    // forks are live, frozen, and composed.
    let mut pruned = ScenarioRunner::new(scenario.clone());
    pruned.set_prune_interval(Some(64));
    let mut snapshots: Vec<SimReport> = Vec::with_capacity(scenario.phases().len());
    while let Some(report) = pruned.run_next_phase() {
        snapshots.push(report.clone());
    }
    let pruned_len = pruned.sim().tree().len();
    let pruned_report = pruned.run_to_completion();

    let mut unpruned = ScenarioRunner::new(scenario.clone());
    unpruned.set_prune_interval(None);
    let unpruned_report = unpruned.run_to_completion();
    let unpruned_len = unpruned.sim().tree().len();

    if pruned_report != unpruned_report {
        return Err((
            "pruning-liveness",
            format!(
                "pruned and unpruned runs disagree: {:?} vs {:?}",
                pruned_report.final_report, unpruned_report.final_report
            ),
        ));
    }
    if pruned_len > unpruned_len {
        return Err((
            "pruning-liveness",
            format!("pruned tree holds {pruned_len} blocks, unpruned only {unpruned_len}"),
        ));
    }

    let mut prev: Option<&SimReport> = None;
    for (i, snap) in snapshots.iter().enumerate() {
        if let Some(p) = prev {
            let monotone = snap.rounds >= p.rounds
                && snap.honest_blocks >= p.honest_blocks
                && snap.adversary_blocks >= p.adversary_blocks
                && snap.convergence_opportunities >= p.convergence_opportunities
                && snap.reorg_count >= p.reorg_count
                && snap.max_reorg_depth >= p.max_reorg_depth
                && snap.max_divergence_depth >= p.max_divergence_depth
                && snap
                    .group_heights
                    .iter()
                    .zip(&p.group_heights)
                    .all(|(now, before)| now >= before);
            if !monotone {
                return Err((
                    "prefix monotonicity",
                    format!(
                        "phase {i} snapshot regressed a cumulative counter: {snap:?} after {p:?}"
                    ),
                ));
            }
        }
        prev = Some(snap);
    }
    let phase_round_sum: u64 = pruned_report.phase_reports.iter().map(|p| p.rounds).sum();
    if phase_round_sum != scenario.total_rounds() {
        return Err((
            "prefix monotonicity",
            format!(
                "per-phase rounds sum to {phase_round_sum}, scenario declares {}",
                scenario.total_rounds()
            ),
        ));
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fuzzer's own acceptance: a deterministic budget of random
    /// scenario × composition cases passes every invariant. (CI runs a
    /// few thousand cases in release; this keeps a debug-sized slice in
    /// the tier-1 suite.)
    #[test]
    fn fuzz_budget_passes_invariants() {
        let stats = ScenarioFuzzer::new(0xF022_5EED)
            .run(24)
            .unwrap_or_else(|failure| panic!("{failure}\n{}", failure.repro_toml()));
        assert_eq!(stats.cases, 24);
        assert!(stats.phases >= 24);
        assert!(stats.rounds > 0);
    }

    /// Replay must regenerate the identical scenario.
    #[test]
    fn replay_is_deterministic() {
        let a = sample_scenario(42, 7);
        let b = sample_scenario(42, 7);
        assert_eq!(a, b);
        let c = sample_scenario(42, 8);
        assert_ne!(a, c, "distinct cases sample distinct scenarios");
        assert!(check_scenario(&sample_scenario(42, 7)).is_ok());
    }

    /// The generator must actually exercise the interesting corners:
    /// compositions, detector overrides, eclipse windows, power shifts.
    #[test]
    fn generator_covers_the_space() {
        let mut composed = 0u64;
        let mut detector = 0u64;
        let mut eclipse = 0u64;
        let mut power = 0u64;
        let mut zero_weight = 0u64;
        for case in 0..200 {
            let s = sample_scenario(1234, case);
            for phase in s.phases() {
                if matches!(phase.strategy, StrategyKind::Composed(_)) {
                    composed += 1;
                }
                if phase.detector_delta.is_some() {
                    detector += 1;
                }
                if matches!(phase.regime, Regime::Eclipse { .. }) {
                    eclipse += 1;
                }
                if phase.adversary_fraction.is_some() {
                    power += 1;
                }
            }
            for composition in s.compositions() {
                zero_weight += composition.subs().iter().filter(|s| s.weight == 0).count() as u64;
            }
        }
        assert!(composed > 20, "composed phases: {composed}");
        assert!(detector > 50, "detector overrides: {detector}");
        assert!(eclipse > 50, "eclipse phases: {eclipse}");
        assert!(power > 100, "power overrides: {power}");
        assert!(zero_weight > 20, "zero-weight passengers: {zero_weight}");
    }

    /// The repro document names the replay coordinates and the sampled
    /// grid.
    #[test]
    fn repro_toml_is_complete() {
        let scenario = sample_scenario(99, 3);
        let failure = FuzzFailure {
            master_seed: 99,
            case: 3,
            invariant: "pool bit-identity",
            detail: "example \"quoted\" detail".into(),
            scenario: scenario.clone(),
        };
        let toml = failure.repro_toml();
        assert!(toml.contains("[fuzz]"));
        assert!(toml.contains("master_seed = 99"));
        assert!(toml.contains("case = 3"));
        assert!(toml.contains("invariant = \"pool bit-identity\""));
        assert!(toml.contains("\\\"quoted\\\""));
        assert!(toml.contains("[base]"));
        assert_eq!(
            toml.matches("[[phase]]").count(),
            scenario.phases().len(),
            "one phase table per phase"
        );
        assert_eq!(
            toml.matches("[[composition]]").count(),
            scenario.compositions().len()
        );
    }

    /// A repro is a *directly runnable* experiment spec: it loads
    /// through the spec parser and reconstructs the failing scenario
    /// exactly, with the replay coordinates intact.
    #[test]
    fn repro_toml_round_trips_through_the_spec_parser() {
        for case in 0..12 {
            let scenario = sample_scenario(0xCAFE, case);
            let failure = FuzzFailure {
                master_seed: 0xCAFE,
                case,
                invariant: "pruning-liveness",
                detail: format!("case {case} example detail"),
                scenario: scenario.clone(),
            };
            let spec = ExperimentSpec::parse(&failure.repro_toml())
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{}", failure.repro_toml()));
            assert_eq!(
                spec.scenario().expect("repro scenario rebuilds"),
                scenario,
                "case {case}: the repro must reconstruct the sampled scenario"
            );
            let fuzz = spec.fuzz.clone().expect("replay coordinates present");
            assert_eq!(fuzz.master_seed, 0xCAFE);
            assert_eq!(fuzz.case, case);
            assert_eq!(fuzz.invariant, "pruning-liveness");
            // And the spec's own checker accepts the healthy scenario.
            check_scenario(&spec.scenario().unwrap()).expect("invariants hold on healthy cases");
        }
    }
}
