//! Bit-identity of the spec-driven sweep paths with the pre-spec
//! hard-coded harness binaries: for a fixed seed, every cell of the
//! committed `examples/specs/{attack,scenario,compose}_sweep.toml`
//! grids must aggregate **bit-identically** to the loops the old
//! binaries ran. The replicas below are verbatim ports of those loops
//! (same per-cell SplitMix64 seed streams, same plan construction);
//! the cell seeds don't depend on the budget, so parity at the tiny
//! test budgets implies parity at the committed defaults.

use consistency_bench::experiment;
use nakamoto_sim::adversary::{BalanceAdversary, PrivateChainAdversary};
use nakamoto_sim::compose::{ComposedAdversary, Composition, SubSpec};
use nakamoto_sim::config::SimConfig;
use nakamoto_sim::montecarlo::{TrialAggregate, TrialPlan};
use nakamoto_sim::scenario::{PhaseSpec, Regime, Scenario, ScenarioPlan, StrategyKind};
use nakamoto_sim::spec::ExperimentSpec;
use probability::rng::{RandomSource, SplitMix64};

const ROUNDS: u64 = 400;
const TRIALS: u64 = 2;

fn spec_aggregates(source: &str, rounds: u64, trials: u64) -> Vec<TrialAggregate> {
    let mut spec = ExperimentSpec::parse(source).expect("committed spec parses");
    experiment::apply_budget(&mut spec, Some(rounds), Some(trials), None);
    experiment::run_spec(&spec)
        .expect("committed spec runs")
        .into_iter()
        .map(|cell| match cell.estimate {
            nakamoto_sim::spec::Estimate::Wilson(run) => run.aggregate,
            _ => panic!("the committed sweep specs sample Wilson trials"),
        })
        .collect()
}

/// The pre-spec `attack_sweep` loop, verbatim.
#[test]
fn attack_sweep_spec_path_is_bit_identical_to_the_pre_spec_loop() {
    let via_spec = spec_aggregates(
        include_str!("../../../examples/specs/attack_sweep.toml"),
        ROUNDS,
        TRIALS,
    );
    let (n, delta, t_consistency) = (100u64, 4u64, 12u64);
    let mut cell_seeds = SplitMix64::new(0x00A7_7AC4_5EED);
    let mut at = 0usize;
    for &c in &[0.5f64, 1.0, 2.0] {
        for &nu in &[0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45] {
            let private_seed = cell_seeds.next_u64();
            let balance_seed = cell_seeds.next_u64();
            let run_cell = |seed: u64, balance: bool| {
                let cfg = SimConfig::from_c(n, delta, c, nu, seed).expect("valid");
                let plan = TrialPlan::new(cfg, ROUNDS, TRIALS)
                    .expect("non-empty plan")
                    .thresholds(vec![t_consistency]);
                if balance {
                    plan.run(move |_| BalanceAdversary::new(delta))
                } else {
                    plan.run(move |_| PrivateChainAdversary::new(delta))
                }
            };
            assert_eq!(
                via_spec[at],
                run_cell(private_seed, false).aggregate,
                "private cell (c = {c}, ν = {nu})"
            );
            assert_eq!(
                via_spec[at + 1],
                run_cell(balance_seed, true).aggregate,
                "balance cell (c = {c}, ν = {nu})"
            );
            at += 2;
        }
    }
    assert_eq!(at, via_spec.len(), "every spec cell was compared");
}

/// The pre-spec `scenario_sweep` grid, verbatim.
#[test]
fn scenario_sweep_spec_path_is_bit_identical_to_the_pre_spec_loop() {
    let via_spec = spec_aggregates(
        include_str!("../../../examples/specs/scenario_sweep.toml"),
        ROUNDS,
        TRIALS,
    );
    let windows: [(StrategyKind, Regime); 4] = [
        (StrategyKind::PrivateChain, Regime::Adversarial),
        (StrategyKind::Balance, Regime::Adversarial),
        (StrategyKind::PrivateChain, Regime::Eclipse { group: 1 }),
        (StrategyKind::Composed(0), Regime::Adversarial),
    ];
    let compositions = vec![Composition::new(vec![
        SubSpec::new(StrategyKind::Balance, 1),
        SubSpec::new(StrategyKind::Selfish, 1),
    ])
    .expect("valid composition")];
    let (n, delta, c, base_nu, t_consistency) = (100u64, 4u64, 1.0, 0.10, 12u64);
    let mut cell_seeds = SplitMix64::new(0x5CE7_A210_5EED);
    let mut at = 0usize;
    for &nu in &[0.15, 0.25, 0.35, 0.45] {
        for &(strategy, regime) in &windows {
            let seed = cell_seeds.next_u64();
            let base = SimConfig::from_c(n, delta, c, base_nu, seed).expect("valid base");
            let scenario = Scenario::with_compositions(
                base,
                vec![
                    PhaseSpec::new(ROUNDS, StrategyKind::Honest, Regime::Calm),
                    PhaseSpec::new(ROUNDS, strategy, regime).with_power(nu),
                    PhaseSpec::new(ROUNDS, StrategyKind::Honest, Regime::Calm),
                ],
                compositions.clone(),
            )
            .expect("valid scenario");
            let run = ScenarioPlan::new(scenario, TRIALS)
                .expect("non-empty plan")
                .thresholds(vec![t_consistency])
                .run();
            assert_eq!(
                via_spec[at],
                run.aggregate,
                "scenario cell (ν = {nu}, window {:?})",
                (strategy, regime)
            );
            at += 1;
        }
    }
    assert_eq!(at, via_spec.len(), "every spec cell was compared");
}

/// The pre-spec `compose_sweep` grid, verbatim.
#[test]
fn compose_sweep_spec_path_is_bit_identical_to_the_pre_spec_loop() {
    let via_spec = spec_aggregates(
        include_str!("../../../examples/specs/compose_sweep.toml"),
        ROUNDS,
        TRIALS,
    );
    let pairs: [(StrategyKind, StrategyKind); 3] = [
        (StrategyKind::Balance, StrategyKind::Selfish),
        (StrategyKind::Balance, StrategyKind::PrivateChain),
        (StrategyKind::PrivateChain, StrategyKind::Selfish),
    ];
    let splits: [(u64, u64); 5] = [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)];
    let (n, delta, c, nu, t_consistency) = (100u64, 4u64, 1.0, 0.40, 12u64);
    let mut cell_seeds = SplitMix64::new(0x000C_0390_5EED);
    let mut at = 0usize;
    for &(wa, wb) in &splits {
        for &(a, b) in &pairs {
            let seed = cell_seeds.next_u64();
            let cfg = SimConfig::from_c(n, delta, c, nu, seed).expect("valid");
            let composition = Composition::new(vec![SubSpec::new(a, wa), SubSpec::new(b, wb)])
                .expect("valid composition");
            let run = TrialPlan::new(cfg, ROUNDS, TRIALS)
                .expect("non-empty plan")
                .thresholds(vec![t_consistency])
                .run(move |_| ComposedAdversary::new(cfg.delta, composition.clone()));
            assert_eq!(
                via_spec[at],
                run.aggregate,
                "composed cell ({wa}:{wb}, pair {:?})",
                (a, b)
            );
            at += 1;
        }
    }
    assert_eq!(at, via_spec.len(), "every spec cell was compared");
}
