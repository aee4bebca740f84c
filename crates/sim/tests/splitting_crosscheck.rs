//! Cross-validation gate for the multilevel-splitting estimator: on
//! small-parameter cells where the failure probability is large enough
//! for brute-force Monte-Carlo to resolve it, the splitting estimate
//! must agree with the plain-trial reference within three combined
//! standard errors. A golden run of `examples/specs/rare_event.toml`'s
//! cell pins the estimator's exact results, so a change that moves
//! any of them fails here too. CI runs this file in release as its own
//! job (the `splitting-crosscheck` gate); `cargo test` runs it at the
//! same budget in debug.

use nakamoto_sim::adversary::{Adversary, BalanceAdversary, PrivateChainAdversary};
use nakamoto_sim::config::SimConfig;
use nakamoto_sim::montecarlo::TrialPlan;
use nakamoto_sim::splitting::SplittingPlan;

/// Runs one cell both ways and asserts the three-sigma agreement.
fn crosscheck<A, F>(
    name: &str,
    cfg: SimConfig,
    rounds: u64,
    threshold: u64,
    ref_trials: u64,
    effort: u64,
    make_adversary: F,
) where
    A: Adversary + Clone + Send + Sync + 'static,
    F: Fn(u64) -> A + Clone + Send + Sync + 'static,
{
    let reference = TrialPlan::new(cfg, rounds, ref_trials)
        .expect("valid reference plan")
        .thresholds(vec![threshold])
        .run(make_adversary.clone());
    let failures = reference
        .aggregate
        .failures_at(threshold)
        .expect("threshold tallied");
    let p_ref = failures as f64 / ref_trials as f64;
    assert!(
        failures >= 10,
        "{name}: the reference must actually resolve the event \
         (got {failures}/{ref_trials} failures — pick an easier cell)"
    );
    let se_ref = (p_ref * (1.0 - p_ref) / ref_trials as f64).sqrt();

    let splitting = SplittingPlan::new(cfg, rounds, effort, vec![threshold])
        .expect("valid splitting plan")
        .run(make_adversary);
    let estimate = splitting
        .estimate_at(threshold)
        .expect("threshold estimated");
    let se_split = estimate
        .standard_error()
        .unwrap_or_else(|| panic!("{name}: splitting starved on a non-rare cell"));

    let gap = (estimate.probability - p_ref).abs();
    let tolerance = 3.0 * (se_ref * se_ref + se_split * se_split).sqrt();
    assert!(
        gap <= tolerance,
        "{name}: splitting {:.4e} vs brute force {p_ref:.4e} \
         (gap {gap:.2e} > 3σ tolerance {tolerance:.2e})",
        estimate.probability
    );
}

#[test]
fn balance_attack_moderate_depth() {
    let cfg = SimConfig::from_c(60, 2, 1.0, 0.3, 0xA11CE).unwrap();
    crosscheck("balance/T=4", cfg, 1500, 4, 1500, 400, |_| {
        BalanceAdversary::new(2)
    });
}

#[test]
fn balance_attack_shallow_depth() {
    let cfg = SimConfig::from_c(80, 3, 1.5, 0.25, 0xB0B).unwrap();
    crosscheck("balance/T=3", cfg, 1200, 3, 1500, 400, |_| {
        BalanceAdversary::new(3)
    });
}

#[test]
fn private_chain_attack_short_horizon() {
    let cfg = SimConfig::from_c(50, 2, 0.6, 0.35, 0xCAFE).unwrap();
    crosscheck("private-chain/T=3", cfg, 1000, 3, 1500, 400, |_| {
        PrivateChainAdversary::new(2)
    });
}

#[test]
fn degenerate_schedule_matches_reference_exactly() {
    // With the single-stage schedule and effort = trials, splitting IS
    // the plain estimator: the agreement is bit-exact, not just
    // statistical.
    let cfg = SimConfig::from_c(60, 2, 1.0, 0.3, 0xD0E).unwrap();
    let trials = 64;
    let reference = TrialPlan::new(cfg, 800, trials)
        .unwrap()
        .thresholds(vec![3])
        .run(|_| BalanceAdversary::new(2));
    let failures = reference.aggregate.failures_at(3).unwrap();
    let splitting = SplittingPlan::new(cfg, 800, trials, vec![3])
        .unwrap()
        .with_levels(Some(Vec::new()))
        .unwrap()
        .run(|_| BalanceAdversary::new(2));
    let estimate = splitting.estimate_at(3).unwrap();
    assert_eq!(
        estimate.probability,
        failures as f64 / trials as f64,
        "single-stage splitting must reduce to the plain proportion"
    );
}

#[test]
fn rare_event_cell_golden() {
    // `examples/specs/rare_event.toml`'s cell (n = 100, Δ = 4, c = 3,
    // ν = 0.15, balance, 5,000 rounds, T = 13) at effort 64. Splitting
    // results are deterministic at every pool width, so any change to
    // the stage schedule, the replica streams or the engine that moves a
    // result fails here.
    let cfg = SimConfig::from_c(100, 4, 3.0, 0.15, 20_260_808).unwrap();
    let run = SplittingPlan::new(cfg, 5_000, 64, vec![13])
        .unwrap()
        .run(|_| BalanceAdversary::new(4));
    assert_eq!(run.total_rounds, 824_190);
    let hits: Vec<u64> = run.levels.iter().map(|s| s.hits).collect();
    assert_eq!(hits, [64, 64, 64, 64, 41, 16, 11, 14, 8, 7, 11, 13, 14, 13]);
    let levels: Vec<u64> = run.levels.iter().map(|s| s.level).collect();
    assert_eq!(levels, (1..=14).collect::<Vec<u64>>());
}
