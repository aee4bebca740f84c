//! Integration tests for the *predictive* content of the paper's bound:
//! below the neat bound the simulated protocol keeps consistency; under
//! attack above the attack line it loses it.

use blockchain_consistency::consistency_core::{params::ProtocolParams, theorem1, theorem2};
use blockchain_consistency::nakamoto_sim::adversary::{BalanceAdversary, PrivateChainAdversary};
use blockchain_consistency::nakamoto_sim::config::SimConfig;
use blockchain_consistency::nakamoto_sim::execution::run_simulation;

const ROUNDS: u64 = 150_000;

/// In the regime the paper certifies (c comfortably above the neat
/// bound), a private-chain adversary cannot cause deep reorgs.
#[test]
fn safe_regime_stays_consistent_under_private_attack() {
    let nu = 0.15;
    let neat = theorem2::neat_bound(nu);
    // c three times the bound.
    let cfg = SimConfig::from_c(100, 4, neat * 3.0, nu, 42).unwrap();
    let report = run_simulation(cfg, PrivateChainAdversary::new(4), ROUNDS);
    assert!(
        report.is_consistent(12),
        "reorg depth {} / divergence {} at 3× the neat bound",
        report.max_reorg_depth,
        report.max_divergence_depth
    );
    // Lemma 1's margin is decisively positive.
    assert!(report.convergence_margin() > 0);
}

/// Well below the bound with a strong adversary, consistency fails
/// empirically (deep reorgs appear).
#[test]
fn unsafe_regime_breaks_under_private_attack() {
    // c = 0.3, ν = 0.45: far left of Figure 1, above every curve.
    let cfg = SimConfig::from_c(100, 4, 0.3, 0.45, 43).unwrap();
    let report = run_simulation(cfg, PrivateChainAdversary::new(4), ROUNDS);
    assert!(
        !report.is_consistent(12),
        "expected deep reorgs, got max depth {}",
        report.max_reorg_depth
    );
    // And Theorem 1's analytic margin is negative there too.
    let params = ProtocolParams::from_c(100, 4, 0.3, 0.45).unwrap();
    assert!(theorem1::ln_margin(&params) < 0.0);
}

/// The balance attack splits views when the adversary outpaces
/// convergence opportunities, and fails to when it does not.
#[test]
fn balance_attack_contrast_across_bound() {
    let nu_weak = 0.08;
    let nu_strong = 0.45;
    let c = 0.8;
    let weak_cfg = SimConfig::from_c(100, 4, c, nu_weak, 44).unwrap();
    let strong_cfg = SimConfig::from_c(100, 4, c, nu_strong, 44).unwrap();
    let weak = run_simulation(weak_cfg, BalanceAdversary::new(4), ROUNDS);
    let strong = run_simulation(strong_cfg, BalanceAdversary::new(4), ROUNDS);
    assert!(
        strong.max_divergence_depth > weak.max_divergence_depth,
        "strong adversary divergence {} should exceed weak {}",
        strong.max_divergence_depth,
        weak.max_divergence_depth
    );
    assert!(
        strong.max_divergence_depth >= 12,
        "ν = 0.45 at c = 0.8 should break 12-consistency, got {}",
        strong.max_divergence_depth
    );
}

/// Chain quality stays near 1 − ν/µ under honest behaviour and degrades
/// under withholding (the §II chain-quality shape).
#[test]
fn chain_quality_shape() {
    let nu = 0.3;
    let cfg = SimConfig::from_c(200, 4, 2.0, nu, 45).unwrap();
    let honest = run_simulation(
        cfg,
        blockchain_consistency::nakamoto_sim::adversary::ImmediateReleaseAdversary::new(),
        ROUNDS,
    );
    // Honest-behaving adversary: quality ≈ µ share of blocks.
    let q = honest.chain_quality();
    assert!(
        (q - 0.7).abs() < 0.1,
        "quality {q} should track the honest fraction"
    );
    let attack_cfg = SimConfig::from_c(200, 4, 2.0, nu, 46).unwrap();
    let attacked = run_simulation(attack_cfg, PrivateChainAdversary::new(4), ROUNDS);
    // Withholding can only waste honest blocks, never improve quality
    // beyond the honest-mining share by a margin.
    assert!(attacked.chain_quality() <= q + 0.05);
}

/// Consistency margin sign flips across the neat bound, simulated at
/// the bound's own scale (Lemma 1's race, Eqs. 26/27).
#[test]
fn convergence_margin_sign_tracks_neat_bound() {
    let nu = 0.25;
    let neat = theorem2::neat_bound(nu);
    // Above the bound.
    let above = SimConfig::from_c(100, 2, neat * 2.0, nu, 47).unwrap();
    let above_report = run_simulation(above, PrivateChainAdversary::new(2), 400_000);
    assert!(
        above_report.convergence_margin() > 0,
        "C − A = {} at 2× the bound",
        above_report.convergence_margin()
    );
    // Clearly below the bound.
    let below = SimConfig::from_c(100, 2, neat * 0.25, nu, 48).unwrap();
    let below_report = run_simulation(below, PrivateChainAdversary::new(2), 400_000);
    assert!(
        below_report.convergence_margin() < 0,
        "C − A = {} at a quarter of the bound",
        below_report.convergence_margin()
    );
}
