//! Demonstrates the consistency attack the paper's Figure 1 red line
//! describes: a private-chain adversary with maximal message delays
//! breaks `T`-consistency once its fraction `ν` crosses the attack
//! threshold, while parameters satisfying the paper's bound stay safe.
//!
//! Run with: `cargo run --release --example private_attack`

use blockchain_consistency::consistency_core::{numax, pss};
use blockchain_consistency::nakamoto_sim::adversary::PrivateChainAdversary;
use blockchain_consistency::nakamoto_sim::config::SimConfig;
use blockchain_consistency::nakamoto_sim::execution::run_simulation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Small-Δ simulation scale (see DESIGN.md §3 for why this validates
    // the same code paths as the paper's Δ = 1e13 analytic curves).
    let n = 100u64;
    let delta = 4u64;
    let c = 1.0;
    let rounds = 200_000u64;

    println!("Private-chain attack sweep: n = {n}, Δ = {delta}, c = {c}, T = {rounds}");
    println!(
        "paper ν_max(c) = {:.4}, PSS attack threshold = {:.4}\n",
        numax::nu_max_for_c(c)?,
        pss::attack_nu_threshold(c)
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>10} {:>14}",
        "ν", "reorgs", "max_reorg", "C−A", "quality", "consistent(T=12)"
    );

    for &nu in &[0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45] {
        let cfg = SimConfig::from_c(n, delta, c, nu, 7_000 + (nu * 1000.0) as u64)?;
        let report = run_simulation(cfg, PrivateChainAdversary::new(delta), rounds);
        println!(
            "{:>6.2} {:>12} {:>12} {:>12} {:>10.4} {:>14}",
            nu,
            report.reorg_count,
            report.max_reorg_depth,
            report.convergence_margin(),
            report.chain_quality(),
            report.is_consistent(12),
        );
    }

    println!("\nReading: the convergence margin C − A (Lemma 1's currency) shrinks");
    println!("as ν grows; deep reorgs appear once the adversary can keep a private");
    println!("lead, and T-consistency fails well before ν reaches 1/2.");
    Ok(())
}
