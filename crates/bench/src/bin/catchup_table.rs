//! **Extension experiment**: the catch-up race behind the attack lines —
//! Nakamoto-style confirmation tables computed closed-form, set beside
//! the race capped at `z + 100`, and measured against the private-chain
//! attack in the simulator.
//!
//! `cargo run --release -p consistency-bench --bin catchup_table [rounds]`

use consistency_bench::outln;
use consistency_core::catchup;
use markov::race;
use nakamoto_sim::adversary::PrivateChainAdversary;
use nakamoto_sim::config::SimConfig;
use nakamoto_sim::execution::run_simulation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = consistency_bench::cli::Args::parse("catchup_table [rounds]", 1, &[])?;
    let rounds = args.pos_u64(0)?.unwrap_or(300_000);

    consistency_bench::section("Catch-up probability: closed form vs capped at z + h");
    outln!(
        "{:>6} {:>4} {:>16} {:>16}",
        "q",
        "z",
        "closed",
        "capped (h=100)"
    );
    for &q in &[0.1, 0.3, 0.45] {
        for &z in &[1u32, 3, 6, 10] {
            outln!(
                "{q:>6} {z:>4} {:>16.6e} {:>16.6e}",
                catchup::catchup_probability(q, z)?,
                race::violation_probability(q, u64::from(z), u64::from(z) + 100)?.probability,
            );
        }
    }

    consistency_bench::section("Reorg-depth distribution under the private-chain attack");
    outln!(
        "{:>6} {:>10} {:>12} {:>12} {:>16}",
        "ν",
        "reorgs",
        "max depth",
        "mean depth*",
        "geometric ref"
    );
    for &nu in &[0.15, 0.25, 0.35, 0.45] {
        let cfg = SimConfig::from_c(100, 4, 1.0, nu, 9_999)?;
        let report = run_simulation(cfg, PrivateChainAdversary::new(4), rounds);
        // Geometric reference: P[depth ≥ z] ≈ (ν/µ)^{z−1}; mean ≈ 1/(1−ν/µ).
        let ratio = nu / (1.0 - nu);
        let mean_ref = 1.0 / (1.0 - ratio);
        // The tracker only exposes max depth; report count and max with
        // the per-reorg mean proxy C/A-style (blocks discarded per reorg).
        let mean_proxy = if report.reorg_count > 0 {
            // Lower bound on the mean from honest blocks not on chain.
            (report
                .honest_blocks
                .saturating_sub(report.chain_honest_blocks)) as f64
                / report.reorg_count as f64
        } else {
            0.0
        };
        outln!(
            "{:>6} {:>10} {:>12} {:>12.2} {:>16.2}",
            nu,
            report.reorg_count,
            report.max_reorg_depth,
            mean_proxy,
            mean_ref
        );
    }
    outln!("(*discarded-honest-blocks per reorg, a proxy for mean reorg depth)");
    Ok(())
}
