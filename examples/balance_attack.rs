//! The PSS-style balance attack (Remark 8.5's intuition): split the
//! honest miners into two groups, delay all cross-group traffic by the
//! full Δ, and spend adversarial blocks keeping both branches level.
//! While the adversary's budget keeps up, the two groups' chains
//! diverge without bound.
//!
//! Run with: `cargo run --release --example balance_attack`

use blockchain_consistency::nakamoto_sim::adversary::BalanceAdversary;
use blockchain_consistency::nakamoto_sim::config::SimConfig;
use blockchain_consistency::nakamoto_sim::execution::run_simulation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 100u64;
    let rounds = 150_000u64;

    println!("Balance attack: two honest groups, cross-group delay = Δ, T = {rounds}\n");
    println!(
        "{:>4} {:>6} {:>14} {:>10} {:>10} {:>16}",
        "Δ", "ν", "divergence", "height_0", "height_1", "consistent(T=12)"
    );

    for &delta in &[2u64, 4, 8] {
        for &nu in &[0.10, 0.25, 0.40] {
            // Slow chain relative to Δ: c = 1 means one block per Δ-delay.
            let cfg = SimConfig::from_c(
                n,
                delta,
                1.0,
                nu,
                31_337 + delta * 100 + (nu * 100.0) as u64,
            )?;
            let report = run_simulation(cfg, BalanceAdversary::new(delta), rounds);
            println!(
                "{:>4} {:>6.2} {:>14} {:>10} {:>10} {:>16}",
                delta,
                nu,
                report.max_divergence_depth,
                report.group_heights[0],
                report.group_heights[1],
                report.is_consistent(12),
            );
        }
    }
    println!("\nReading: divergence depth grows with ν at fixed Δ — the attack's");
    println!("balancing budget is the adversary's block rate, exactly the A-side");
    println!("of the paper's Lemma 1 race.");
    Ok(())
}
