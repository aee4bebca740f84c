//! Confirmation-depth analysis: how many blocks deep a transaction must
//! be before the private-chain race is lost with high probability —
//! connecting the paper's consistency parameter `T` to Nakamoto's
//! catch-up random walk.
//!
//! Run with: `cargo run --release --example confirmation_depth`

use blockchain_consistency::consistency_core::catchup;
use blockchain_consistency::consistency_core::params::ProtocolParams;
use blockchain_consistency::markov::race;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Catch-up probability (q/(1−q))^z, closed form vs capped at z + h\n");
    println!(
        "{:>6} {:>4} {:>16} {:>16} {:>12}",
        "q", "z", "closed form", "capped (h=80)", "|diff|"
    );
    for &q in &[0.1, 0.25, 0.4] {
        for &z in &[1u32, 2, 4, 8] {
            let closed = catchup::catchup_probability(q, z)?;
            let capped =
                race::violation_probability(q, u64::from(z), u64::from(z) + 80)?.probability;
            println!(
                "{q:>6} {z:>4} {closed:>16.6e} {capped:>16.6e} {:>12.1e}",
                (closed - capped).abs()
            );
        }
    }

    println!("\nConfirmations needed for a given double-spend risk:");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "q", "risk 1e-2", "risk 1e-4", "risk 1e-8"
    );
    for &q in &[0.05, 0.1, 0.2, 0.3, 0.4, 0.45] {
        println!(
            "{q:>6} {:>12} {:>12} {:>12}",
            catchup::confirmations_for_risk(q, 1e-2)?,
            catchup::confirmations_for_risk(q, 1e-4)?,
            catchup::confirmations_for_risk(q, 1e-8)?,
        );
    }

    println!("\nEffective adversary share in the Δ-delay race (pνn vs ᾱ^{{2Δ}}α₁):");
    println!(
        "{:>6} {:>8} {:>18} {:>14}",
        "ν", "c", "effective share q", "race winnable"
    );
    for &nu in &[0.2, 0.3, 0.4] {
        let neat = blockchain_consistency::consistency_core::theorem2::neat_bound(nu);
        for &factor in &[0.5, 1.0, 2.0, 4.0] {
            let params = ProtocolParams::from_c(1_000, 8, neat * factor, nu)?;
            match catchup::effective_adversary_share(&params) {
                Some(q) => println!(
                    "{nu:>6} {:>8.3} {q:>18.4} {:>14}",
                    neat * factor,
                    if q < 0.5 { "yes (q < 1/2)" } else { "NO" }
                ),
                None => println!("{nu:>6} {:>8.3} {:>18} {:>14}", neat * factor, "→ 1", "NO"),
            }
        }
    }
    println!("\nAt c below the paper's bound the effective share crosses 1/2 and no");
    println!("confirmation depth is safe — exactly the consistency failure the");
    println!("theorems rule out above the bound.");
    Ok(())
}
