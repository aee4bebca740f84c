//! Regenerates **Table I**: the paper's notation with concrete derived
//! values at the Figure-1 operating points.
//!
//! `cargo run -p consistency-bench --bin table1`

use consistency_bench::outln;
use consistency_core::params::ProtocolParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    consistency_bench::section("Table I: notation and derived values (n = 1e5, Δ = 1e13)");
    outln!(
        "{:<6} {:>8} {:>8} {:>14} {:>14} {:>14} {:>14}",
        "c",
        "ν",
        "µ",
        "p = 1/(cnΔ)",
        "α",
        "ᾱ",
        "α₁"
    );
    for &c in &[0.5, 1.0, 3.0, 10.0, 100.0] {
        for &nu in &[0.1, 0.3, 0.45] {
            let p = ProtocolParams::from_c(100_000, 10_000_000_000_000, c, nu)?;
            outln!(
                "{:<6} {:>8} {:>8} {:>14.4e} {:>14.6e} {:>14.12} {:>14.6e}",
                c,
                nu,
                p.mu(),
                p.p(),
                p.alpha(),
                p.alpha_bar(),
                p.alpha1()
            );
        }
    }
    outln!("\nDefinitions (paper Table I):");
    outln!("  p  — hardness of the proof of work");
    outln!("  n  — number of miners, identical computing power");
    outln!("  Δ  — maximum adversarial message delay (rounds)");
    outln!("  c  — 1/(pnΔ): expected Δ-delays before some block is mined");
    outln!("  µ/ν — honest/adversarial fraction of computational power (µ+ν = 1)");
    outln!("  α  — P[some honest success in a round] = 1−(1−p)^(µn)   (Eq. 7)");
    outln!("  ᾱ  — P[no honest success] = (1−p)^(µn)                  (Eq. 8)");
    outln!("  α₁ — P[exactly one honest success] = pµn(1−p)^(µn−1)    (Eq. 9)");
    Ok(())
}
