//! Regenerates **Remark 1** (Inequalities 12–17): the admissible ν
//! ranges and bound-inflation factors for the two (δ₁, δ₂) parameter
//! sets at Δ = 10¹³.
//!
//! `cargo run -p consistency-bench --bin remark1`

use consistency_bench::outln;
use consistency_core::theorem2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let delta = 10_000_000_000_000u64;
    consistency_bench::section(
        "Remark 1: ranges of ν where c need only slightly exceed 2µ/ln(µ/ν)",
    );
    outln!(
        "{:<14} {:<14} {:>14} {:>16} {:>16}",
        "δ₁",
        "δ₂",
        "ν_lo",
        "0.5 − ν_hi",
        "factor − 1"
    );
    for &(d1, d2, label) in &[
        (1.0 / 6.0, 0.5, "paper Ineq. (14)/(15)"),
        (1.0 / 8.0, 2.0 / 3.0, "paper Ineq. (16)/(17)"),
    ] {
        let range = theorem2::remark1_nu_range(delta, d1, d2)?;
        let factor = theorem2::remark1_factor(delta, d1, d2)?;
        outln!(
            "{:<14.6} {:<14.6} {:>14.4e} {:>16.4e} {:>16.4e}   {label}",
            d1,
            d2,
            range.lo,
            0.5 - range.hi,
            factor - 1.0
        );
    }
    outln!("\nPaper's reported values: (14) 1e-63 ≤ ν ≤ 0.5−1e-7 with factor 1+5e-5;");
    outln!("                         (16) 1e-18 ≤ ν ≤ 0.5−1e-9 with factor 1+2e-3.");

    consistency_bench::section("Resulting c bounds at sample ν (Ineq. 13, ε₂ = 1e-6)");
    outln!(
        "{:<8} {:>14} {:>18} {:>18}",
        "ν",
        "2µ/ln(µ/ν)",
        "bound (δ set 1)",
        "bound (δ set 2)"
    );
    for &nu in &[1e-9, 0.1, 0.25, 0.4, 0.49] {
        let neat = theorem2::neat_bound(nu);
        let b1 = theorem2::remark1_c_bound(nu, delta, 1.0 / 6.0, 0.5, 1e-6)?;
        let b2 = theorem2::remark1_c_bound(nu, delta, 1.0 / 8.0, 2.0 / 3.0, 1e-6)?;
        outln!("{:<8} {:>14.6} {:>18.6} {:>18.6}", nu, neat, b1, b2);
    }
    Ok(())
}
