//! Audits **Lemmas 2–8 / displays (52)–(59)**: mechanically checks
//! every implication of the proof chain on a dense (ν, c, Δ, ε₁, ε₂)
//! grid.
//!
//! `cargo run --release -p consistency-bench --bin lemma_audit`

use consistency_bench::outln;
use consistency_core::lemmas;
use consistency_core::params::ProtocolParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    consistency_bench::section("Lemma chain audit over (ν, c, Δ, ε₁, ε₂)");
    let nus = [0.05, 0.15, 0.25, 0.35, 0.45];
    let cs = [0.3, 1.0, 2.0, 3.0, 5.0, 10.0, 50.0];
    let deltas = [1u64, 4, 16, 256, 65_536];
    let epsilons = [(0.1, 0.1), (0.3, 0.2), (0.7, 1.0)];

    let mut points = 0u64;
    let mut premise_holds = 0u64;
    let mut failures = Vec::new();
    for &nu in &nus {
        for &c in &cs {
            for &delta in &deltas {
                let params = ProtocolParams::from_c(10_000, delta, c, nu)?;
                for &(e1, e2) in &epsilons {
                    points += 1;
                    if consistency_core::theorem3::holds(&params, e1, e2) {
                        premise_holds += 1;
                    }
                    if let Err(e) = lemmas::audit_chain(&params, e1, e2) {
                        failures.push(format!("ν={nu}, c={c}, Δ={delta}, ε=({e1},{e2}): {e}"));
                    }
                }
            }
        }
    }
    outln!("grid points checked:        {points}");
    outln!("Theorem-3 premises held at: {premise_holds}");
    outln!("broken implications:        {}", failures.len());
    for f in &failures {
        outln!("  FAIL {f}");
    }

    consistency_bench::section("Lemma 7 sandwich tightness (Ineq. 82)");
    outln!(
        "{:>10} {:>8} {:>14} {:>14} {:>14}",
        "Δ",
        "ν",
        "2/L",
        "middle",
        "2/L + 1/Δ"
    );
    for &delta in &[1u64, 16, 1_024, 10_000_000_000_000] {
        for &nu in &[0.1, 0.4] {
            let params = ProtocolParams::from_c(100_000, delta, 3.0, nu)?;
            let (lo, mid, hi) = lemmas::lemma7(&params);
            outln!(
                "{:>10} {:>8} {:>14.8} {:>14.8} {:>14.8}",
                delta,
                nu,
                lo,
                mid,
                hi
            );
        }
    }

    if failures.is_empty() {
        outln!("\nAll implications of the proof chain verified on the grid.");
        Ok(())
    } else {
        Err("lemma audit found broken implications".into())
    }
}
