//! Validates **Eqs. 26/27/44**: Monte-Carlo convergence-opportunity and
//! adversary-block counts against their analytic expectations across a
//! (Δ, n, ν, c) grid — multi-trial means with standard errors from the
//! parallel trial engine, so every gap is judged against its own noise
//! scale.
//!
//! `cargo run --release -p consistency_bench --bin convergence_validation [rounds-per-trial] [trials]`
//!
//! Budgets and expected runtime: see EXPERIMENTS.md.

use consistency_bench::outln;
use consistency_core::convergence::validate_trials;
use consistency_core::params::ProtocolParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = consistency_bench::cli::Args::parse(
        "convergence_validation [rounds-per-trial] [trials]",
        2,
        &[],
    )?;
    let rounds = args.pos_u64(0)?.unwrap_or(100_000);
    let trials = args.pos_u64(1)?.unwrap_or(4);

    consistency_bench::section(&format!(
        "Eq. 26/27 validation: mean over {trials} trials × {rounds} rounds vs analytic"
    ));
    outln!(
        "{:>5} {:>6} {:>6} {:>6} {:>12} {:>12} {:>9} {:>7} {:>12} {:>12} {:>9}",
        "Δ",
        "n",
        "ν",
        "c",
        "E[C]",
        "mean C",
        "err%",
        "z",
        "E[A]",
        "mean A",
        "err%"
    );
    let mut seed = 10_000u64;
    for &delta in &[1u64, 2, 4] {
        for &n in &[100u64, 1_000] {
            for &nu in &[0.1, 0.3] {
                // Choose p so that α·Δ is moderate: p = 1/(c·n·Δ) with c
                // picked to make convergence events frequent.
                let c = 9.0;
                let params = ProtocolParams::from_c(n, delta, c, nu)?;
                seed += 1;
                let row = validate_trials(&params, rounds, trials, seed)?;
                outln!(
                    "{:>5} {:>6} {:>6} {:>6.1} {:>12.1} {:>12.1} {:>8.2}% {:>7.2} {:>12.1} {:>12.1} {:>8.2}%",
                    delta,
                    n,
                    nu,
                    params.c(),
                    row.expected_convergence,
                    row.mean_convergence,
                    100.0 * row.convergence_rel_error(),
                    row.convergence_z_score(),
                    row.expected_adversary,
                    row.mean_adversary,
                    100.0 * row.adversary_rel_error(),
                );
            }
        }
    }
    outln!("\nEvery row should show errors at Monte-Carlo noise scale: |z| ≲ 3 and");
    outln!("err% shrinking like 1/√(trials·rounds).");
    Ok(())
}
