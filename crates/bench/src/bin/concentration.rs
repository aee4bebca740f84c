//! Validates **Inequalities 19/20/47/49**: the exponential-in-T decay
//! of the lower tail of `C` and the upper tail of `A`, compared against
//! the analytic Chernoff bounds (Chung-et-al. for the Markov chain with
//! a stationary start, Arratia–Gordon for the binomial).
//!
//! Tail probabilities are estimated over parallel Monte-Carlo trials
//! (disjoint RNG streams, thread-count-independent results) and shown
//! with 95% Wilson intervals.
//!
//! `cargo run --release -p consistency_bench --bin concentration [trials]`
//!
//! Budgets and expected runtime: see EXPERIMENTS.md.

use consistency_bench::outln;
use consistency_core::extended_chain;
use consistency_core::params::ProtocolParams;
use consistency_core::theorem1;
use nakamoto_sim::adversary::ImmediateReleaseAdversary;
use nakamoto_sim::config::SimConfig;
use nakamoto_sim::montecarlo::{TrialPlan, WilsonInterval};
use probability::chernoff::adversary_tail_bound;

/// Tail frequency with a Wilson interval from per-trial counts.
fn tail_freq(counts: &[u64], hit: impl Fn(u64) -> bool) -> (u64, WilsonInterval) {
    let hits = counts.iter().filter(|&&c| hit(c)).count() as u64;
    (hits, WilsonInterval::new(hits, counts.len() as u64, 1.96))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = consistency_bench::cli::Args::parse("concentration [trials]", 1, &[])?;
    let trials = args.pos_u64(0)?.unwrap_or(400);
    let params = ProtocolParams::new(100, 2, 1e-3, 0.2)?;
    let delta2 = 0.05; // lower-tail slack for C
    let delta3 = 0.05; // upper-tail slack for A

    // One trial fan-out per horizon serves both tails: the per-trial C
    // and A counts come back in the aggregate.
    // `trials` comes from argv: a zero value surfaces as a tidy
    // ConfigError from plan construction, not a panic.
    let runs: Vec<_> = [2_000u64, 8_000, 32_000, 128_000]
        .into_iter()
        .map(|t| {
            let cfg: SimConfig = params.to_sim_config(1_000_000 + t);
            let run = TrialPlan::new(cfg, t, trials)?.run(|_| ImmediateReleaseAdversary::new());
            Ok::<_, nakamoto_sim::config::ConfigError>((t, run))
        })
        .collect::<Result<_, _>>()?;

    consistency_bench::section(&format!(
        "Ineq. 19/47: P[C ≤ (1−δ₂)E[C]] with δ₂ = {delta2}, decay in T ({trials} trials)"
    ));
    outln!(
        "{:>9} {:>12} {:>11} {:>22} {:>14} {:>22}",
        "T",
        "E[C]",
        "empirical",
        "95% Wilson CI",
        "ln(empirical)",
        "ln(bnd, φ=π start)"
    );
    for (t, run) in &runs {
        let expected = theorem1::expected_convergence_opportunities(&params, *t);
        let threshold = (1.0 - delta2) * expected;
        let (hits, wilson) =
            tail_freq(&run.aggregate.convergence_counts, |c| c as f64 <= threshold);
        let analytic =
            extended_chain::walk_bound_params(&params, *t, 1.0)?.ln_lower_tail(delta2)?;
        outln!(
            "{:>9} {:>12.1} {:>11} {:>22} {:>14} {:>22.3}",
            t,
            expected,
            format!("{hits}/{trials}"),
            consistency_bench::table::ci_bracket(&wilson, 3),
            if wilson.estimate > 0.0 {
                format!("{:.2}", wilson.estimate.ln())
            } else {
                "-inf".into()
            },
            analytic,
        );
    }

    consistency_bench::section(&format!(
        "Ineq. 20/49: P[A ≥ (1+δ₃)E[A]] with δ₃ = {delta3} vs Arratia–Gordon ({trials} trials)"
    ));
    outln!(
        "{:>9} {:>12} {:>11} {:>22} {:>14} {:>22}",
        "T",
        "E[A]",
        "empirical",
        "95% Wilson CI",
        "ln(empirical)",
        "ln(analytic bnd)"
    );
    for (t, run) in &runs {
        let expected = theorem1::expected_adversary_blocks(&params, *t);
        let threshold = (1.0 + delta3) * expected;
        let (hits, wilson) = tail_freq(&run.aggregate.adversary_counts, |a| a as f64 >= threshold);
        let t_nu_n = t * params.to_sim_config(0).n_adversary();
        let analytic = adversary_tail_bound(t_nu_n, params.p(), delta3)?;
        outln!(
            "{:>9} {:>12.1} {:>11} {:>22} {:>14} {:>22.3}",
            t,
            expected,
            format!("{hits}/{trials}"),
            consistency_bench::table::ci_bracket(&wilson, 3),
            if wilson.estimate > 0.0 {
                format!("{:.2}", wilson.estimate.ln())
            } else {
                "-inf".into()
            },
            analytic.ln(),
        );
    }
    outln!("\nExpected shape: empirical frequencies fall roughly exponentially in T");
    outln!("and always sit below the analytic bounds (which are loose but valid;");
    outln!("the Chung-et-al. constant 72 dominates at these scales).");
    Ok(())
}
