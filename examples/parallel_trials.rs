//! Demonstrates the parallel Monte-Carlo engine: the same experiment as
//! `private_attack`, but as a fan-out of independent trials with a 95%
//! Wilson interval on the T-consistency failure rate — and results that
//! are bit-identical at every width of the shared worker pool.
//!
//! Run with: `cargo run --release --example parallel_trials`

use blockchain_consistency::consistency_core::numax;
use blockchain_consistency::nakamoto_sim::adversary::PrivateChainAdversary;
use blockchain_consistency::nakamoto_sim::config::SimConfig;
use blockchain_consistency::nakamoto_sim::executor;
use blockchain_consistency::nakamoto_sim::montecarlo::TrialPlan;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 100u64;
    let delta = 4u64;
    let c = 1.0;
    let rounds = 50_000u64;
    let trials = 8u64;
    let t_consistency = 12u64;

    println!("Parallel private-chain trials: n = {n}, Δ = {delta}, c = {c}");
    println!(
        "{trials} trials × {rounds} rounds per ν on {} pool worker(s); paper ν_max(c) = {:.4}\n",
        executor::global_width(),
        numax::nu_max_for_c(c)?
    );
    println!(
        "{:>6} {:>10} {:>24} {:>14}",
        "ν", "max_reorg", "P[¬12-cons] (95% CI)", "rounds/sec"
    );
    for &nu in &[0.1, 0.2, 0.3, 0.4, 0.45] {
        let cfg = SimConfig::from_c(n, delta, c, nu, 2020)?;
        let plan = TrialPlan::new(cfg, rounds, trials)?.thresholds(vec![t_consistency]);
        let started = Instant::now();
        let run = plan.run(move |_| PrivateChainAdversary::new(delta));
        let secs = started.elapsed().as_secs_f64();
        let wilson = run
            .aggregate
            .failure_interval(t_consistency, 1.96)
            .expect("threshold requested");
        println!(
            "{:>6.2} {:>10} {:>24} {:>14.0}",
            nu,
            run.aggregate.max_reorg_depth,
            format!(
                "{:.2} [{:.2}, {:.2}]",
                wilson.estimate, wilson.lo, wilson.hi
            ),
            run.aggregate.total_rounds() as f64 / secs,
        );
    }
    println!("\nDeterminism: rerunning at any pool width reproduces these");
    println!("numbers bit-for-bit — per-trial RNG streams come from jump() on");
    println!("the master seed, and the reduction is ordered by trial index.");
    Ok(())
}
