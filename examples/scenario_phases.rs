//! Demonstrates the time-varying scenario layer: one continuous run
//! through a calm warm-up, an eclipse-plus-private-chain attack window
//! with a hash-power surge, and a calm recovery — with a per-phase
//! breakdown showing where the consistency damage happens.
//!
//! Run with: `cargo run --release --example scenario_phases`

use blockchain_consistency::nakamoto_sim::config::SimConfig;
use blockchain_consistency::nakamoto_sim::executor;
use blockchain_consistency::nakamoto_sim::scenario::{
    run_scenario, PhaseSpec, Regime, Scenario, ScenarioPlan, StrategyKind,
};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = SimConfig::from_c(100, 4, 1.0, 0.1, 2026)?;
    let rounds = 50_000u64;
    let scenario = Scenario::new(
        base,
        vec![
            PhaseSpec::new(rounds, StrategyKind::Honest, Regime::Calm),
            PhaseSpec::new(
                rounds,
                StrategyKind::PrivateChain,
                Regime::Eclipse { group: 1 },
            )
            .with_power(0.4),
            PhaseSpec::new(rounds, StrategyKind::Honest, Regime::Calm),
        ],
    )?;

    println!("Scenario: calm (ν = 0.1) → eclipse(group 1) + private chain (ν = 0.4) → calm");
    println!("n = 100, Δ = 4, c = 1, {rounds} rounds per phase\n");
    println!(
        "{:>7} {:>9} {:>10} {:>8} {:>8} {:>11} {:>12}",
        "phase", "honest", "adversary", "conv", "reorgs", "cum_reorg≤", "cum_diverg≤"
    );
    let report = run_scenario(&scenario);
    for (i, p) in report.phase_reports.iter().enumerate() {
        println!(
            "{:>7} {:>9} {:>10} {:>8} {:>8} {:>11} {:>12}",
            i,
            p.honest_blocks,
            p.adversary_blocks,
            p.convergence_opportunities,
            p.reorg_count,
            p.cumulative_max_reorg_depth,
            p.cumulative_max_divergence_depth,
        );
    }

    // The same scenario as a Monte-Carlo fan-out: failure rate of
    // 12-consistency with a 95% Wilson interval, bit-identical at any
    // pool width.
    let plan = ScenarioPlan::new(scenario, 8)?.thresholds(vec![12]);
    let started = Instant::now();
    let run = plan.run();
    let secs = started.elapsed().as_secs_f64();
    let wilson = run
        .aggregate
        .failure_interval(12, 1.96)
        .expect("threshold requested");
    println!(
        "\n8 trials: P[¬12-consistent] = {:.2} [{:.2}, {:.2}] at {:.0} rounds/s on {} pool worker(s)",
        wilson.estimate,
        wilson.lo,
        wilson.hi,
        run.aggregate.total_rounds() as f64 / secs,
        executor::global_width(),
    );
    println!("\nThe attack window concentrates adversary blocks and depth growth in");
    println!("phase 1; the recovery phase mines clean. The per-trial streams are");
    println!("jump()-derived from the base seed, so any pool width reproduces this.");
    Ok(())
}
