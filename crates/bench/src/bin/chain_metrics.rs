//! **Extension experiment** (the paper's §II future-work metrics):
//! chain growth and chain quality measured in the simulator across
//! (ν, c), with the standard analytic references
//! `growth ≈ α/(1+αΔ)`-shaped and `quality ≳ 1 − ν/µ`.
//!
//! `cargo run --release -p consistency-bench --bin chain_metrics [rounds]`

use consistency_bench::outln;
use nakamoto_sim::adversary::{ImmediateReleaseAdversary, PrivateChainAdversary};
use nakamoto_sim::config::SimConfig;
use nakamoto_sim::execution::run_simulation;
use nakamoto_sim::selfish::SelfishMiningAdversary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = consistency_bench::cli::Args::parse("chain_metrics [rounds]", 1, &[])?;
    let rounds = args.pos_u64(0)?.unwrap_or(200_000);
    let n = 200u64;
    let delta = 4u64;

    consistency_bench::section("Chain growth & quality vs (ν, c), honest-behaving adversary");
    outln!(
        "{:>6} {:>6} {:>12} {:>14} {:>12} {:>14}",
        "ν",
        "c",
        "growth/round",
        "α_h + νnp ref",
        "quality",
        "α_h/(α_h+νnp)"
    );
    for &c in &[0.5f64, 1.0, 3.0, 10.0] {
        for &nu in &[0.1, 0.3] {
            let cfg = SimConfig::from_c(n, delta, c, nu, 555)?;
            let report = run_simulation(cfg, ImmediateReleaseAdversary::new(), rounds);
            // With immediate (1-round) release and a single honest group
            // there is no propagation shadow: height grows by 1 per
            // H-round (α_h = 1−(1−p)^{n_honest}) plus the adversary's
            // sequential chain contribution νnp per round.
            let p = cfg.hardness;
            let alpha_h = -((cfg.n_honest() as f64) * (-p).ln_1p()).exp_m1();
            let adv_rate = cfg.n_adversary() as f64 * p;
            let growth_ref = alpha_h + adv_rate;
            let quality_ref = alpha_h / (alpha_h + adv_rate);
            outln!(
                "{:>6} {:>6} {:>12.6} {:>14.6} {:>12.4} {:>14.4}",
                nu,
                c,
                report.chain_growth_rate(),
                growth_ref,
                report.chain_quality(),
                quality_ref,
            );
        }
    }

    consistency_bench::section("Same metrics under the private-chain attack");
    outln!(
        "{:>6} {:>6} {:>12} {:>12}",
        "ν",
        "c",
        "growth/round",
        "quality"
    );
    for &c in &[0.5f64, 1.0, 3.0] {
        for &nu in &[0.1, 0.3, 0.45] {
            let cfg = SimConfig::from_c(n, delta, c, nu, 556)?;
            let report = run_simulation(cfg, PrivateChainAdversary::new(delta), rounds);
            outln!(
                "{:>6} {:>6} {:>12.6} {:>12.4}",
                nu,
                c,
                report.chain_growth_rate(),
                report.chain_quality(),
            );
        }
    }
    consistency_bench::section("Selfish mining (Eyal–Sirer, extension): revenue vs honest share");
    outln!(
        "{:>6} {:>12} {:>14} {:>14}",
        "ν",
        "quality",
        "honest share µ",
        "profitable?"
    );
    for &nu in &[0.1, 0.2, 0.3, 0.35, 0.4, 0.45] {
        let cfg = SimConfig::from_c(n, 2, 2.0, nu, 557)?;
        let report = run_simulation(cfg, SelfishMiningAdversary::new(2), rounds);
        let mu = 1.0 - nu;
        outln!(
            "{:>6} {:>12.4} {:>14.4} {:>14}",
            nu,
            report.chain_quality(),
            mu,
            // Profitable iff the adversary's chain share exceeds ν.
            if 1.0 - report.chain_quality() > nu {
                "yes"
            } else {
                "no"
            },
        );
    }
    outln!("\nShape: quality degrades towards (and below) the honest-mining line");
    outln!("under attack; growth stays near the honest reference (the adversary");
    outln!("cannot slow mining, only waste honest work). Selfish mining turns");
    outln!("profitable above the γ=0 threshold ν ≈ 1/3.");
    Ok(())
}
