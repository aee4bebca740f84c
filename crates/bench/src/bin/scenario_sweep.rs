//! The **scenario experiment**: Wilson-CI phase diagrams for
//! time-varying runs. Each cell is a three-phase scenario — a calm
//! honest warm-up at the base adversary power, an *attack window*
//! (elevated power, attack strategy, adversarial or eclipse
//! scheduling), and a calm recovery — swept over the attack-window
//! power ν and four window shapes, with the empirical T-consistency
//! failure rate (95% Wilson interval) over parallel Monte-Carlo trials.
//!
//! Stationary sweeps (`attack_sweep`) answer "how much steady power
//! breaks consistency?"; this sweep answers the paper-adjacent
//! question "how much power *during a bounded window* breaks it?" —
//! the regime where the Δ-bounded worst-case bounds are loosest.
//!
//! The whole grid is **spec-driven**: the binary embeds the committed
//! `examples/specs/scenario_sweep.toml` and runs it through the shared
//! `consistency_bench::experiment` plumbing — run the `experiment`
//! binary on the same file for the flat table + JSON form.
//!
//! `cargo run --release -p consistency_bench --bin scenario_sweep \
//!     [rounds-per-phase] [trials]`
//!
//! Budgets and expected runtime: see EXPERIMENTS.md.

use consistency_bench::{cli, experiment, out, outln, table};
use nakamoto_sim::scenario::{run_scenario, PhaseSpec, Regime, Scenario, StrategyKind};
use nakamoto_sim::spec::ExperimentSpec;
use probability::rng::{RandomSource, SplitMix64};

/// The committed golden spec this binary is the pivot-table view of.
const SPEC: &str = include_str!("../../../../examples/specs/scenario_sweep.toml");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = cli::Args::parse(
        "scenario_sweep [rounds-per-phase] [trials] [--jobs N]",
        2,
        &["--jobs"],
    )?;
    args.configure_jobs();
    let mut spec = ExperimentSpec::parse(SPEC).expect("committed spec parses");
    let rounds_per_phase = args.pos_u64(0)?.unwrap_or(20_000);
    let trials = args.pos_u64(1)?;
    experiment::apply_budget(&mut spec, Some(rounds_per_phase), trials, None);

    let base = spec.base;
    let trials = spec.run.trials;
    let t_consistency = *spec.run.thresholds.first().expect("spec carries T");
    let sweep = spec.sweep.clone().expect("committed spec sweeps");
    let [n_power, n_windows] = spec.sweep_shape()[..] else {
        panic!("committed spec has two axes")
    };
    let power_axis = &sweep.axes[0];
    let window_axis = &sweep.axes[1];

    consistency_bench::section(&format!(
        "Scenario sweep: calm warm-up (ν = {}) → attack window → calm recovery; \
         n = {}, Δ = {}, c = {}, {trials} trials × 3×{rounds_per_phase} rounds per cell",
        base.adversary_fraction,
        base.n_miners,
        base.delta,
        base.c(),
    ));
    out!("{:>8}", "ν_attack");
    for window in &window_axis.cells {
        out!(" {:>30}", window.label);
    }
    outln!();
    out!("{:>8}", "");
    for _ in 0..n_windows {
        out!(
            " {}",
            format_args!(
                "{:>6} {:>23}",
                "depth",
                format!("P[¬{t_consistency}-cons] (95% CI)")
            )
        );
    }
    outln!();

    let results = experiment::run_spec(&spec)?;
    assert_eq!(results.len(), n_power * n_windows);
    for (row, power) in power_axis.cells.iter().enumerate() {
        out!("{:>8}", power.label);
        for col in 0..n_windows {
            let cell = &results[row * n_windows + col];
            let aggregate = &cell.wilson().expect("committed spec samples").aggregate;
            let w = aggregate
                .failure_interval(t_consistency, 1.96)
                .expect("threshold was requested");
            out!(
                " {:>6} {:>23}",
                table::depth_cell(aggregate),
                table::ci_cell(&w)
            );
        }
        outln!();
    }

    // Per-phase anatomy of one showcase cell: where in the scenario the
    // damage happens (and that it stops when the window closes). The
    // showcase master seed continues the sweep's SplitMix64 stream past
    // the grid cells, as the pre-spec binary did.
    let mut cell_seeds = SplitMix64::new(sweep.seed);
    for _ in 0..n_power * n_windows {
        cell_seeds.next_u64();
    }
    let mut showcase_base = base;
    showcase_base.seed = cell_seeds.next_u64();
    let scenario = Scenario::new(
        showcase_base,
        vec![
            PhaseSpec::new(rounds_per_phase, StrategyKind::Honest, Regime::Calm),
            PhaseSpec::new(
                rounds_per_phase,
                StrategyKind::PrivateChain,
                Regime::Eclipse { group: 1 },
            )
            .with_power(0.35),
            PhaseSpec::new(rounds_per_phase, StrategyKind::Honest, Regime::Calm),
        ],
    )?;
    consistency_bench::section(&format!(
        "Showcase cell anatomy: private+eclipse(1) window at ν = 0.35 ({rounds_per_phase} rounds per phase)"
    ));
    outln!(
        "{:>7} {:>9} {:>9} {:>8} {:>8} {:>12} {:>12}",
        "phase",
        "honest",
        "adversary",
        "conv",
        "reorgs",
        "cum_reorg≤",
        "cum_diverg≤"
    );
    let report = run_scenario(&scenario);
    for (i, p) in report.phase_reports.iter().enumerate() {
        outln!(
            "{:>7} {:>9} {:>9} {:>8} {:>8} {:>12} {:>12}",
            i,
            p.honest_blocks,
            p.adversary_blocks,
            p.convergence_opportunities,
            p.reorg_count,
            p.cumulative_max_reorg_depth,
            p.cumulative_max_divergence_depth,
        );
    }

    outln!("\nShape to verify: failure rates grow with the attack-window power on every");
    outln!("column; the eclipse column fails hardest (one group is cut off for the whole");
    outln!("window); the composed column blends the balance divergence with selfish");
    outln!("withholding under one budget; the showcase anatomy concentrates adversary");
    outln!("blocks and depth growth in phase 1, with clean recovery in phase 2. Results");
    outln!("are bit-identical for a fixed seed at any thread count.");
    Ok(())
}
