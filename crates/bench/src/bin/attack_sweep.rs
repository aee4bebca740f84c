//! The **attack experiment** behind Figure 1's red line: sweeps the
//! adversarial fraction ν under the private-chain and balance attacks
//! at several c and reports the empirical T-consistency failure *rate*
//! (with a 95% Wilson interval) over parallel Monte-Carlo trials,
//! alongside the analytic thresholds.
//!
//! The grid is **spec-driven**: the binary embeds the committed
//! `examples/specs/attack_sweep.toml` (axes c × ν × attack, per-cell
//! seeds from the sweep's SplitMix64 stream — disjoint by
//! construction) and runs it through the shared
//! `consistency_bench::experiment` plumbing — run the `experiment`
//! binary on the same file for the flat table + JSON form.
//!
//! `cargo run --release -p consistency_bench --bin attack_sweep [rounds-per-trial] [trials]`
//!
//! Budgets and expected runtime: see EXPERIMENTS.md.

use consistency_bench::{cli, experiment, outln, table};
use consistency_core::{numax, pss};
use nakamoto_sim::spec::ExperimentSpec;

/// The committed golden spec this binary is the pivot-table view of.
const SPEC: &str = include_str!("../../../../examples/specs/attack_sweep.toml");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = cli::Args::parse(
        "attack_sweep [rounds-per-trial] [trials] [--jobs N]",
        2,
        &["--jobs"],
    )?;
    args.configure_jobs();
    let mut spec = ExperimentSpec::parse(SPEC).expect("committed spec parses");
    let rounds = args.pos_u64(0)?.unwrap_or(30_000);
    let trials = args.pos_u64(1)?;
    experiment::apply_budget(&mut spec, Some(rounds), trials, None);

    let trials = spec.run.trials;
    let t_consistency = *spec.run.thresholds.first().expect("spec carries T");
    let sweep = spec.sweep.clone().expect("committed spec sweeps");
    let [n_c, n_nu, n_attacks] = spec.sweep_shape()[..] else {
        panic!("committed spec has three axes")
    };
    assert_eq!(n_attacks, 2, "private-chain and balance columns");

    let results = experiment::run_spec(&spec)?;
    assert_eq!(results.len(), n_c * n_nu * n_attacks);
    for ci in 0..n_c {
        // Every cell of this section shares c; read it back from the
        // patched config rather than re-parsing the axis label.
        let c = results[ci * n_nu * n_attacks].spec.base.c();
        consistency_bench::section(&format!(
            "Attack sweep at c = {c} (ours ν_max = {:.3}, PSS attack threshold = {:.3}); \
             {trials} trials × {rounds} rounds per cell",
            numax::nu_max_for_c(c)?,
            pss::attack_nu_threshold(c)
        ));
        outln!("{:>6} {:>34} {:>34}", "ν", "private-chain", "balance");
        outln!(
            "{:>6} {:>9} {:>24} {:>9} {:>24}",
            "",
            "max_reorg",
            "P[¬T-cons] (95% CI)",
            "max_div",
            "P[¬T-cons] (95% CI)"
        );
        for (ni, nu_cell) in sweep.axes[1].cells.iter().enumerate() {
            let at = (ci * n_nu + ni) * n_attacks;
            let private = &results[at]
                .wilson()
                .expect("committed spec samples")
                .aggregate;
            let balance = &results[at + 1]
                .wilson()
                .expect("committed spec samples")
                .aggregate;
            outln!(
                "{:>6} {:>9} {:>24} {:>9} {:>24}",
                nu_cell.label,
                private.max_reorg_depth,
                table::failure_cell(private, t_consistency, 1.96),
                balance.max_divergence_depth,
                table::failure_cell(balance, t_consistency, 1.96),
            );
        }
    }
    outln!("\nShape to verify against the paper: failure rates leave 0 somewhere between");
    outln!("the paper's ν_max (below it runs stay consistent) and ν = 1/2; smaller");
    outln!("c tolerates less adversarial power on every line.");
    Ok(())
}
