//! The **unified spec-driven experiment harness**: loads any `.toml`
//! experiment spec (single run or sweep grid — see
//! `nakamoto_sim::spec` for the schema and `examples/specs/` for
//! committed examples), submits every cell at once to the shared
//! executor pool so independent cells pipeline across the same
//! workers, and prints the cell table with empirical 95% Wilson
//! intervals **and** the paper's analytic bounds overlaid. With
//! `--out`, also writes the machine-readable JSON document.
//!
//! ```text
//! cargo run --release -p consistency_bench --bin experiment -- \
//!     <spec.toml> [--rounds N] [--trials N] [--jobs N] [--seed S] \
//!     [--out PATH] [--verbose]
//! ```
//!
//! `--rounds`/`--trials` override the spec's budgets (CI smokes every
//! committed spec this way), `--seed` overrides the base master seed
//! (sweep cells still derive theirs from the sweep stream), `--jobs`
//! fixes the process-wide executor pool width, the one parallelism
//! knob (cells complete in any order, but the table, totals, and JSON
//! are byte-identical at every job count), `--verbose` streams
//! per-cell completions and the executor's counters to stderr, `--out`
//! writes JSON. The closing summary line reports the simulated rounds
//! and the grid's wall time. A closed stdout (`| head`) ends printing,
//! not the run: `--out` is still written and the exit status stays 0.
//! Budgets and expected runtimes: see EXPERIMENTS.md.

use consistency_bench::{cli, experiment, outln};
use nakamoto_sim::executor;
use nakamoto_sim::spec::ExperimentSpec;
use std::time::Instant;

const USAGE: &str = "experiment <spec.toml> [--rounds N] [--trials N] [--jobs N] [--seed S] \
                     [--out PATH] [--verbose]";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = cli::Args::parse(
        USAGE,
        1,
        &[
            "--rounds",
            "--trials",
            "--jobs",
            "--seed",
            "--out",
            "--verbose",
        ],
    )?;
    args.configure_jobs();
    let path = args
        .positionals
        .first()
        .ok_or_else(|| format!("missing spec path; usage: {USAGE}"))?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut spec = ExperimentSpec::parse(&source).map_err(|e| format!("{path}: {e}"))?;
    experiment::apply_budget(&mut spec, args.rounds, args.trials, args.seed);

    let name = std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
    let shape = spec.sweep_shape();
    let cells: usize = shape.iter().product::<usize>().max(1);
    consistency_bench::section(&format!(
        "Experiment `{name}`: {cells} cell(s), {} trial(s) per cell",
        spec.run.trials
    ));
    if let Some(fuzz) = &spec.fuzz {
        outln!(
            "fuzz repro: master_seed = {}, case = {}, invariant = `{}`",
            fuzz.master_seed,
            fuzz.case,
            fuzz.invariant
        );
    }

    let verbose = args.verbose;
    let jobs = args.jobs.unwrap_or(0);
    let started = Instant::now();
    let results = experiment::run_spec_streaming(&spec, jobs, |index, cell| {
        if verbose {
            // Completion order, to stderr: the stdout table and JSON
            // stay byte-identical with and without --verbose.
            eprintln!(
                "cell {}/{cells} done: [{}]",
                index + 1,
                cell.labels.join(", ")
            );
        }
    })?;
    let wall = started.elapsed().as_secs_f64();
    experiment::print_table(&results);
    let rounds: u64 = results.iter().map(|r| r.estimate.simulated_rounds()).sum();
    outln!("\n{rounds} simulated rounds: grid wall time {wall:.2} s");
    if verbose {
        let stats = executor::global_stats();
        eprintln!(
            "executor: pool width {} ({} pool(s) created), {} thread(s) spawned, \
             {} job(s) queued + {} inline, {} task(s) executed, {} steal(s)",
            executor::global_width(),
            executor::global_pools_created(),
            stats.threads_spawned,
            stats.jobs_submitted,
            stats.jobs_inline,
            stats.tasks_executed,
            stats.steals,
        );
    }

    if let Some(out) = &args.out {
        std::fs::write(out, experiment::to_json(&name, &results))
            .map_err(|e| format!("{out}: {e}"))?;
        outln!("wrote {out}");
    }
    Ok(())
}
