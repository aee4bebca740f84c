//! The **scenario fuzz gate**: runs the seeded scenario × composition
//! fuzzer ([`nakamoto_sim::fuzz::ScenarioFuzzer`]) for a case budget
//! and fails loudly — with a runnable spec-format repro written next
//! to the binary — when any engine invariant (pool
//! bit-identity, pruning-liveness, prefix monotonicity) breaks on a
//! generated case.
//!
//! ```text
//! cargo run --release -p consistency_bench --bin scenario_fuzz -- \
//!     [--budget N] [--seed S] [--out PATH] [--replay repro.toml]
//! ```
//!
//! * `--budget N` — number of generated cases (default 2000).
//! * `--seed S` — master seed (default a fixed constant, so plain runs
//!   are reproducible; CI passes its run id, so every run explores
//!   fresh cases while the failing seed stays in the job log and
//!   repro).
//! * `--out PATH` — where to write the failing case's repro spec
//!   (default `scenario_fuzz_failure.toml`).
//! * `--replay PATH` — load a saved repro through the experiment-spec
//!   parser and re-run the failing case's invariants: the scenario is
//!   rebuilt from the document body, cross-checked against the
//!   `[fuzz]` replay coordinates when present, and re-checked.
//!
//! Budgets and expected runtime: see EXPERIMENTS.md.

use consistency_bench::{cli, outln};
use nakamoto_sim::fuzz::{check_scenario, sample_scenario_for, ScenarioFuzzer};
use nakamoto_sim::spec::ExperimentSpec;

/// Fixed default seed for reproducible local runs.
const DEFAULT_SEED: u64 = 0x5CE7_F022_5EED;

const USAGE: &str = "scenario_fuzz [--budget N] [--seed S] [--out PATH] [--replay repro.toml]";

/// Re-runs a saved repro: parse the spec, rebuild the scenario, check
/// every invariant again. Exits non-zero if the case still fails.
fn replay(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = ExperimentSpec::parse(&source).map_err(|e| format!("{path}: {e}"))?;
    let scenario = spec.scenario().map_err(|e| format!("{path}: {e}"))?;
    consistency_bench::section(&format!(
        "Scenario fuzz replay: {path} ({} phases, {} rounds)",
        scenario.phases().len(),
        scenario.total_rounds()
    ));
    if let Some(fuzz) = &spec.fuzz {
        outln!(
            "replay coordinates: master_seed = {:#x}, case = {}, recorded invariant = `{}`",
            fuzz.master_seed,
            fuzz.case,
            fuzz.invariant
        );
        // The repro must actually be the case it claims to be: the
        // generator stream for (master_seed, case) regenerates the
        // document's scenario.
        let regenerated = sample_scenario_for(fuzz.master_seed, fuzz.case);
        if regenerated == scenario {
            outln!("coordinates verified: the spec matches the generated case");
        } else {
            outln!("note: the spec differs from the generated case (edited repro?); checking the spec's scenario");
        }
    }
    match check_scenario(&scenario) {
        Ok(()) => {
            outln!("PASS: every invariant holds on the replayed case");
            Ok(())
        }
        Err((invariant, detail)) => {
            eprintln!("FAIL: replayed case still violates `{invariant}`: {detail}");
            std::process::exit(1);
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = cli::Args::parse(USAGE, 0, &["--budget", "--seed", "--out", "--replay"])?;
    if let Some(path) = &args.replay {
        return replay(path);
    }
    let budget = args.budget.unwrap_or(2_000);
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let out_path = args
        .out
        .unwrap_or_else(|| String::from("scenario_fuzz_failure.toml"));

    consistency_bench::section(&format!(
        "Scenario fuzz: {budget} random scenario × composition cases, master seed {seed:#x}"
    ));
    let started = std::time::Instant::now();
    match ScenarioFuzzer::new(seed).run(budget) {
        Ok(stats) => {
            outln!(
                "PASS: {} cases ({} with composed phases), {} phases, {} scenario rounds \
                 per execution in {:.2} s",
                stats.cases,
                stats.composed_cases,
                stats.phases,
                stats.rounds,
                started.elapsed().as_secs_f64(),
            );
            outln!("Invariants held: pool bit-identity, pruning-liveness, prefix monotonicity.");
            Ok(())
        }
        Err(failure) => {
            let repro = failure.repro_toml();
            std::fs::write(&out_path, &repro)?;
            eprintln!("FAIL: {failure}");
            eprintln!("repro written to {out_path}:\n{repro}");
            eprintln!("replay: scenario_fuzz --replay {out_path}");
            std::process::exit(1);
        }
    }
}
