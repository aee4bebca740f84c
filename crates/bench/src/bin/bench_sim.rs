//! Simulator throughput baseline: measures the round-loop hot path on
//! two single-run workloads and the end-to-end spec grid, compares the
//! single runs against the recorded pre-overhaul seed numbers, and
//! maintains the machine-readable `BENCH_sim.json` baseline the CI
//! smoke guards against regressions.
//!
//! Modes:
//!
//! * `bench_sim` — measure and print the table.
//! * `bench_sim --write PATH` — measure and (re)write the JSON baseline.
//! * `bench_sim --check PATH` — run the short check workloads (scalar
//!   and the end-to-end spec grid) and exit non-zero if either
//!   throughput regressed more than 25% versus the committed
//!   baseline's `check_rounds_per_sec` / `check_grid_rounds_per_sec`.
//!
//! Every row is **single-thread**: `main` fixes the shared
//! `nakamoto_sim::executor` pool to width 1 before any workload runs,
//! so each gate measures per-core throughput and a multi-core host
//! cannot leak parallelism into it. The end-to-end grid row drives the
//! committed `attack_sweep.toml` golden spec through
//! `consistency_bench::experiment::run_spec`, the full path the
//! `experiment` binary takes: spec expansion, every cell submitted to
//! the executor, analytic overlay.
//!
//! Budgets and expected runtime: see EXPERIMENTS.md.

use consistency_bench::{experiment, outln};
use nakamoto_sim::adversary::{ImmediateReleaseAdversary, PrivateChainAdversary};
use nakamoto_sim::config::SimConfig;
use nakamoto_sim::execution::run_simulation;
use nakamoto_sim::executor;
use nakamoto_sim::spec::ExperimentSpec;
use std::time::Instant;

/// The committed golden spec the end-to-end grid row runs.
const GRID_SPEC: &str = include_str!("../../../../examples/specs/attack_sweep.toml");

/// Pre-overhaul engine numbers (boxed dispatch, per-round binomial
/// sampling, unbounded arena) measured on the reference 1-CPU container
/// at the seed commit; kept in the JSON so every regenerated baseline
/// still shows the before/after story.
const SEED_PRIVATE_C3_RPS: f64 = 10_261_647.0;
const SEED_IMMEDIATE_N1000_RPS: f64 = 17_542_993.0;

/// Fraction of the committed check throughput below which `--check`
/// fails (i.e. a >25% regression). Scalar and grid rows share the
/// same floor.
const CHECK_FLOOR: f64 = 0.75;

fn best_of<F: FnMut() -> f64>(reps: u32, mut f: F) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Single-thread private-chain run at c = 3 (quiet-dominated), the
/// paper's typical consistency regime. Returns wall seconds.
fn private_chain_c3(rounds: u64) -> f64 {
    let cfg = SimConfig::from_c(100, 4, 3.0, 0.25, 42).unwrap();
    let t = Instant::now();
    let report = run_simulation(cfg, PrivateChainAdversary::new(4), rounds);
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(report.rounds, rounds);
    dt
}

/// Single-thread immediate-release run with n = 1000 miners.
fn immediate_n1000(rounds: u64) -> f64 {
    let cfg = SimConfig::new(1_000, 0.25, 1.0 / (3.0 * 1_000.0 * 4.0), 4, 1).unwrap();
    let t = Instant::now();
    let report = run_simulation(cfg, ImmediateReleaseAdversary::new(), rounds);
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(report.rounds, rounds);
    dt
}

/// The end-to-end grid workload: the committed `attack_sweep.toml`
/// golden spec through `experiment::run_spec` at the given per-trial
/// budget — spec expansion, the analytic overlay, and every cell
/// submitted at once to the shared executor pool. Returns (wall
/// seconds, cells, total simulated rounds).
fn spec_grid(rounds: u64, trials: u64) -> (f64, usize, u64) {
    let mut spec = ExperimentSpec::parse(GRID_SPEC).expect("committed spec parses");
    experiment::apply_budget(&mut spec, Some(rounds), Some(trials), None);
    let t = Instant::now();
    let results = experiment::run_spec(&spec).expect("committed spec runs");
    let wall = t.elapsed().as_secs_f64();
    let total = results.iter().map(|r| r.estimate.simulated_rounds()).sum();
    (wall, results.len(), total)
}

/// The short CI check workload: 1M private-chain rounds at c = 3,
/// single thread, best of 3. Returns rounds/sec.
fn check_throughput() -> f64 {
    const ROUNDS: u64 = 1_000_000;
    ROUNDS as f64 / best_of(3, || private_chain_c3(ROUNDS))
}

/// The grid CI check workload: the golden-spec grid at a ~1M-round
/// budget (10k rounds × 2 trials × 54 cells), best of 3. Returns
/// rounds/sec end to end.
fn check_grid_throughput() -> f64 {
    let mut total = 0u64;
    let wall = best_of(3, || {
        let (w, _, r) = spec_grid(10_000, 2);
        total = r;
        w
    });
    total as f64 / wall
}

struct Baseline {
    private_rps: f64,
    immediate_rps: f64,
    grid_wall: f64,
    grid_cells: usize,
    grid_rounds: u64,
    check_rps: f64,
    check_grid_rps: f64,
    cpus: usize,
}

fn measure() -> Baseline {
    const ROUNDS: u64 = 2_000_000;
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let private_rps = ROUNDS as f64 / best_of(3, || private_chain_c3(ROUNDS));
    let immediate_rps = ROUNDS as f64 / best_of(3, || immediate_n1000(ROUNDS));
    let mut grid_cells = 0;
    let mut grid_rounds = 0;
    let grid_wall = best_of(2, || {
        let (w, cells, r) = spec_grid(30_000, 5);
        grid_cells = cells;
        grid_rounds = r;
        w
    });
    let check_rps = check_throughput();
    let check_grid_rps = check_grid_throughput();
    Baseline {
        private_rps,
        immediate_rps,
        grid_wall,
        grid_cells,
        grid_rounds,
        check_rps,
        check_grid_rps,
        cpus,
    }
}

fn print_table(b: &Baseline) {
    consistency_bench::section(&format!(
        "Simulator throughput (1 thread; {} CPU(s) visible)",
        b.cpus
    ));
    outln!(
        "{:<28} {:>16} {:>16} {:>9}",
        "workload",
        "rounds/sec",
        "seed rounds/sec",
        "speedup"
    );
    outln!(
        "{:<28} {:>16.0} {:>16.0} {:>8.1}x",
        "private_chain_c3 (1 thread)",
        b.private_rps,
        SEED_PRIVATE_C3_RPS,
        b.private_rps / SEED_PRIVATE_C3_RPS
    );
    outln!(
        "{:<28} {:>16.0} {:>16.0} {:>8.1}x",
        "immediate_n1000 (1 thread)",
        b.immediate_rps,
        SEED_IMMEDIATE_N1000_RPS,
        b.immediate_rps / SEED_IMMEDIATE_N1000_RPS
    );
    outln!(
        "{:<28} {:>15.3}s {:>16.0} {:>9}",
        format!("spec grid ({} cells, e2e)", b.grid_cells),
        b.grid_wall,
        b.grid_rounds as f64 / b.grid_wall,
        "-"
    );
    outln!(
        "{:<28} {:>16.0} {:>16} {:>9}",
        "check workload (CI smoke)",
        b.check_rps,
        "-",
        "-"
    );
    outln!(
        "{:<28} {:>16.0} {:>16} {:>9}",
        "check grid workload",
        b.check_grid_rps,
        "-",
        "-"
    );
}

fn to_json(b: &Baseline) -> String {
    format!(
        "{{\n  \"schema\": \"bench_sim/v5\",\n  \"regenerate\": \"cargo run --release -p \
         consistency_bench --bin bench_sim -- --write BENCH_sim.json\",\n  \"host_cpus\": {},\n  \
         \"pool_width\": 1,\n  \
         \"seed_baseline\": {{\n    \"description\": \"pre-overhaul engine: boxed dispatch, \
         per-round sampling, unbounded arena (commit 3627bf5, same container)\",\n    \
         \"private_chain_c3_rounds_per_sec\": {:.0},\n    \
         \"immediate_n1000_rounds_per_sec\": {:.0}\n  \
         }},\n  \"private_chain_c3_rounds_per_sec\": {:.0},\n  \
         \"private_chain_c3_speedup_vs_seed\": {:.2},\n  \
         \"immediate_n1000_rounds_per_sec\": {:.0},\n  \
         \"immediate_n1000_speedup_vs_seed\": {:.2},\n  \
         \"grid_attack_sweep\": {{\n    \"spec\": \"examples/specs/attack_sweep.toml\",\n    \
         \"cells\": {},\n    \"wall_secs\": {:.4},\n    \"total_rounds\": {},\n    \
         \"rounds_per_sec\": {:.0}\n  }},\n  \
         \"check_rounds_per_sec\": {:.0},\n  \
         \"check_grid_rounds_per_sec\": {:.0},\n  \
         \"check_regression_floor\": {:.2}\n}}\n",
        b.cpus,
        SEED_PRIVATE_C3_RPS,
        SEED_IMMEDIATE_N1000_RPS,
        b.private_rps,
        b.private_rps / SEED_PRIVATE_C3_RPS,
        b.immediate_rps,
        b.immediate_rps / SEED_IMMEDIATE_N1000_RPS,
        b.grid_cells,
        b.grid_wall,
        b.grid_rounds,
        b.grid_rounds as f64 / b.grid_wall,
        b.check_rps,
        b.check_grid_rps,
        CHECK_FLOOR,
    )
}

/// Minimal field extraction from our own JSON (no parser dependency):
/// finds `"key": <number>`.
fn json_number(source: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = source.find(&needle)? + needle.len();
    let rest = source[at..].trim_start();
    let end = rest
        .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-' || ch == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Every row is a single-thread measurement: pin the shared pool
    // to width 1 (the calling thread, no worker) before any workload
    // can create it.
    executor::configure_global_width(1);
    let args = consistency_bench::cli::Args::parse(
        "bench_sim [--write [PATH] | --check [PATH]]",
        0,
        &["--write", "--check"],
    )?;
    match (&args.check, &args.write) {
        (Some(path), None) => {
            let path = path.as_deref().unwrap_or("BENCH_sim.json");
            let committed = std::fs::read_to_string(path)?;
            let floor = json_number(&committed, "check_regression_floor").unwrap_or(CHECK_FLOOR);
            let baseline = json_number(&committed, "check_rounds_per_sec")
                .ok_or("BENCH_sim.json has no check_rounds_per_sec")?;
            let mut failed = false;
            let fresh = check_throughput();
            let ratio = fresh / baseline;
            outln!(
                "check workload: {fresh:.0} rounds/sec vs committed {baseline:.0} \
                 (ratio {ratio:.2}, floor {floor:.2})"
            );
            failed |= ratio < floor;
            // End-to-end grid row: gated under the same floor. Absent
            // from a pre-v3 baseline, in which case the gate is skipped.
            match json_number(&committed, "check_grid_rounds_per_sec") {
                Some(grid_baseline) => {
                    let fresh = check_grid_throughput();
                    let ratio = fresh / grid_baseline;
                    outln!(
                        "check grid workload: {fresh:.0} rounds/sec vs committed \
                         {grid_baseline:.0} (ratio {ratio:.2}, floor {floor:.2})"
                    );
                    failed |= ratio < floor;
                }
                None => outln!("check grid workload: no committed row (pre-v3 baseline)"),
            }
            if failed {
                eprintln!(
                    "FAIL: single-thread round throughput regressed more than \
                     {:.0}% vs the committed baseline",
                    (1.0 - floor) * 100.0
                );
                std::process::exit(1);
            }
            outln!("OK: within the regression budget");
        }
        (None, Some(path)) => {
            let path = path.as_deref().unwrap_or("BENCH_sim.json");
            let baseline = measure();
            print_table(&baseline);
            std::fs::write(path, to_json(&baseline))?;
            outln!("\nwrote {path}");
        }
        (Some(_), Some(_)) => {
            return Err("pass either --check or --write, not both".into());
        }
        (None, None) => print_table(&measure()),
    }
    Ok(())
}
