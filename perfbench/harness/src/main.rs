//! Benchmark harness for the spec-driven experiment layer. Every
//! invocation is one fresh process; `perfbench/run.py` spawns it, and
//! `perfbench/README.md` describes the workloads and metrics.
//!
//! ```text
//! perfbench run   <spec.toml> --jobs N --out PATH  # what `experiment <spec> --jobs N --out PATH` does
//! perfbench setup <spec.toml>                      # read + parse + expand + plan, repeated for 0.2 s
//! perfbench trace <spec.toml> --jobs 1 --out PATH  # width-1 pass: each layer call timed in turn
//! perfbench trace <spec.toml> --jobs 2 --out PATH  # width-2 pass: cell completions, executor counters
//! ```
//!
//! Each mode prints its measurements as the last line of standard
//! output, `PERFBENCH {"name": value, ...}`, after the cell table the
//! `experiment` binary prints.

use std::error::Error;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use consistency_bench::experiment::{self, CellResult};
use consistency_core::analytic;
use nakamoto_sim::adversary::{
    Adversary, BalanceAdversary, ImmediateReleaseAdversary, PrivateChainAdversary,
};
use nakamoto_sim::compose::{ComposedAdversary, Composition};
use nakamoto_sim::config::SimConfig;
use nakamoto_sim::executor::{self, TaskKind};
use nakamoto_sim::oracle::MiningOracle;
use nakamoto_sim::scenario::StrategyKind;
use nakamoto_sim::selfish::SelfishMiningAdversary;
use nakamoto_sim::spec::{Estimate, ExperimentMode, ExperimentPlan, ExperimentSpec};
use probability::rng::Xoshiro256PlusPlus;

type Result<T> = std::result::Result<T, Box<dyn Error>>;

const USAGE: &str = "perfbench run|trace <spec.toml> --jobs N --out PATH\n       \
                     perfbench setup <spec.toml>";

/// How long a set-up probe repeats the set-up calls.
const SETUP_PROBE_SECONDS: f64 = 0.2;

/// Set-up repetitions a probe makes however long each one takes.
const MIN_SETUP_SAMPLES: usize = 5;

/// Gaps the oracle probe samples in total, shared evenly among the
/// mining configurations of the sampled cells.
const ORACLE_GAPS: u64 = 1 << 21;

struct Args {
    mode: String,
    spec: String,
    jobs: usize,
    out: String,
}

fn parse_args() -> Result<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let [mode, spec, flags @ ..] = argv.as_slice() else {
        return Err(format!("usage: {USAGE}").into());
    };
    let mut args = Args {
        mode: mode.clone(),
        spec: spec.clone(),
        jobs: 0,
        out: String::new(),
    };
    for pair in flags.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag `{}` needs a value; usage: {USAGE}", pair[0]).into());
        };
        match flag.as_str() {
            "--jobs" => args.jobs = value.parse()?,
            "--out" => args.out.clone_from(value),
            _ => return Err(format!("unknown flag `{flag}`; usage: {USAGE}").into()),
        }
    }
    let needs_out = args.mode == "run" || args.mode == "trace";
    if needs_out && (args.jobs == 0 || args.out.is_empty()) {
        return Err(format!("`{}` needs --jobs N (N ≥ 1) and --out PATH", args.mode).into());
    }
    Ok(args)
}

fn main() -> Result<()> {
    let args = parse_args()?;
    match (args.mode.as_str(), args.jobs) {
        ("run", _) => run(&args),
        ("setup", _) => setup(&args),
        ("trace", 1) => trace_serial(&args),
        ("trace", _) => trace_parallel(&args),
        (mode, _) => Err(format!("unknown mode `{mode}`; usage: {USAGE}").into()),
    }
}

/// Prints the measurements as the last line of standard output.
fn report(fields: &[(&str, f64)]) {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("PERFBENCH {{{}}}", body.join(", "));
}

/// Fixes the process-wide executor pool width before anything uses it.
fn configure_width(jobs: usize) -> Result<()> {
    if executor::configure_global_width(jobs) {
        Ok(())
    } else {
        Err(format!("the executor pool exists before its width could be fixed at {jobs}").into())
    }
}

/// The name `experiment` gives a spec in its JSON: the file stem.
fn spec_name(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned())
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// The timed run: read → parse → `run_spec_streaming` → `print_table`
/// → `to_json` → write, at a fixed pool width.
fn run(args: &Args) -> Result<()> {
    configure_width(args.jobs)?;
    let started = Instant::now();
    let source = fs::read_to_string(&args.spec)?;
    let spec = ExperimentSpec::parse(&source)?;
    let results = experiment::run_spec_streaming(&spec, args.jobs, |_, _| {})?;
    experiment::print_table(&results);
    fs::write(
        &args.out,
        experiment::to_json(&spec_name(&args.spec), &results),
    )?;
    let wall_s = secs(started, Instant::now());
    report(&[
        ("wall_s", wall_s),
        ("peak_rss_mb", peak_rss_mb()?),
        ("cells", results.len() as f64),
    ]);
    Ok(())
}

/// This process's peak resident memory (`VmHWM`). Unlike the parent's
/// `ru_maxrss` for a child, it does not count the memory of the process
/// that forked this one.
fn peak_rss_mb() -> Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Set-up cost: read, parse, expand and plan every cell, repeated for
/// [`SETUP_PROBE_SECONDS`] (at least [`MIN_SETUP_SAMPLES`] times);
/// reports the median repetition.
fn setup(args: &Args) -> Result<()> {
    let begun = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SETUP_SAMPLES || secs(begun, Instant::now()) < SETUP_PROBE_SECONDS {
        let started = Instant::now();
        let source = fs::read_to_string(&args.spec)?;
        let spec = ExperimentSpec::parse(&source)?;
        let cells = spec.expand()?;
        for cell in &cells {
            black_box(cell.spec.plan()?);
        }
        black_box(cells);
        samples.push(secs(started, Instant::now()));
    }
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    report(&[("setup_s", median), ("samples", samples.len() as f64)]);
    Ok(())
}

/// Busy time and work counts of the layer an executed plan ran on.
#[derive(Default)]
struct Layer {
    busy_s: f64,
    rounds: u64,
    blocks: u64,
}

/// The width-1 pass: times each public call of the experiment layer in
/// the order `experiment --jobs 1` makes it, then probes the oracle.
fn trace_serial(args: &Args) -> Result<()> {
    configure_width(1)?;
    let t_read = Instant::now();
    let source = fs::read_to_string(&args.spec)?;
    let t_parse = Instant::now();
    let spec = ExperimentSpec::parse(&source)?;
    let t_expand = Instant::now();
    let cells = spec.expand()?;
    let t_cells = Instant::now();

    let (mut plan_s, mut analytic_s) = (0.0, 0.0);
    let (mut exact, mut montecarlo, mut scenario, mut splitting) = (
        Layer::default(),
        Layer::default(),
        Layer::default(),
        Layer::default(),
    );
    let (mut solves, mut levels, mut hits, mut replicas) = (0u64, 0u64, 0u64, 0u64);
    let mut results = Vec::with_capacity(cells.len());
    for cell in cells {
        let a = Instant::now();
        let plan = cell.spec.plan()?;
        let b = Instant::now();
        let outcome = plan.execute();
        let c = Instant::now();
        let bounds = analytic::for_sim_config(&experiment::binding_config(&cell.spec)?);
        let d = Instant::now();
        plan_s += secs(a, b);
        analytic_s += secs(c, d);
        let layer = match (&plan, &outcome.estimate) {
            (ExperimentPlan::Exact(_), Estimate::Exact(run)) => {
                solves += run.estimates.len() as u64;
                &mut exact
            }
            (_, Estimate::Splitting(run)) => {
                levels += run.levels.len() as u64;
                hits += run.levels.iter().map(|l| l.hits).sum::<u64>();
                replicas += run.levels.iter().map(|l| l.effort).sum::<u64>();
                splitting.rounds += run.total_rounds;
                &mut splitting
            }
            (plan, Estimate::Wilson(run)) => {
                let layer = if matches!(plan, ExperimentPlan::Scenario(_)) {
                    &mut scenario
                } else {
                    &mut montecarlo
                };
                let aggregate = &run.aggregate;
                layer.rounds += aggregate.total_rounds();
                layer.blocks += aggregate.total_honest_blocks + aggregate.total_adversary_blocks;
                layer
            }
            (_, estimate) => {
                return Err(format!("a plan produced a {} estimate", estimate.backend()).into())
            }
        };
        layer.busy_s += secs(b, c);
        results.push(CellResult {
            labels: cell.labels,
            spec: cell.spec,
            rounds_per_trial: outcome.rounds_per_trial,
            estimate: outcome.estimate,
            analytic: bounds,
        });
    }
    let t_table = Instant::now();
    experiment::print_table(&results);
    let t_json = Instant::now();
    let json = experiment::to_json(&spec_name(&args.spec), &results);
    let t_write = Instant::now();
    fs::write(&args.out, &json)?;
    let t_end = Instant::now();

    let (gaps, oracle_s) = oracle_probe(&results)?;
    let busy = [&exact, &montecarlo, &scenario, &splitting].map(|l| l.busy_s);
    report(&[
        ("wall_s", secs(t_read, t_end)),
        ("io_s", secs(t_read, t_parse) + secs(t_write, t_end)),
        ("spec.parse_s", secs(t_parse, t_expand)),
        ("spec.expand_s", secs(t_expand, t_cells)),
        ("spec.plan_s", plan_s),
        ("spec.cells", results.len() as f64),
        ("cell_s", plan_s + busy.iter().sum::<f64>() + analytic_s),
        ("exact.busy_s", exact.busy_s),
        ("exact.solves", solves as f64),
        ("montecarlo.busy_s", montecarlo.busy_s),
        ("montecarlo.rounds", montecarlo.rounds as f64),
        ("montecarlo.blocks", montecarlo.blocks as f64),
        ("scenario.busy_s", scenario.busy_s),
        ("scenario.rounds", scenario.rounds as f64),
        ("scenario.blocks", scenario.blocks as f64),
        ("splitting.busy_s", splitting.busy_s),
        ("splitting.rounds", splitting.rounds as f64),
        ("splitting.levels", levels as f64),
        ("splitting.hits", hits as f64),
        ("splitting.replicas", replicas as f64),
        ("analytic.busy_s", analytic_s),
        ("experiment.table_s", secs(t_table, t_json)),
        ("experiment.json_s", secs(t_json, t_write)),
        ("experiment.json_bytes", json.len() as f64),
        ("oracle.gaps", gaps as f64),
        ("oracle.s", oracle_s),
    ]);
    Ok(())
}

/// The width-N pass: the timed run's calls with cell completion times
/// and the executor's counters recorded around the grid.
///
/// `run_spec_streaming`'s callback fires on the joining thread, which
/// helps run cells and so observes completions in batches. This pass
/// therefore submits the grid as `run_spec_streaming` does (one
/// composite job of `run_cell` units on the global pool) and stamps
/// each cell's completion inside its unit.
fn trace_parallel(args: &Args) -> Result<()> {
    configure_width(args.jobs)?;
    let started = Instant::now();
    let source = fs::read_to_string(&args.spec)?;
    let spec = ExperimentSpec::parse(&source)?;
    let cells = Arc::new(spec.expand()?);
    let before = executor::global_stats();
    let grid_start = Instant::now();
    let units = Arc::clone(&cells);
    let stamped = executor::run_ordered_with(
        cells.len() as u64,
        args.jobs,
        TaskKind::Composite,
        move |i| {
            let result = experiment::run_cell(units[i as usize].clone());
            (result, secs(grid_start, Instant::now()))
        },
        |_, _| {},
    );
    let grid_s = secs(grid_start, Instant::now());
    let after = executor::global_stats();
    let mut completions: Vec<f64> = stamped.iter().map(|(_, at)| *at).collect();
    let results = stamped
        .into_iter()
        .map(|(result, _)| result)
        .collect::<std::result::Result<Vec<_>, _>>()?;
    experiment::print_table(&results);
    fs::write(
        &args.out,
        experiment::to_json(&spec_name(&args.spec), &results),
    )?;
    let wall_s = secs(started, Instant::now());

    // With one cell the grid start stands in for the completion before
    // the last.
    completions.sort_by(f64::total_cmp);
    let tail_s = match completions.as_slice() {
        [.., before_last, last] => last - before_last,
        [last] => *last,
        [] => 0.0,
    };
    report(&[
        ("wall_s", wall_s),
        ("executor.wall_s", grid_s),
        ("executor.tail_s", tail_s),
        (
            "executor.tasks",
            (after.tasks_executed - before.tasks_executed) as f64,
        ),
        ("executor.steals", (after.steals - before.steals) as f64),
        (
            "executor.jobs_inline",
            (after.jobs_inline - before.jobs_inline) as f64,
        ),
        ("cells", results.len() as f64),
    ]);
    Ok(())
}

/// Times `MiningOracle::sample_gap_to_success` on the mining
/// configuration of every sampled cell (each phase of a scenario cell),
/// built as the engine builds it. Returns the gaps sampled and the
/// seconds they took; exact cells sample nothing and are skipped.
fn oracle_probe(results: &[CellResult]) -> Result<(u64, f64)> {
    let mut configs: Vec<(SimConfig, usize, Option<Vec<u64>>)> = Vec::new();
    for result in results {
        if matches!(result.estimate, Estimate::Exact(_)) {
            continue;
        }
        let spec = &result.spec;
        match &spec.mode {
            ExperimentMode::Stationary { strategy, .. } => {
                let (groups, subs) = mining_shape(*strategy, &spec.base, &spec.compositions);
                configs.push((spec.base, groups, subs));
            }
            ExperimentMode::Scenario(_) => {
                let scenario = spec.scenario()?;
                for (i, phase) in scenario.phases().iter().enumerate() {
                    let cfg = scenario.phase_config(i);
                    let (_, subs) = mining_shape(phase.strategy, &cfg, scenario.compositions());
                    configs.push((cfg, scenario.group_count(), subs));
                }
            }
        }
    }
    let per_config = ORACLE_GAPS / (configs.len() as u64).max(1);
    let mut seconds = 0.0;
    for (cfg, groups, subs) in &configs {
        let rng = Xoshiro256PlusPlus::seed_from_u64(cfg.seed);
        let mut oracle = MiningOracle::new(
            split_honest(*groups, cfg.n_honest()),
            cfg.n_adversary(),
            cfg.hardness,
            rng,
        );
        oracle.set_adversary_split(subs.as_deref());
        let started = Instant::now();
        for _ in 0..per_config {
            black_box(oracle.sample_gap_to_success());
        }
        seconds += secs(started, Instant::now());
    }
    Ok((per_config * configs.len() as u64, seconds))
}

/// Honest delivery groups and adversary sub-population sizes of the
/// bare adversary for `strategy`. A scenario cell takes only the sizes:
/// its groups follow all of its phases.
fn mining_shape(
    strategy: StrategyKind,
    cfg: &SimConfig,
    compositions: &[Composition],
) -> (usize, Option<Vec<u64>>) {
    let delta = cfg.delta;
    let adversary: Box<dyn Adversary> = match strategy {
        StrategyKind::Honest => Box::new(ImmediateReleaseAdversary::new()),
        StrategyKind::PrivateChain => Box::new(PrivateChainAdversary::new(delta)),
        StrategyKind::Balance => Box::new(BalanceAdversary::new(delta)),
        StrategyKind::Selfish => Box::new(SelfishMiningAdversary::new(delta)),
        StrategyKind::Composed(i) => {
            Box::new(ComposedAdversary::new(delta, compositions[i].clone()))
        }
    };
    (
        adversary.group_count(),
        adversary.sub_miner_counts(cfg.n_adversary()),
    )
}

/// The engine's even split of the honest miners over its delivery
/// groups (private to `nakamoto_sim::execution`).
fn split_honest(groups: usize, n_honest: u64) -> [u64; 2] {
    if groups == 1 {
        [n_honest, 0]
    } else {
        [n_honest / 2, n_honest - n_honest / 2]
    }
}
