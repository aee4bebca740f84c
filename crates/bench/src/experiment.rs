//! The spec-driven experiment runner: loads an [`ExperimentSpec`]
//! (single run or sweep grid), executes every cell on the backend the
//! spec selects — sampled Wilson trials, rare-event splitting, or the
//! exact Markov race solve — and reports each cell's estimate **with
//! the paper's analytic bounds overlaid**
//! ([`consistency_core::analytic`]) — as a human table and as
//! machine-readable JSON.
//!
//! This module is the common plumbing behind the unified `experiment`
//! binary and the ported `attack_sweep` / `scenario_sweep` /
//! `compose_sweep` harnesses; the binaries only differ in how they
//! pivot the flat cell list for display.

use consistency_core::analytic::{self, AnalyticBounds};
use nakamoto_sim::exact::ExactRun;
use nakamoto_sim::executor::{self, TaskKind};
use nakamoto_sim::montecarlo::MonteCarloRun;
use nakamoto_sim::spec::{Estimate, ExperimentCell, ExperimentMode, ExperimentSpec, SpecError};
use nakamoto_sim::splitting::SplittingRun;
use std::fmt::{self, Write as _};

/// One executed cell: its sweep labels, the concrete spec it ran, the
/// backend-tagged estimate, and the analytic overlay (absent for the
/// adversary-free `ν = 0` baseline, which the bounds don't cover).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// One label per sweep axis (empty for a single-run spec).
    pub labels: Vec<String>,
    /// The concrete (sweep-free) spec this cell ran.
    pub spec: ExperimentSpec,
    /// Rounds each trial simulated (bookkeeping only for exact cells).
    pub rounds_per_trial: u64,
    /// The backend-tagged estimate the cell's plan produced.
    pub estimate: Estimate,
    /// The paper's predictions for the cell's *binding* parameters:
    /// the `[base]` config for stationary cells, the highest-ν phase
    /// configuration for scenario cells (a bound computed from a calm
    /// base would say nothing about the attack window actually driving
    /// the cell's failure rate).
    pub analytic: Option<AnalyticBounds>,
}

impl CellResult {
    /// The Wilson Monte-Carlo run, for cells that sampled one.
    #[must_use]
    pub fn wilson(&self) -> Option<&MonteCarloRun> {
        match &self.estimate {
            Estimate::Wilson(run) => Some(run),
            _ => None,
        }
    }

    /// The splitting run, for cells that selected the splitting
    /// estimator.
    #[must_use]
    pub fn splitting(&self) -> Option<&SplittingRun> {
        match &self.estimate {
            Estimate::Splitting(run) => Some(run),
            _ => None,
        }
    }

    /// The exact Markov solve, for `backend = "markov"` cells.
    #[must_use]
    pub fn exact(&self) -> Option<&ExactRun> {
        match &self.estimate {
            Estimate::Exact(run) => Some(run),
            _ => None,
        }
    }
}

/// Expands and runs every cell of a spec, returning results in sweep
/// order. All cells are submitted to the shared executor pool at once
/// (see [`run_spec_streaming`]); on a one-worker pool this degenerates
/// to the historical sequential walk.
///
/// # Errors
///
/// Returns [`SpecError`] if expansion or per-cell validation fails.
pub fn run_spec(spec: &ExperimentSpec) -> Result<Vec<CellResult>, SpecError> {
    run_spec_streaming(spec, 0, |_, _| {})
}

/// Expands a spec and submits **all cells at once** as one composite
/// job on the shared [`nakamoto_sim::executor`] pool, so independent
/// cells pipeline across the same workers and grid wall-clock
/// approaches `max(cell)` instead of `sum(cell)` on a multi-core host.
///
/// `jobs` bounds how many cells occupy pool slots concurrently; `0`
/// uses the pool's own width (the `--jobs` CLI flag routes here).
/// Cells *complete* in an arbitrary order — `on_cell(index, &result)`
/// fires in completion order for streaming progress — but the returned
/// `Vec` is always in sweep order, and each cell's estimate is a pure
/// function of its own spec, so the results (and any JSON rendered
/// from them) are byte-identical to the sequential walk at every job
/// count.
///
/// # Errors
///
/// Returns [`SpecError`] if expansion or per-cell validation fails
/// (the earliest failing cell in sweep order wins).
pub fn run_spec_streaming<C>(
    spec: &ExperimentSpec,
    jobs: usize,
    mut on_cell: C,
) -> Result<Vec<CellResult>, SpecError>
where
    C: FnMut(usize, &CellResult),
{
    let cells = spec.expand()?;
    let width = if jobs == 0 {
        executor::global_width()
    } else {
        jobs
    };
    // Each unit takes its cell by value: the cell's labels and spec move
    // into its result rather than being cloned out of shared storage.
    let results = executor::run_owned_with(
        cells,
        width,
        TaskKind::Composite,
        run_cell,
        |i, result: &Result<CellResult, SpecError>| {
            if let Ok(cell) = result {
                on_cell(i as usize, cell);
            }
        },
    );
    results.into_iter().collect()
}

/// Runs one concrete cell.
///
/// # Errors
///
/// Returns [`SpecError`] if the cell's plan fails validation.
pub fn run_cell(cell: ExperimentCell) -> Result<CellResult, SpecError> {
    let outcome = cell.spec.plan()?.execute();
    let analytic = analytic::for_sim_config(&binding_config(&cell.spec)?);
    Ok(CellResult {
        labels: cell.labels,
        spec: cell.spec,
        rounds_per_trial: outcome.rounds_per_trial,
        estimate: outcome.estimate,
        analytic,
    })
}

/// The configuration the analytic overlay is computed from: the
/// `[base]` config for stationary cells; for scenario cells, the
/// effective configuration of the **highest-ν phase** (ties broken
/// towards the earliest such phase) — the binding attack regime, since
/// a calm-base bound says nothing about the window that drives the
/// failure rate.
///
/// # Errors
///
/// Returns [`SpecError`] if a scenario spec fails validation.
pub fn binding_config(spec: &ExperimentSpec) -> Result<nakamoto_sim::config::SimConfig, SpecError> {
    match &spec.mode {
        ExperimentMode::Stationary { .. } => Ok(spec.base),
        ExperimentMode::Scenario(_) => {
            let scenario = spec.scenario()?;
            Ok((0..scenario.phases().len())
                .map(|i| scenario.phase_config(i))
                .reduce(|best, cfg| {
                    if cfg.adversary_fraction > best.adversary_fraction {
                        cfg
                    } else {
                        best
                    }
                })
                .expect("a scenario has at least one phase"))
        }
    }
}

/// Applies the harness budget overrides (`--rounds`, `--trials`,
/// `--seed`) onto a parsed spec: `rounds` rescales the stationary run
/// or *every* scenario phase, the rest override the run settings /
/// base seed. This is how CI smokes every committed spec at tiny
/// budgets without editing the files.
///
/// An override is a hard cap for the whole run, so sweep-cell patches
/// targeting the same budget path (`experiment.trials`,
/// `experiment.splitting_effort`, `stationary.rounds`,
/// `phase.N.rounds`) are dropped — otherwise expansion would silently
/// re-apply the spec's full budget *after* the override, defeating a
/// tiny-budget smoke.
pub fn apply_budget(
    spec: &mut ExperimentSpec,
    rounds: Option<u64>,
    trials: Option<u64>,
    seed: Option<u64>,
) {
    if let Some(rounds) = rounds {
        match &mut spec.mode {
            ExperimentMode::Stationary { rounds: r, .. } => *r = rounds,
            ExperimentMode::Scenario(phases) => {
                for phase in phases {
                    phase.rounds = rounds;
                }
            }
        }
    }
    if let Some(trials) = trials {
        spec.run.trials = trials;
        // `--trials` is the cell-budget knob, so it also caps the
        // splitting effort: an explicit `splitting_effort = 512` must
        // not let a tiny-budget smoke run 512 replicas per level
        // (effort 0 already follows `trials`).
        if spec.run.splitting.effort != 0 {
            spec.run.splitting.effort = spec.run.splitting.effort.min(trials.max(1));
        }
    }
    if let Some(seed) = seed {
        spec.base.seed = seed;
    }
    if let Some(sweep) = &mut spec.sweep {
        let overridden = |path: &str| {
            (trials.is_some()
                && (path == "experiment.trials" || path == "experiment.splitting_effort"))
                || (rounds.is_some()
                    && (path == "stationary.rounds"
                        || (path.starts_with("phase.") && path.ends_with(".rounds"))))
        };
        for axis in &mut sweep.axes {
            for cell in &mut axis.cells {
                cell.patches.retain(|(path, _)| !overridden(path));
            }
        }
    }
}

/// Prints the flat cell table: one row per cell with the depth (for
/// sampled cells), every threshold's estimate in the cell's backend —
/// a Wilson 95% CI, a splitting estimate with its relative error, or
/// the exact probability with its additive truncation bound — and the
/// theorem-1 margin / consistency verdict columns of the analytic
/// overlay. When a splitting or an exact cell is present, a line under
/// the table says what its value is.
pub fn print_table(results: &[CellResult]) {
    let mut table = String::new();
    write_table(&mut table, results).expect("writing to a String cannot fail");
    // One write to stdout: stdout is line-buffered even when it is a
    // file, so a `println!` per row would be one per row.
    crate::print_stdout(&table);
}

/// Writes [`print_table`]'s table to `out`.
fn write_table(out: &mut String, results: &[CellResult]) -> fmt::Result {
    let thresholds: &[u64] = results.first().map_or(&[], |r| &r.spec.run.thresholds);
    // Each padded field's text is written into this one reused buffer,
    // then padded into `out`.
    let mut cell = String::new();
    let mut label_width = 4;
    for result in results {
        cell.clear();
        write_cell_name(&mut cell, result)?;
        label_width = label_width.max(cell.len());
    }
    write!(out, "{:<label_width$} {:>6}", "cell", "depth")?;
    for t in thresholds {
        cell.clear();
        write!(cell, "P[¬{t}-cons]")?;
        write!(out, " {cell:>23}")?;
    }
    writeln!(out, " {:>13} {:>10}", "thm1 margin", "consistent")?;
    for result in results {
        cell.clear();
        write_cell_name(&mut cell, result)?;
        write!(out, "{cell:<label_width$} ")?;
        match result.wilson() {
            Some(run) => write!(out, "{:>6}", crate::table::depth_cell(&run.aggregate))?,
            None => write!(out, "{:>6}", "—")?,
        }
        for &t in thresholds {
            cell.clear();
            write_threshold_cell(&mut cell, result, t)?;
            write!(out, " {cell:>23}")?;
        }
        match &result.analytic {
            Some(bounds) => writeln!(
                out,
                " {:>13.3} {:>10}",
                bounds.theorem1_ln_margin,
                if bounds.consistent() { "yes" } else { "no" }
            )?,
            None => writeln!(out, " {:>13} {:>10}", "—", "ν=0")?,
        }
    }
    if results.iter().any(|r| r.splitting().is_some()) {
        writeln!(
            out,
            "splitting cells: the probability of a T-violation within `rounds` rounds \
             under the cell's strategy"
        )?;
    }
    if results.iter().any(|r| r.exact().is_some()) {
        writeln!(
            out,
            "exact cells: the race-model probability that a deficit of T blocks \
             reaches 0 at q_eff; it does not depend on `rounds`"
        )?;
    }
    Ok(())
}

/// Writes one threshold's estimate as a table cell, in the backend the
/// cell ran: a Wilson 95% CI, a splitting `estimate ±relative-error`
/// (`0 (starved@ℓ)` for a starved chain), or the exact probability
/// with its additive truncation bound.
fn write_threshold_cell(out: &mut String, result: &CellResult, t: u64) -> fmt::Result {
    match &result.estimate {
        Estimate::Wilson(run) => {
            out.push_str(&crate::table::failure_cell(&run.aggregate, t, 1.96));
            Ok(())
        }
        Estimate::Splitting(run) => {
            let Some(estimate) = run.estimate_at(t) else {
                return out.write_str("—");
            };
            match (estimate.relative_error, estimate.starved_at) {
                (Some(re), _) => write!(out, "{:.3e} ±{:.0}%", estimate.probability, re * 100.0),
                (None, Some(level)) => write!(out, "0 (starved@{level})"),
                (None, None) => out.write_str("0"),
            }
        }
        Estimate::Exact(run) => {
            let Some(estimate) = run.estimate_at(t) else {
                return out.write_str("—");
            };
            write!(
                out,
                "{:.6e} +≤{:.0e}",
                estimate.probability, estimate.truncation_error
            )
        }
    }
}

fn write_cell_name(out: &mut String, result: &CellResult) -> fmt::Result {
    if result.labels.is_empty() {
        return out.write_str("single");
    }
    for (i, label) in result.labels.iter().enumerate() {
        if i > 0 {
            out.write_str(" / ")?;
        }
        out.write_str(label)?;
    }
    Ok(())
}

/// A string as a JSON string literal: quoted and escaped.
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for ch in self.0.chars() {
            match ch {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                '\r' => f.write_str("\\r")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// A JSON number, or `null` for a non-finite value (JSON has no
/// infinities). Rust's float `Display` is already a valid JSON number.
struct Num(f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Display::fmt(&self.0, f)
        } else {
            f.write_str("null")
        }
    }
}

/// The value, or `null` when there is none.
struct OrNull<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for OrNull<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(value) => fmt::Display::fmt(value, f),
            None => f.write_str("null"),
        }
    }
}

/// Bytes reserved per cell for the JSON document, so its buffer is
/// usually sized once: an exact cell with four thresholds takes about
/// 1.6 KB, a Wilson cell about 1.1 KB. Larger cells cost a
/// reallocation, not a wrong byte.
const JSON_BYTES_PER_CELL: usize = 2048;

/// Renders the executed cells as a machine-readable JSON document: a
/// `montecarlo` / `splitting` / `exact` block per cell (exactly one of
/// the three is non-null, matching the cell's backend-tagged
/// estimate), and the analytic-bound overlay (`analytic: null` for the
/// ν = 0 baseline).
#[must_use]
pub fn to_json(name: &str, results: &[CellResult]) -> String {
    let mut out = String::with_capacity(256 + name.len() + JSON_BYTES_PER_CELL * results.len());
    write_json(&mut out, name, results).expect("writing to a String cannot fail");
    out
}

fn write_json(out: &mut String, name: &str, results: &[CellResult]) -> fmt::Result {
    writeln!(out, "{{")?;
    writeln!(out, "  \"spec\": {},", Quoted(name))?;
    writeln!(out, "  \"schema\": \"experiment-v2\",")?;
    writeln!(out, "  \"cells\": [")?;
    for (i, result) in results.iter().enumerate() {
        writeln!(out, "    {{")?;
        out.write_str("      \"labels\": [")?;
        for (j, label) in result.labels.iter().enumerate() {
            if j > 0 {
                out.write_str(", ")?;
            }
            write!(out, "{}", Quoted(label))?;
        }
        writeln!(out, "],")?;
        writeln!(out, "      \"seed\": {},", result.spec.base.seed)?;
        writeln!(out, "      \"backend\": \"{}\",", result.estimate.backend())?;
        writeln!(
            out,
            "      \"estimator\": \"{}\",",
            result.spec.run.estimator
        )?;
        writeln!(
            out,
            "      \"rounds_per_trial\": {},",
            result.rounds_per_trial
        )?;
        match result.wilson() {
            None => writeln!(out, "      \"montecarlo\": null,")?,
            Some(run) => write_montecarlo(out, run)?,
        }
        match result.splitting() {
            None => writeln!(out, "      \"splitting\": null,")?,
            Some(splitting) => write_splitting(out, splitting)?,
        }
        match result.exact() {
            None => writeln!(out, "      \"exact\": null,")?,
            Some(exact) => write_exact(out, exact)?,
        }
        match &result.analytic {
            None => writeln!(out, "      \"analytic\": null")?,
            Some(bounds) => write_analytic(out, bounds, result.rounds_per_trial)?,
        }
        writeln!(
            out,
            "    }}{}",
            if i + 1 < results.len() { "," } else { "" }
        )?;
    }
    writeln!(out, "  ]")?;
    writeln!(out, "}}")
}

fn write_montecarlo(out: &mut String, run: &MonteCarloRun) -> fmt::Result {
    let aggregate = &run.aggregate;
    writeln!(out, "      \"montecarlo\": {{")?;
    writeln!(out, "        \"trials\": {},", aggregate.trials)?;
    writeln!(
        out,
        "        \"total_honest_blocks\": {},",
        aggregate.total_honest_blocks
    )?;
    writeln!(
        out,
        "        \"total_adversary_blocks\": {},",
        aggregate.total_adversary_blocks
    )?;
    writeln!(
        out,
        "        \"total_convergence_opportunities\": {},",
        aggregate.total_convergence_opportunities
    )?;
    writeln!(
        out,
        "        \"max_reorg_depth\": {},",
        aggregate.max_reorg_depth
    )?;
    writeln!(
        out,
        "        \"max_divergence_depth\": {},",
        aggregate.max_divergence_depth
    )?;
    out.write_str("        \"failures\": [")?;
    for (j, &(t, failures)) in aggregate.failure_counts.iter().enumerate() {
        if j > 0 {
            out.write_str(", ")?;
        }
        let w = aggregate
            .failure_interval(t, 1.96)
            .expect("non-empty aggregate carries every plan threshold");
        write!(
            out,
            "{{\"threshold\": {t}, \"failures\": {failures}, \"estimate\": {}, \"lo\": {}, \"hi\": {}}}",
            Num(w.estimate),
            Num(w.lo),
            Num(w.hi)
        )?;
    }
    writeln!(out, "]")?;
    writeln!(out, "      }},")
}

fn write_splitting(out: &mut String, splitting: &SplittingRun) -> fmt::Result {
    writeln!(out, "      \"splitting\": {{")?;
    writeln!(
        out,
        "        \"effort\": {},",
        splitting.levels.first().map_or(0, |l| l.effort)
    )?;
    writeln!(out, "        \"total_rounds\": {},", splitting.total_rounds)?;
    out.write_str("        \"levels\": [")?;
    for (j, stage) in splitting.levels.iter().enumerate() {
        if j > 0 {
            out.write_str(", ")?;
        }
        write!(
            out,
            "{{\"level\": {}, \"hits\": {}, \"effort\": {}}}",
            stage.level, stage.hits, stage.effort
        )?;
    }
    writeln!(out, "],")?;
    out.write_str("        \"estimates\": [")?;
    for (j, estimate) in splitting.estimates.iter().enumerate() {
        if j > 0 {
            out.write_str(", ")?;
        }
        write!(
            out,
            "{{\"threshold\": {}, \"probability\": {}, \"relative_error\": {}, \
             \"standard_error\": {}, \"starved_at\": {}}}",
            estimate.threshold,
            Num(estimate.probability),
            OrNull(estimate.relative_error.map(Num)),
            OrNull(estimate.standard_error().map(Num)),
            OrNull(estimate.starved_at),
        )?;
    }
    writeln!(out, "]")?;
    writeln!(out, "      }},")
}

fn write_exact(out: &mut String, exact: &ExactRun) -> fmt::Result {
    writeln!(out, "      \"exact\": {{")?;
    writeln!(out, "        \"q\": {},", Num(exact.q))?;
    writeln!(out, "        \"cap\": {},", exact.cap)?;
    out.write_str("        \"estimates\": [")?;
    for (j, estimate) in exact.estimates.iter().enumerate() {
        if j > 0 {
            out.write_str(", ")?;
        }
        write!(
            out,
            "{{\"threshold\": {}, \"probability\": {}, \"truncation_error\": {}, \
             \"upper\": {}}}",
            estimate.threshold,
            Num(estimate.probability),
            Num(estimate.truncation_error),
            Num(estimate.probability + estimate.truncation_error),
        )?;
    }
    writeln!(out, "]")?;
    writeln!(out, "      }},")
}

fn write_analytic(out: &mut String, b: &AnalyticBounds, rounds_per_trial: u64) -> fmt::Result {
    let (e_c, e_a) = b.expected_counts(rounds_per_trial);
    writeln!(out, "      \"analytic\": {{")?;
    writeln!(out, "        \"c\": {},", Num(b.c))?;
    writeln!(
        out,
        "        \"theorem1_ln_margin\": {},",
        Num(b.theorem1_ln_margin)
    )?;
    writeln!(out, "        \"theorem1_holds\": {},", b.theorem1_holds)?;
    writeln!(
        out,
        "        \"theorem1_max_delta1\": {},",
        OrNull(b.theorem1_max_delta1.map(Num))
    )?;
    writeln!(
        out,
        "        \"expected_convergence_opportunities\": {},",
        Num(e_c)
    )?;
    writeln!(out, "        \"expected_adversary_blocks\": {},", Num(e_a))?;
    writeln!(
        out,
        "        \"theorem2_neat_bound_c\": {},",
        Num(b.theorem2_neat_bound_c)
    )?;
    writeln!(out, "        \"theorem2_holds\": {},", b.theorem2_holds)?;
    writeln!(out, "        \"theorem3_holds\": {},", b.theorem3_holds)?;
    writeln!(
        out,
        "        \"nu_max_c\": {},",
        OrNull(b.nu_max_c.map(Num))
    )?;
    writeln!(out, "        \"pss_attack_nu\": {}", Num(b.pss_attack_nu))?;
    writeln!(out, "      }}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON well-formedness check (objects, arrays, strings,
    /// numbers, booleans, null); the CI `experiments` job additionally
    /// validates every committed spec's document with `python3 -m
    /// json.tool`.
    fn json_is_well_formed(input: &str) -> bool {
        let chars: Vec<char> = input.chars().collect();
        let mut pos = 0usize;
        if !json_value(&chars, &mut pos) {
            return false;
        }
        skip_json_ws(&chars, &mut pos);
        pos == chars.len()
    }

    fn skip_json_ws(chars: &[char], pos: &mut usize) {
        while matches!(chars.get(*pos), Some(' ' | '\t' | '\n' | '\r')) {
            *pos += 1;
        }
    }

    fn json_value(chars: &[char], pos: &mut usize) -> bool {
        skip_json_ws(chars, pos);
        match chars.get(*pos) {
            Some('{') => {
                *pos += 1;
                skip_json_ws(chars, pos);
                if chars.get(*pos) == Some(&'}') {
                    *pos += 1;
                    return true;
                }
                loop {
                    skip_json_ws(chars, pos);
                    if !json_string(chars, pos) {
                        return false;
                    }
                    skip_json_ws(chars, pos);
                    if chars.get(*pos) != Some(&':') {
                        return false;
                    }
                    *pos += 1;
                    if !json_value(chars, pos) {
                        return false;
                    }
                    skip_json_ws(chars, pos);
                    match chars.get(*pos) {
                        Some(',') => *pos += 1,
                        Some('}') => {
                            *pos += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some('[') => {
                *pos += 1;
                skip_json_ws(chars, pos);
                if chars.get(*pos) == Some(&']') {
                    *pos += 1;
                    return true;
                }
                loop {
                    if !json_value(chars, pos) {
                        return false;
                    }
                    skip_json_ws(chars, pos);
                    match chars.get(*pos) {
                        Some(',') => *pos += 1,
                        Some(']') => {
                            *pos += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some('"') => json_string(chars, pos),
            Some('t') => json_literal(chars, pos, "true"),
            Some('f') => json_literal(chars, pos, "false"),
            Some('n') => json_literal(chars, pos, "null"),
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                let start = *pos;
                while matches!(
                    chars.get(*pos),
                    Some(c) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                ) {
                    *pos += 1;
                }
                let token: String = chars[start..*pos].iter().collect();
                token.parse::<f64>().is_ok()
            }
            _ => false,
        }
    }

    fn json_string(chars: &[char], pos: &mut usize) -> bool {
        if chars.get(*pos) != Some(&'"') {
            return false;
        }
        *pos += 1;
        loop {
            match chars.get(*pos) {
                None => return false,
                Some('\\') => *pos += 2,
                Some('"') => {
                    *pos += 1;
                    return true;
                }
                Some(_) => *pos += 1,
            }
        }
    }

    fn json_literal(chars: &[char], pos: &mut usize, literal: &str) -> bool {
        for expected in literal.chars() {
            if chars.get(*pos) != Some(&expected) {
                return false;
            }
            *pos += 1;
        }
        true
    }

    const TINY_SPEC: &str = r#"
        [experiment]
        trials = 2
        thresholds = [12]

        [base]
        n_miners = 100
        delta = 4
        c = 2.0
        adversary_fraction = 0.25
        seed = 11

        [stationary]
        strategy = "private-chain"
        rounds = 500
    "#;

    #[test]
    fn single_spec_runs_one_cell_with_analytic_overlay() {
        let spec = ExperimentSpec::parse(TINY_SPEC).unwrap();
        let results = run_spec(&spec).unwrap();
        assert_eq!(results.len(), 1);
        let cell = &results[0];
        let run = cell.wilson().expect("default backend samples trials");
        assert_eq!(run.aggregate.trials, 2);
        assert_eq!(cell.rounds_per_trial, 500);
        let bounds = cell.analytic.as_ref().expect("ν > 0 carries bounds");
        assert!(bounds.theorem1_ln_margin.is_finite());
        print_table(&results); // must not panic
    }

    #[test]
    fn json_output_is_well_formed_and_carries_the_overlay() {
        let spec = ExperimentSpec::parse(TINY_SPEC).unwrap();
        let results = run_spec(&spec).unwrap();
        let json = to_json("tiny \"quoted\"", &results);
        assert!(json_is_well_formed(&json), "malformed:\n{json}");
        assert!(json.contains("\"theorem1_ln_margin\""));
        assert!(json.contains("\"estimate\""));
        assert!(json.contains("\\\"quoted\\\""));
    }

    #[test]
    fn budget_overrides_rescale_every_phase() {
        let mut spec = ExperimentSpec::parse(TINY_SPEC).unwrap();
        apply_budget(&mut spec, Some(100), Some(3), Some(42));
        assert_eq!(spec.run.trials, 3);
        assert_eq!(spec.base.seed, 42);
        let ExperimentMode::Stationary { rounds, .. } = spec.mode else {
            panic!("stationary")
        };
        assert_eq!(rounds, 100);
    }

    /// Scenario cells must overlay the bound of the *attack* regime,
    /// not the calm base: the binding config is the highest-ν phase.
    #[test]
    fn scenario_overlay_uses_the_highest_power_phase() {
        let spec = ExperimentSpec::parse(
            r#"
            [experiment]
            trials = 1
            thresholds = [12]

            [base]
            n_miners = 100
            delta = 4
            c = 1.0
            adversary_fraction = 0.1
            seed = 3

            [[phase]]
            rounds = 200
            strategy = "honest"
            regime = "calm"

            [[phase]]
            rounds = 200
            strategy = "private-chain"
            regime = "adversarial"
            adversary_fraction = 0.4

            [[phase]]
            rounds = 200
            strategy = "honest"
            regime = "calm"
            "#,
        )
        .unwrap();
        let cfg = binding_config(&spec).unwrap();
        assert_eq!(cfg.adversary_fraction, 0.4, "attack phase binds");
        let results = run_spec(&spec).unwrap();
        let bounds = results[0].analytic.as_ref().unwrap();
        assert_eq!(bounds.params.nu(), 0.4, "overlay describes the window");
        assert!(
            !bounds.theorem1_holds,
            "c = 1 at ν = 0.4 lies outside the consistency region"
        );
    }

    /// A CLI budget override is a hard cap: sweep-cell patches on the
    /// same budget paths are dropped rather than silently re-applied
    /// after the override.
    #[test]
    fn budget_overrides_beat_sweep_budget_patches() {
        let source = r#"
            [experiment]
            trials = 9

            [base]
            n_miners = 100
            delta = 4
            c = 1.0
            adversary_fraction = 0.1
            seed = 0

            [stationary]
            strategy = "honest"
            rounds = 9000

            [sweep]
            seed = 5

            [[sweep.axis]]
            label = "budget"

            [[sweep.axis.cell]]
            label = "big"
            patch = { "experiment.trials" = 9, "stationary.rounds" = 9000, "base.adversary_fraction" = 0.2 }
        "#;
        let mut spec = ExperimentSpec::parse(source).unwrap();
        apply_budget(&mut spec, Some(50), Some(2), None);
        let cells = spec.expand().unwrap();
        let cell = &cells[0];
        assert_eq!(cell.spec.run.trials, 2, "--trials caps the sweep cell");
        let ExperimentMode::Stationary { rounds, .. } = cell.spec.mode else {
            panic!("stationary")
        };
        assert_eq!(rounds, 50, "--rounds caps the sweep cell");
        assert_eq!(
            cell.spec.base.adversary_fraction, 0.2,
            "non-budget patches still apply"
        );
    }

    const SWEEP_SPEC: &str = r#"
        [experiment]
        trials = 2
        thresholds = [12]

        [base]
        n_miners = 100
        delta = 4
        c = 2.0
        adversary_fraction = 0.25
        seed = 11

        [stationary]
        strategy = "private-chain"
        rounds = 400

        [sweep]
        seed = 5

        [[sweep.axis]]
        label = "nu"

        [[sweep.axis.cell]]
        label = "0.15"
        patch = { "base.adversary_fraction" = 0.15 }

        [[sweep.axis.cell]]
        label = "0.25"
        patch = { "base.adversary_fraction" = 0.25 }

        [[sweep.axis.cell]]
        label = "0.35"
        patch = { "base.adversary_fraction" = 0.35 }
    "#;

    /// Pipelining grid cells across the shared pool is an
    /// execution-strategy change only: the rendered JSON document must
    /// be byte-identical at every job count, and the streaming callback
    /// must see every cell exactly once.
    #[test]
    fn grid_json_is_byte_identical_at_every_job_count() {
        let spec = ExperimentSpec::parse(SWEEP_SPEC).unwrap();
        let sequential = run_spec_streaming(&spec, 1, |_, _| {}).unwrap();
        assert_eq!(sequential.len(), 3);
        let reference = to_json("sweep", &sequential);
        for jobs in [2, 4, 8] {
            let mut streamed = vec![0u32; sequential.len()];
            let results = run_spec_streaming(&spec, jobs, |i, _| streamed[i] += 1).unwrap();
            assert!(
                streamed.iter().all(|&c| c == 1),
                "jobs {jobs}: {streamed:?}"
            );
            assert_eq!(to_json("sweep", &results), reference, "jobs {jobs}");
        }
    }

    #[test]
    fn nu_zero_cells_carry_no_analytic_overlay() {
        let source = TINY_SPEC.replace("adversary_fraction = 0.25", "adversary_fraction = 0.0");
        let spec = ExperimentSpec::parse(&source).unwrap();
        let results = run_spec(&spec).unwrap();
        assert!(results[0].analytic.is_none());
        let json = to_json("baseline", &results);
        assert!(json.contains("\"analytic\": null"));
        assert!(json_is_well_formed(&json), "{json}");
        print_table(&results);
    }

    const SPLITTING_SPEC: &str = r#"
        [experiment]
        trials = 2
        thresholds = [3, 6]
        estimator = "splitting"
        splitting_effort = 24

        [base]
        n_miners = 100
        delta = 4
        c = 1.0
        adversary_fraction = 0.3
        seed = 11

        [stationary]
        strategy = "private-chain"
        rounds = 800
    "#;

    #[test]
    fn splitting_cells_carry_the_splitting_estimate() {
        let spec = ExperimentSpec::parse(SPLITTING_SPEC).unwrap();
        let results = run_spec(&spec).unwrap();
        let cell = &results[0];
        assert!(cell.wilson().is_none(), "splitting replaces the trials");
        let splitting = cell.splitting().expect("splitting selected");
        assert!(!splitting.levels.is_empty());
        assert_eq!(splitting.estimates.len(), 2);
        let json = to_json("splitting", &results);
        assert!(json_is_well_formed(&json), "malformed:\n{json}");
        assert!(json.contains("\"estimator\": \"splitting\""));
        assert!(json.contains("\"montecarlo\": null"));
        // Each estimate is the splitting number and its error bar, with
        // no analytic reference beside it: no formula here answers the
        // finite-horizon question the estimate does.
        let keys = "threshold, probability, relative_error, standard_error, starved_at";
        assert_eq!(estimate_keys(&json), [keys; 2]);
        print_table(&results); // must not panic
    }

    /// The `(key, value)` pairs of every object in the document's
    /// `"estimates"` arrays, in the order written.
    fn estimate_fields(json: &str) -> Vec<Vec<(&str, &str)>> {
        json.lines()
            .filter_map(|line| line.trim().strip_prefix("\"estimates\": [{"))
            .flat_map(|objects| objects.trim_end_matches("}]").split("}, {"))
            .map(|object| {
                object
                    .split(", ")
                    .map(|field| {
                        let (key, value) = field.split_once(": ").expect("a key-value pair");
                        (key.trim_matches('"'), value)
                    })
                    .collect()
            })
            .collect()
    }

    /// Each estimate object's keys, joined by `", "`.
    fn estimate_keys(json: &str) -> Vec<String> {
        let fields = estimate_fields(json);
        let keys = fields.iter().map(|o| o.iter().map(|&(key, _)| key));
        keys.map(|k| k.collect::<Vec<_>>().join(", ")).collect()
    }

    #[test]
    fn wilson_cells_have_null_splitting_and_exact() {
        let spec = ExperimentSpec::parse(TINY_SPEC).unwrap();
        let results = run_spec(&spec).unwrap();
        assert!(results[0].splitting().is_none());
        assert!(results[0].exact().is_none());
        let json = to_json("tiny", &results);
        assert!(json.contains("\"backend\": \"montecarlo\""));
        assert!(json.contains("\"estimator\": \"wilson\""));
        assert!(json.contains("\"splitting\": null"));
        assert!(json.contains("\"exact\": null"));
        assert!(json_is_well_formed(&json), "{json}");
    }

    const MARKOV_SPEC: &str = r#"
        [experiment]
        thresholds = [6, 12]
        backend = "markov"

        [base]
        n_miners = 100
        delta = 4
        c = 3.0
        adversary_fraction = 0.15
        seed = 7

        [stationary]
        strategy = "private-chain"
        rounds = 30000
    "#;

    #[test]
    fn markov_cells_carry_the_exact_solve() {
        let spec = ExperimentSpec::parse(MARKOV_SPEC).unwrap();
        let results = run_spec(&spec).unwrap();
        let cell = &results[0];
        assert!(cell.wilson().is_none(), "exact cells never sample");
        let exact = cell.exact().expect("markov backend selected");
        assert_eq!(exact.estimates.len(), 2);
        let json = to_json("markov", &results);
        assert!(json_is_well_formed(&json), "malformed:\n{json}");
        assert!(json.contains("\"backend\": \"markov\""));
        assert!(json.contains("\"montecarlo\": null"));
        // Exact cells carry no verdict beside the solve: it could never
        // fail.
        let keys = "threshold, probability, truncation_error, upper";
        assert_eq!(estimate_keys(&json), [keys; 2]);
        print_table(&results); // must not panic
    }

    /// The sweep sets an exact cell beside a sampled `ν = 0` cell, which
    /// has no analytic overlay. The exact cell's row is deterministic;
    /// the sampled one follows from its seed.
    const TWO_CELL_SPEC: &str = r#"
        [experiment]
        trials = 2
        thresholds = [6, 13]
        backend = "markov"

        [base]
        n_miners = 100
        delta = 4
        c = 3.0
        adversary_fraction = 0.15
        seed = 7

        [stationary]
        strategy = "private-chain"
        rounds = 500

        [sweep]
        seed = 9

        [[sweep.axis]]
        label = "cell"

        [[sweep.axis.cell]]
        label = "exact"

        [[sweep.axis.cell]]
        label = "ν=0"
        patch = { "experiment.backend" = "montecarlo", "base.adversary_fraction" = 0.0 }
    "#;

    /// The table's exact bytes. The label column is as wide as the
    /// longest name in bytes, and padded in characters.
    #[test]
    fn table_bytes_are_pinned() {
        let spec = ExperimentSpec::parse(TWO_CELL_SPEC).unwrap();
        let results = run_spec(&spec).unwrap();
        let mut table = String::new();
        write_table(&mut table, &results).unwrap();
        assert_eq!(
            table,
            concat!(
                "cell   depth              P[¬6-cons]             P[¬13-cons]   thm1 margin consistent\n",
                "exact      —     1.379528e-3 +≤2e-37     6.349646e-7 +≤2e-37         1.098        yes\n",
                "ν=0        0       0.00 [0.00, 0.66]       0.00 [0.00, 0.66]             —        ν=0\n",
                "exact cells: the race-model probability that a deficit of T blocks reaches 0 at \
                 q_eff; it does not depend on `rounds`\n",
            )
        );
    }

    /// A splitting cell's table: no column grades the estimate, and the
    /// line under the table says what it is.
    #[test]
    fn splitting_table_bytes_are_pinned() {
        let spec = ExperimentSpec::parse(SPLITTING_SPEC).unwrap();
        let results = run_spec(&spec).unwrap();
        let mut table = String::new();
        write_table(&mut table, &results).unwrap();
        assert_eq!(
            table,
            concat!(
                "cell    depth              P[¬3-cons]              P[¬6-cons]   thm1 margin consistent\n",
                "single      —           2.101e-1 ±30%           6.127e-2 ±43%        -0.727         no\n",
                "splitting cells: the probability of a T-violation within `rounds` rounds under the \
                 cell's strategy\n",
            )
        );
    }

    /// Every document under `examples/golden/` belongs to a committed
    /// spec and is well-formed JSON. `bin_smoke` compares each spec's
    /// output with its golden byte for byte.
    #[test]
    fn every_committed_golden_is_well_formed() {
        let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
        let specs = std::fs::read_dir(examples.join("specs"))
            .expect("examples/specs exists")
            .count();
        assert!(specs > 0, "no committed specs");
        // The CI-budget set and the full-budget set each hold one
        // document per committed spec.
        for set in ["golden", "golden_full"] {
            let mut goldens = 0;
            for entry in std::fs::read_dir(examples.join(set)).expect("golden set exists") {
                let path = entry.expect("readable dir entry").path();
                let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
                assert!(
                    examples
                        .join("specs")
                        .join(format!("{stem}.toml"))
                        .is_file(),
                    "{set}/{stem}: a golden without a committed spec"
                );
                let json = std::fs::read_to_string(&path).expect("golden readable");
                assert!(json_is_well_formed(&json), "{set}/{stem}: malformed golden");
                goldens += 1;
            }
            assert_eq!(goldens, specs, "{set}: one golden per committed spec");
        }
    }

    /// `splitting_horizon.toml`'s full-budget golden holds the evidence
    /// the docs cite: the 20,000-round estimate exceeds the 2,500-round
    /// one by more than three combined standard errors.
    #[test]
    fn splitting_estimates_grow_with_the_horizon() {
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/golden_full/splitting_horizon.json");
        let json = std::fs::read_to_string(golden).expect("golden readable");
        let cells = estimate_fields(&json);
        assert_eq!(cells.len(), 4, "one estimate per horizon");
        let read = |cell: usize, key: &str| -> f64 {
            let (_, value) = cells[cell].iter().find(|f| f.0 == key).expect(key);
            value.parse().expect("a number")
        };
        let (short, long) = (read(0, "probability"), read(3, "probability"));
        let se = read(0, "standard_error").hypot(read(3, "standard_error"));
        assert!(
            long - short > 3.0 * se,
            "20k: {long:e}, 2.5k: {short:e}, se {se:e}"
        );
    }

    /// `--trials` is the budget knob CI smokes with, so it must also
    /// cap an explicit (possibly huge) `splitting_effort`.
    #[test]
    fn trials_override_caps_splitting_effort() {
        let mut spec = ExperimentSpec::parse(SPLITTING_SPEC).unwrap();
        apply_budget(&mut spec, None, Some(2), None);
        assert_eq!(spec.run.trials, 2);
        assert_eq!(spec.run.splitting.effort, 2);
        spec.validate().unwrap();
        // The default effort (reuse `trials`) stays implicit.
        let source = SPLITTING_SPEC.replace("splitting_effort = 24\n", "");
        let mut spec = ExperimentSpec::parse(&source).unwrap();
        apply_budget(&mut spec, None, Some(2), None);
        assert_eq!(spec.run.splitting.effort, 0);
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        assert!(json_is_well_formed(
            r#"{"a": [1, -2.5e3, "x\n", true, null], "b": {}}"#
        ));
        assert!(!json_is_well_formed("{"));
        assert!(!json_is_well_formed(r#"{"a": }"#));
        assert!(!json_is_well_formed(r#"{"a": 1} trailing"#));
        assert!(!json_is_well_formed(r#"{"a": 1,}"#));
    }
}
