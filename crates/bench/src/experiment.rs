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

use consistency_core::analytic::{self, AnalyticBounds, BoundVerdict};
use nakamoto_sim::exact::ExactRun;
use nakamoto_sim::executor::{self, TaskKind};
use nakamoto_sim::montecarlo::MonteCarloRun;
use nakamoto_sim::spec::{Estimate, ExperimentCell, ExperimentMode, ExperimentSpec, SpecError};
use nakamoto_sim::splitting::SplittingRun;
use std::sync::Arc;

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
    let total = cells.len() as u64;
    let width = if jobs == 0 {
        executor::global_width()
    } else {
        jobs
    };
    let cells = Arc::new(cells);
    let results = executor::run_ordered_with(
        total,
        width,
        TaskKind::Composite,
        move |i| run_cell(cells[i as usize].clone()),
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
/// overlay. When a splitting cell is present, a `vs race bound` column
/// holds its verdict against the race-analysis failure scale at the
/// largest threshold. When an exact cell is present, a line under the
/// table says what its value is.
pub fn print_table(results: &[CellResult]) {
    let thresholds: Vec<u64> = results
        .first()
        .map(|r| r.spec.run.thresholds.clone())
        .unwrap_or_default();
    let has_race_column = results.iter().any(|r| r.splitting().is_some());
    let label_width = results
        .iter()
        .map(|r| cell_name(r).len())
        .chain(std::iter::once(4))
        .max()
        .unwrap_or(4);
    print!("{:<label_width$} {:>6}", "cell", "depth");
    for t in &thresholds {
        print!(" {:>23}", format!("P[¬{t}-cons]"));
    }
    if has_race_column {
        print!(" {:>14}", "vs race bound");
    }
    println!(" {:>13} {:>10}", "thm1 margin", "consistent");
    for result in results {
        let depth = result.wilson().map_or_else(
            || "—".into(),
            |run| crate::table::depth_cell(&run.aggregate).to_string(),
        );
        print!("{:<label_width$} {:>6}", cell_name(result), depth);
        for t in &thresholds {
            print!(" {:>23}", threshold_cell(result, *t));
        }
        if has_race_column {
            print!(" {:>14}", race_verdict_cell(result, &thresholds));
        }
        match &result.analytic {
            Some(bounds) => println!(
                " {:>13.3} {:>10}",
                bounds.theorem1_ln_margin,
                if bounds.consistent() { "yes" } else { "no" }
            ),
            None => println!(" {:>13} {:>10}", "—", "ν=0"),
        }
    }
    if results.iter().any(|r| r.exact().is_some()) {
        println!(
            "exact cells: the race-model probability that a deficit of T blocks \
             reaches 0 at q_eff; it does not depend on `rounds`"
        );
    }
}

/// One threshold's estimate as a table cell, in the backend the cell
/// ran: a Wilson 95% CI, a splitting `estimate ±relative-error`
/// (`0 (starved@ℓ)` for a starved chain), or the exact probability
/// with its additive truncation bound.
fn threshold_cell(result: &CellResult, t: u64) -> String {
    match &result.estimate {
        Estimate::Wilson(run) => crate::table::failure_cell(&run.aggregate, t, 1.96),
        Estimate::Splitting(run) => {
            let Some(estimate) = run.estimate_at(t) else {
                return "—".into();
            };
            match (estimate.relative_error, estimate.starved_at) {
                (Some(re), _) => format!("{:.3e} ±{:.0}%", estimate.probability, re * 100.0),
                (None, Some(level)) => format!("0 (starved@{level})"),
                (None, None) => "0".into(),
            }
        }
        Estimate::Exact(run) => {
            let Some(estimate) = run.estimate_at(t) else {
                return "—".into();
            };
            format!(
                "{:.6e} +≤{:.0e}",
                estimate.probability, estimate.truncation_error
            )
        }
    }
}

/// The splitting estimate's verdict at the *largest* threshold — the
/// cell the race-analysis comparison is about — under the
/// three-standard-error rule; `—` for other cells or when no race bound
/// applies.
fn race_verdict_cell(result: &CellResult, thresholds: &[u64]) -> String {
    let (Some(&t), Some(bounds), Some(run)) = (
        thresholds.iter().max(),
        &result.analytic,
        result.splitting(),
    ) else {
        return "—".into();
    };
    run.estimate_at(t)
        .and_then(|e| bounds.compare_race_estimate(t, e.probability, e.standard_error()))
        .map_or_else(|| "—".into(), |cmp| verdict_token(cmp.verdict).into())
}

/// The JSON/table token for a [`BoundVerdict`].
#[must_use]
pub fn verdict_token(verdict: BoundVerdict) -> &'static str {
    match verdict {
        BoundVerdict::WithinBound => "within-bound",
        BoundVerdict::ExceedsBound => "exceeds-bound",
        BoundVerdict::Inconclusive => "inconclusive",
    }
}

/// The display name of a cell: its labels joined, or `single` for an
/// unswept spec.
#[must_use]
pub fn cell_name(result: &CellResult) -> String {
    if result.labels.is_empty() {
        "single".into()
    } else {
        result.labels.join(" / ")
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON number, or `null` for non-finite values (JSON has no
/// infinities).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Rust float Display is already a valid JSON number.
        s
    } else {
        "null".into()
    }
}

/// Renders the executed cells as a machine-readable JSON document: a
/// `montecarlo` / `splitting` / `exact` block per cell (exactly one of
/// the three is non-null, matching the cell's backend-tagged
/// estimate), and the analytic-bound overlay (`analytic: null` for the
/// ν = 0 baseline).
#[must_use]
pub fn to_json(name: &str, results: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"spec\": \"{}\",\n", json_escape(name)));
    out.push_str("  \"schema\": \"experiment-v2\",\n");
    out.push_str("  \"cells\": [\n");
    for (i, result) in results.iter().enumerate() {
        out.push_str("    {\n");
        let labels: Vec<String> = result
            .labels
            .iter()
            .map(|l| format!("\"{}\"", json_escape(l)))
            .collect();
        out.push_str(&format!("      \"labels\": [{}],\n", labels.join(", ")));
        out.push_str(&format!("      \"seed\": {},\n", result.spec.base.seed));
        out.push_str(&format!(
            "      \"backend\": \"{}\",\n",
            result.estimate.backend()
        ));
        out.push_str(&format!(
            "      \"estimator\": \"{}\",\n",
            result.spec.run.estimator
        ));
        out.push_str(&format!(
            "      \"rounds_per_trial\": {},\n",
            result.rounds_per_trial
        ));
        match result.wilson() {
            None => out.push_str("      \"montecarlo\": null,\n"),
            Some(run) => {
                let aggregate = &run.aggregate;
                out.push_str("      \"montecarlo\": {\n");
                out.push_str(&format!("        \"trials\": {},\n", aggregate.trials));
                out.push_str(&format!(
                    "        \"total_honest_blocks\": {},\n",
                    aggregate.total_honest_blocks
                ));
                out.push_str(&format!(
                    "        \"total_adversary_blocks\": {},\n",
                    aggregate.total_adversary_blocks
                ));
                out.push_str(&format!(
                    "        \"total_convergence_opportunities\": {},\n",
                    aggregate.total_convergence_opportunities
                ));
                out.push_str(&format!(
                    "        \"max_reorg_depth\": {},\n",
                    aggregate.max_reorg_depth
                ));
                out.push_str(&format!(
                    "        \"max_divergence_depth\": {},\n",
                    aggregate.max_divergence_depth
                ));
                out.push_str("        \"failures\": [");
                for (j, &(t, failures)) in aggregate.failure_counts.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let w = aggregate
                        .failure_interval(t, 1.96)
                        .expect("non-empty aggregate carries every plan threshold");
                    out.push_str(&format!(
                        "{{\"threshold\": {t}, \"failures\": {failures}, \"estimate\": {}, \"lo\": {}, \"hi\": {}}}",
                        json_f64(w.estimate),
                        json_f64(w.lo),
                        json_f64(w.hi)
                    ));
                }
                out.push_str("]\n");
                out.push_str("      },\n");
            }
        }
        match result.splitting() {
            None => out.push_str("      \"splitting\": null,\n"),
            Some(splitting) => {
                out.push_str("      \"splitting\": {\n");
                out.push_str(&format!(
                    "        \"effort\": {},\n",
                    splitting.levels.first().map_or(0, |l| l.effort)
                ));
                out.push_str(&format!(
                    "        \"total_rounds\": {},\n",
                    splitting.total_rounds
                ));
                out.push_str("        \"levels\": [");
                for (j, stage) in splitting.levels.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"level\": {}, \"hits\": {}, \"effort\": {}}}",
                        stage.level, stage.hits, stage.effort
                    ));
                }
                out.push_str("],\n");
                out.push_str("        \"estimates\": [");
                for (j, estimate) in splitting.estimates.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let comparison = result.analytic.as_ref().and_then(|b| {
                        b.compare_race_estimate(
                            estimate.threshold,
                            estimate.probability,
                            estimate.standard_error(),
                        )
                    });
                    out.push_str(&format!(
                        "{{\"threshold\": {}, \"probability\": {}, \"relative_error\": {}, \
                         \"standard_error\": {}, \"starved_at\": {}, \"race_bound\": {}, \
                         \"race_verdict\": {}}}",
                        estimate.threshold,
                        json_f64(estimate.probability),
                        estimate.relative_error.map_or("null".into(), json_f64),
                        estimate.standard_error().map_or("null".into(), json_f64),
                        estimate.starved_at.map_or("null".into(), |l| l.to_string()),
                        comparison.map_or("null".into(), |c| json_f64(c.bound)),
                        comparison.map_or("null".into(), |c| format!(
                            "\"{}\"",
                            verdict_token(c.verdict)
                        )),
                    ));
                }
                out.push_str("]\n");
                out.push_str("      },\n");
            }
        }
        match result.exact() {
            None => out.push_str("      \"exact\": null,\n"),
            Some(exact) => {
                out.push_str("      \"exact\": {\n");
                out.push_str(&format!("        \"q\": {},\n", json_f64(exact.q)));
                out.push_str(&format!("        \"cap\": {},\n", exact.cap));
                out.push_str("        \"estimates\": [");
                for (j, estimate) in exact.estimates.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"threshold\": {}, \"probability\": {}, \"truncation_error\": {}, \
                         \"upper\": {}}}",
                        estimate.threshold,
                        json_f64(estimate.probability),
                        json_f64(estimate.truncation_error),
                        json_f64(estimate.probability + estimate.truncation_error),
                    ));
                }
                out.push_str("]\n");
                out.push_str("      },\n");
            }
        }
        match &result.analytic {
            None => out.push_str("      \"analytic\": null\n"),
            Some(b) => {
                let (e_c, e_a) = b.expected_counts(result.rounds_per_trial);
                out.push_str("      \"analytic\": {\n");
                out.push_str(&format!("        \"c\": {},\n", json_f64(b.c)));
                out.push_str(&format!(
                    "        \"theorem1_ln_margin\": {},\n",
                    json_f64(b.theorem1_ln_margin)
                ));
                out.push_str(&format!(
                    "        \"theorem1_holds\": {},\n",
                    b.theorem1_holds
                ));
                out.push_str(&format!(
                    "        \"theorem1_max_delta1\": {},\n",
                    b.theorem1_max_delta1.map_or("null".into(), json_f64)
                ));
                out.push_str(&format!(
                    "        \"expected_convergence_opportunities\": {},\n",
                    json_f64(e_c)
                ));
                out.push_str(&format!(
                    "        \"expected_adversary_blocks\": {},\n",
                    json_f64(e_a)
                ));
                out.push_str(&format!(
                    "        \"theorem2_neat_bound_c\": {},\n",
                    json_f64(b.theorem2_neat_bound_c)
                ));
                out.push_str(&format!(
                    "        \"theorem2_holds\": {},\n",
                    b.theorem2_holds
                ));
                out.push_str(&format!(
                    "        \"theorem3_holds\": {},\n",
                    b.theorem3_holds
                ));
                out.push_str(&format!(
                    "        \"nu_max_c\": {},\n",
                    b.nu_max_c.map_or("null".into(), json_f64)
                ));
                out.push_str(&format!(
                    "        \"pss_attack_nu\": {}\n",
                    json_f64(b.pss_attack_nu)
                ));
                out.push_str("      }\n");
            }
        }
        out.push_str(if i + 1 < results.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// A minimal JSON well-formedness check (objects, arrays, strings,
/// numbers, booleans, null) used by the smoke tests; the CI job
/// additionally validates with `python3 -m json.tool`.
#[must_use]
pub fn json_is_well_formed(input: &str) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(json.contains("\"race_verdict\""));
        assert!(json.contains("\"race_bound\""));
        print_table(&results); // must not panic
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
        // Exact cells carry no race verdict: it could never fail.
        assert_eq!(race_verdict_cell(cell, &cell.spec.run.thresholds), "—");
        let json = to_json("markov", &results);
        assert!(json_is_well_formed(&json), "malformed:\n{json}");
        assert!(json.contains("\"backend\": \"markov\""));
        assert!(json.contains("\"montecarlo\": null"));
        assert!(json.contains("\"truncation_error\""));
        assert!(!json.contains("\"race_verdict\""));
        print_table(&results); // must not panic
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
