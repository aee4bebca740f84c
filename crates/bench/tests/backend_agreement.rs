//! Cross-backend agreement: the exact Markov backend beside the
//! Monte-Carlo backend on the committed
//! `examples/specs/markov_exact.toml` grid, plus the exact cell against
//! the race module and the closed-form race scale. The suite also pins
//! the truncation-error bound to observed cap sensitivity: doubling the
//! race cap must move the answer by no more than the bound claimed at
//! the smaller cap.

use consistency_bench::experiment;
use markov::race;
use nakamoto_sim::spec::ExperimentSpec;

const GOLDEN_SPEC: &str = include_str!("../../../examples/specs/markov_exact.toml");

/// The committed golden grid pits one `backend = "markov"` cell
/// against one `backend = "montecarlo"` cell of the same base
/// parameters. On every threshold the exact answer must fall inside
/// the sampled Wilson 95% interval.
///
/// This is a smoke check, not a calibration: at 32 trials with no
/// failure the interval is [0, 0.107], so any exact value below 0.107
/// passes. It cannot tell a right answer from a wrong one, and the two
/// backends do not answer the same question (the exact value does not
/// depend on the horizon; the sampled rate does, see METHODOLOGY's
/// model gap).
#[test]
fn wilson_interval_contains_the_exact_answer_on_the_golden_grid() {
    let mut spec = ExperimentSpec::parse(GOLDEN_SPEC).expect("committed spec parses");
    // Shrink the sampled cell's budget (CI speed); the exact cell is
    // budget-free, and a Wilson interval is valid at any trial count.
    experiment::apply_budget(&mut spec, Some(1000), Some(32), None);
    let results = experiment::run_spec(&spec).expect("committed spec runs");
    assert_eq!(results.len(), 2, "one exact cell, one sampled cell");
    let exact = results[0].exact().expect("first cell solves exactly");
    let sampled = &results[1]
        .wilson()
        .expect("second cell samples trials")
        .aggregate;
    assert_eq!(
        results[0].spec.base.n_miners, results[1].spec.base.n_miners,
        "the two cells must describe the same protocol parameters"
    );
    for estimate in &exact.estimates {
        let wilson = sampled
            .failure_interval(estimate.threshold, 1.96)
            .expect("the sampled cell carries every threshold");
        assert!(
            wilson.lo <= estimate.probability && estimate.probability <= wilson.hi,
            "exact P[¬{}-cons] = {:e} outside the Wilson 95% interval [{:e}, {:e}]",
            estimate.threshold,
            estimate.probability,
            wilson.lo,
            wilson.hi,
        );
    }
}

/// The exact cell's answers must agree with the race module called
/// directly, and the closed-form race scale `(q/(1−q))^T` at the cell's
/// `q_eff` must dominate them (the capped solve under-counts the
/// infinite race).
#[test]
fn exact_cell_matches_the_race_solve_and_the_analytic_scale() {
    let spec = ExperimentSpec::parse(GOLDEN_SPEC).expect("committed spec parses");
    let results = experiment::run_spec(&spec).expect("committed spec runs");
    let cell = &results[0];
    let exact = cell.exact().expect("markov cell first");
    assert!(exact.q < 0.5, "q_eff = {} must be subcritical", exact.q);
    for estimate in &exact.estimates {
        let direct = race::violation_probability(exact.q, estimate.threshold, exact.cap)
            .expect("validated inputs");
        assert_eq!(estimate.probability, direct.probability);
        assert_eq!(estimate.truncation_error, direct.truncation_error);
        let scale = race::rho_pow(exact.q, estimate.threshold);
        // Allow the truncation bound plus float noise between the
        // capped closed form and the uncapped power.
        assert!(
            estimate.probability <= scale + estimate.truncation_error + 1e-9 * scale,
            "exact answer {:e} above the closed-form scale {scale:e}",
            estimate.probability,
        );
    }
}

/// The truncation-error bound must dominate observed cap sensitivity:
/// doubling the cap moves the answer by less than the bound reported
/// at the smaller cap, across sub- and near-critical shares.
#[test]
fn truncation_bound_dominates_cap_doubling() {
    for q in [0.15, 0.25, 0.35, 0.45] {
        for threshold in [2u64, 5, 9] {
            for cap in [threshold + 4, threshold + 16, threshold + 64] {
                let small = race::violation_probability(q, threshold, cap).unwrap();
                let doubled = race::violation_probability(q, threshold, 2 * cap).unwrap();
                let shift = (doubled.probability - small.probability).abs();
                assert!(
                    shift <= small.truncation_error + 1e-15,
                    "q={q} T={threshold} cap={cap}: doubling the cap moved the answer \
                     by {shift:e}, above the claimed bound {:e}",
                    small.truncation_error,
                );
                // Larger caps can only tighten the claimed bound.
                assert!(doubled.truncation_error <= small.truncation_error + 1e-18);
            }
        }
    }
}
