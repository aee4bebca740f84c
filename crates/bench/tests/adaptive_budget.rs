//! The committed adaptive-stopping sweep must pay for itself: every
//! cell of `examples/specs/adaptive_stopping.toml` has to meet the
//! spec's target half-width on **every** threshold while the sweep as
//! a whole spends at least 3x fewer trials than the fixed budget
//! would. The test shrinks rounds-per-trial (CI speed), not the trial
//! budget or the target — the stopping rule faces the same Wilson
//! arithmetic either way.

use consistency_bench::experiment;
use nakamoto_sim::montecarlo::STOP_Z;
use nakamoto_sim::spec::ExperimentSpec;

#[test]
fn adaptive_sweep_meets_target_at_a_fraction_of_the_fixed_budget() {
    let mut spec = ExperimentSpec::parse(include_str!(
        "../../../examples/specs/adaptive_stopping.toml"
    ))
    .expect("committed spec parses");
    let budget = spec.run.trials;
    let target = spec
        .run
        .stop_half_width
        .expect("committed spec declares a stopping target");
    experiment::apply_budget(&mut spec, Some(400), None, None);

    let results = experiment::run_spec(&spec).expect("committed spec runs");
    assert!(!results.is_empty());
    let mut adaptive_total = 0u64;
    for cell in &results {
        let name = cell.labels.join(" / ");
        let aggregate = &cell.wilson().expect("adaptive cells sample").aggregate;
        adaptive_total += aggregate.trials;
        assert!(
            aggregate.trials < budget,
            "cell {name} burned the whole budget ({} trials)",
            aggregate.trials
        );
        for &(t, _) in &aggregate.failure_counts {
            let half_width = aggregate
                .half_width(t, STOP_Z)
                .expect("aggregate carries every plan threshold");
            assert!(
                half_width <= target,
                "cell {name} stopped at {} trials with half-width {half_width:.4} > {target} \
                 at threshold {t}",
                aggregate.trials
            );
        }
    }
    let fixed_total = budget * results.len() as u64;
    assert!(
        adaptive_total * 3 <= fixed_total,
        "adaptive spend {adaptive_total} is not 3x below the fixed budget {fixed_total}"
    );
}
