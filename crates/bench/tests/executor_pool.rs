//! Process-level regression test for the one-pool-per-process
//! contract: an N-cell experiment grid goes through **one** shared
//! executor pool, not N thread scopes. It lives alone in its own
//! integration-test binary so no sibling test races the global pool's
//! creation or width configuration.

use consistency_bench::experiment;
use nakamoto_sim::executor;
use nakamoto_sim::spec::ExperimentSpec;

const GRID_SPEC: &str = r#"
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

#[test]
fn an_n_cell_grid_spawns_one_pool_not_n_scopes() {
    assert_eq!(
        executor::global_pools_created(),
        0,
        "this test owns the process: the pool must not pre-exist"
    );
    assert!(
        executor::configure_global_width(2),
        "width is configurable before first use"
    );
    let spec = ExperimentSpec::parse(GRID_SPEC).unwrap();

    let first = experiment::run_spec_streaming(&spec, 2, |_, _| {}).unwrap();
    assert_eq!(first.len(), 3);
    let after_first = executor::global_stats();
    assert_eq!(
        executor::global_pools_created(),
        1,
        "one pool, created lazily"
    );
    assert_eq!(executor::global_width(), 2, "--jobs width sticks");
    assert_eq!(
        after_first.threads_spawned, 1,
        "the pool width minus the joining caller, not one scope per cell"
    );

    // A second grid reuses the same workers: no new pool, no new
    // threads, just more jobs through the same queues.
    let second = experiment::run_spec_streaming(&spec, 2, |_, _| {}).unwrap();
    let after_second = executor::global_stats();
    assert_eq!(executor::global_pools_created(), 1);
    assert_eq!(after_second.threads_spawned, after_first.threads_spawned);
    assert!(after_second.jobs_submitted > after_first.jobs_submitted);

    // And pooled execution is still deterministic run to run.
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.wilson().unwrap().aggregate, b.wilson().unwrap().aggregate);
    }

    // At one trial per cell, each cell's trial job has one slot and
    // runs inline: the grid is the only queued job, and every inline
    // job is counted.
    let mut single = spec.clone();
    experiment::apply_budget(&mut single, None, Some(1), None);
    let third = experiment::run_spec_streaming(&single, 2, |_, _| {}).unwrap();
    assert_eq!(third.len(), 3);
    let after_third = executor::global_stats();
    assert_eq!(after_third.jobs_inline - after_second.jobs_inline, 3);
    assert_eq!(after_third.jobs_submitted - after_second.jobs_submitted, 1);
}
