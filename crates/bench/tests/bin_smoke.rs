//! Smoke tests: one per harness binary in `src/bin/`, exercising each
//! binary's core entry functions on tiny parameters so a refactor that
//! breaks a harness code path fails `cargo test` instead of waiting to be
//! caught by someone running the binary by hand.

use consistency_core::params::ProtocolParams;
use nakamoto_sim::adversary::{BalanceAdversary, ImmediateReleaseAdversary, PrivateChainAdversary};
use nakamoto_sim::config::SimConfig;
use nakamoto_sim::execution::run_simulation;
use nakamoto_sim::montecarlo::TrialPlan;
use nakamoto_sim::selfish::SelfishMiningAdversary;

const ROUNDS: u64 = 2_000;

fn tiny_params() -> ProtocolParams {
    ProtocolParams::from_c(100, 2, 3.0, 0.25).expect("valid tiny parameters")
}

/// `figure1`: curve generation and the exact-PSS cross-check.
#[test]
fn figure1_entry() {
    let pts = consistency_core::figure1::generate(5).unwrap();
    assert_eq!(pts.len(), 5);
    let table = consistency_core::figure1::to_table(&pts);
    assert!(!table.is_empty());
    let exact = consistency_core::pss::exact_consistency_nu_max(
        consistency_core::figure1::FIGURE1_N,
        consistency_core::figure1::FIGURE1_DELTA,
        3.0,
    )
    .unwrap()
    .expect("a consistency region exists at c = 3");
    assert!(exact > 0.0 && exact < 0.5);
}

/// `table1`: parameter construction and every derived quantity.
#[test]
fn table1_entry() {
    let p = ProtocolParams::from_c(100_000, 10_000_000_000_000, 3.0, 0.3).unwrap();
    assert!(p.alpha() > 0.0 && p.alpha() < 1.0);
    assert!(p.alpha1() > 0.0);
    assert!((p.c() - 3.0).abs() < 1e-9);
    assert!(p.is_consistent_by_neat_bound());
}

/// `remark1`: the admissible ν ranges and inflation factors.
#[test]
fn remark1_entry() {
    let delta = 10_000_000_000_000u64;
    let range = consistency_core::theorem2::remark1_nu_range(delta, 1.0 / 6.0, 0.5).unwrap();
    assert!(range.lo < range.hi && range.hi < 0.5);
    let factor = consistency_core::theorem2::remark1_factor(delta, 1.0 / 6.0, 0.5).unwrap();
    assert!(factor > 1.0);
    let bound =
        consistency_core::theorem2::remark1_c_bound(0.25, delta, 1.0 / 6.0, 0.5, 1e-6).unwrap();
    assert!(bound > consistency_core::theorem2::neat_bound(0.25));
}

/// `attack_sweep`: ν_max solvers plus both attack adversaries on the
/// multi-trial engine with a Wilson-interval failure rate.
#[test]
fn attack_sweep_entry() {
    let nu_max = consistency_core::numax::nu_max_for_c(3.0).unwrap();
    assert!(nu_max > 0.0 && nu_max < 0.5);
    let cfg = SimConfig::new(50, 0.25, 1e-3, 2, 7).unwrap();
    let plan = TrialPlan::new(cfg, ROUNDS, 3)
        .expect("non-empty plan")
        .thresholds(vec![12]);
    let private = plan.run(|_| PrivateChainAdversary::new(2));
    let balance = plan.run(|_| BalanceAdversary::new(2));
    assert_eq!(private.aggregate.total_rounds(), 3 * ROUNDS);
    assert_eq!(balance.aggregate.total_rounds(), 3 * ROUNDS);
    let wilson = private.aggregate.failure_interval(12, 1.96).unwrap();
    assert!(wilson.lo <= wilson.estimate && wilson.estimate <= wilson.hi);
}

/// `scenario_sweep`: a three-phase scenario cell (power shift +
/// strategy switch + eclipse window) on the scenario Monte-Carlo
/// engine, with the Wilson-CI failure rate the phase diagram reports.
#[test]
fn scenario_sweep_entry() {
    use nakamoto_sim::scenario::{PhaseSpec, Regime, Scenario, ScenarioPlan, StrategyKind};
    let base = SimConfig::from_c(100, 4, 1.0, 0.1, 77).unwrap();
    let scenario = Scenario::new(
        base,
        vec![
            PhaseSpec::new(ROUNDS / 2, StrategyKind::Honest, Regime::Calm),
            PhaseSpec::new(
                ROUNDS / 2,
                StrategyKind::PrivateChain,
                Regime::Eclipse { group: 1 },
            )
            .with_power(0.4),
            PhaseSpec::new(ROUNDS / 2, StrategyKind::Honest, Regime::Calm),
        ],
    )
    .unwrap();
    assert_eq!(scenario.group_count(), 2);
    let plan = ScenarioPlan::new(scenario, 3).unwrap().thresholds(vec![12]);
    let run = plan.run();
    assert_eq!(run.aggregate.trials, 3);
    assert_eq!(run.aggregate.rounds_per_trial, 3 * (ROUNDS / 2));
    let wilson = run.aggregate.failure_interval(12, 1.96).unwrap();
    assert!(wilson.lo <= wilson.estimate && wilson.estimate <= wilson.hi);
}

/// `compose_sweep`: a composed-adversary cell on the multi-trial
/// engine — pure-strategy edge rows must reproduce the bare adversary
/// bit-for-bit, mixed rows must run and tally.
#[test]
fn compose_sweep_entry() {
    use nakamoto_sim::compose::{ComposedAdversary, Composition, SubSpec};
    use nakamoto_sim::scenario::StrategyKind;
    let cfg = SimConfig::from_c(100, 4, 1.0, 0.4, 99).unwrap();
    let composition = |wa: u64, wb: u64| {
        Composition::new(vec![
            SubSpec::new(StrategyKind::Balance, wa),
            SubSpec::new(StrategyKind::Selfish, wb),
        ])
        .unwrap()
    };
    let plan = TrialPlan::new(cfg, ROUNDS, 3)
        .expect("non-empty plan")
        .thresholds(vec![12]);
    let mixed = plan.run(move |_| ComposedAdversary::new(cfg.delta, composition(1, 1)));
    assert_eq!(mixed.aggregate.trials, 3);
    assert!(mixed.aggregate.total_adversary_blocks > 0);
    let pure_edge = plan.run(move |_| ComposedAdversary::new(cfg.delta, composition(1, 0)));
    let bare = plan.run(move |_| BalanceAdversary::new(cfg.delta));
    assert_eq!(
        pure_edge.aggregate, bare.aggregate,
        "the 1:0 row must reproduce the bare strategy"
    );
}

/// `scenario_fuzz`: a deterministic slice of the fuzz gate's budget
/// (`scenario_fuzz_replay_entry` covers `--replay`).
#[test]
fn scenario_fuzz_entry() {
    use nakamoto_sim::fuzz::ScenarioFuzzer;
    let stats = ScenarioFuzzer::new(0xC1_5EED)
        .run(6)
        .unwrap_or_else(|failure| panic!("{failure}\n{}", failure.repro_toml()));
    assert_eq!(stats.cases, 6);
}

/// `scenario_fuzz --replay`: a written repro file loads back through
/// the experiment-spec parser, reconstructs exactly the case its
/// `[fuzz]` coordinates name, and re-runs the invariant checks — the
/// full write → parse → verify → re-check loop of the replay flag.
#[test]
fn scenario_fuzz_replay_entry() {
    use nakamoto_sim::fuzz::{check_scenario, sample_scenario_for, FuzzFailure};
    use nakamoto_sim::spec::ExperimentSpec;
    let (master_seed, case) = (0xC1_5EED, 4u64);
    let failure = FuzzFailure {
        master_seed,
        case,
        invariant: "pruning-liveness",
        detail: "smoke repro (healthy case)".into(),
        scenario: sample_scenario_for(master_seed, case),
    };
    let path = std::env::temp_dir().join("bin_smoke_scenario_fuzz_repro.toml");
    std::fs::write(&path, failure.repro_toml()).expect("repro written");
    let source = std::fs::read_to_string(&path).expect("repro read back");
    let _ = std::fs::remove_file(&path);
    let spec = ExperimentSpec::parse(&source).expect("repro parses as an experiment spec");
    let fuzz = spec.fuzz.clone().expect("replay coordinates present");
    assert_eq!((fuzz.master_seed, fuzz.case), (master_seed, case));
    let scenario = spec.scenario().expect("repro scenario rebuilds");
    assert_eq!(
        scenario,
        sample_scenario_for(fuzz.master_seed, fuzz.case),
        "the repro body must match its replay coordinates"
    );
    check_scenario(&scenario).expect("a healthy case replays clean");
}

/// `experiment`: golden-file check — every committed spec under
/// `examples/specs/` parses, expands and runs at the CI budget
/// (`--rounds 500 --trials 2`), and its JSON document equals the
/// committed golden `examples/golden/<spec>.json` byte for byte; the
/// theorem1_check spec's JSON must carry the theorem-1 analytic bound
/// alongside the simulated Wilson CI. EXPERIMENTS.md ("Golden files")
/// gives the command that re-records the goldens.
///
/// Each spec also runs through the `experiment` binary itself at
/// `--jobs 1` and at an oversubscribed `--jobs 8`, and both `--out`
/// documents must equal the golden too. `--jobs` is the one parallelism
/// knob, so this covers pool-width independence end to end for every
/// cell kind the committed specs hold (Wilson, scenario, composed,
/// adaptive, splitting, exact).
#[test]
fn experiment_entry_runs_every_committed_spec() {
    use consistency_bench::experiment;
    use nakamoto_sim::spec::ExperimentSpec;
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(examples.join("specs"))
        .expect("examples/specs exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    // The literal stem list keeps every committed spec pinned to this
    // smoke test (detlint's xref-spec-used rule cross-checks it): a new
    // spec must be added here, a deleted one must be removed.
    let expected = [
        "adaptive_stopping",
        "attack_sweep",
        "attack_window",
        "compose_sweep",
        "markov_exact",
        "model_gap",
        "rare_event",
        "scenario_sweep",
        "splitting_horizon",
        "theorem1_check",
    ];
    let stems: Vec<_> = paths
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        stems, expected,
        "committed specs drifted from the pinned list"
    );
    for path in &paths {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(path).expect("spec readable");
        let golden = std::fs::read_to_string(examples.join(format!("golden/{name}.json")))
            .unwrap_or_else(|e| panic!("{name}: committed golden must be readable: {e}"));
        let mut spec = ExperimentSpec::parse(&source)
            .unwrap_or_else(|e| panic!("{name}: committed spec must parse: {e}"));
        experiment::apply_budget(&mut spec, Some(500), Some(2), None);
        let results = experiment::run_spec(&spec)
            .unwrap_or_else(|e| panic!("{name}: committed spec must run: {e}"));
        assert!(!results.is_empty(), "{name}: at least one cell");
        let json = experiment::to_json(&name, &results);
        assert_same_bytes(&format!("{name} (in-process)"), &json, &golden);
        if name == "theorem1_check" {
            assert!(
                json.contains("\"theorem1_ln_margin\"") && json.contains("\"estimate\""),
                "{name}: the analytic overlay must ride beside the Wilson interval:\n{json}"
            );
            let bounds = results[0].analytic.as_ref().expect("ν > 0 carries bounds");
            assert!(bounds.theorem1_holds, "c = 3 at ν = 0.3 is consistent");
        }
        if name == "markov_exact" {
            // Budget overrides must leave the exact backend exact: the
            // cell carries probabilities with truncation bounds, not a
            // two-trial Wilson interval.
            let exact = results[0].exact().expect("markov backend selected");
            assert!(
                exact.estimates.iter().all(|e| e.probability > 0.0
                    && e.truncation_error.is_finite()
                    && e.truncation_error < e.probability),
                "{name}: exact estimates must dominate their truncation bounds"
            );
            assert!(
                json.contains("\"backend\": \"markov\"") && json.contains("\"truncation_error\""),
                "{name}: the JSON must carry the exact block:\n{json}"
            );
        }
        for jobs in ["1", "8"] {
            let out = std::env::temp_dir().join(format!(
                "bin_smoke_{}_{name}_jobs{jobs}.json",
                std::process::id()
            ));
            let status = std::process::Command::new(env!("CARGO_BIN_EXE_experiment"))
                .arg(path)
                .args(["--rounds", "500", "--trials", "2", "--jobs", jobs, "--out"])
                .arg(&out)
                .stdout(std::process::Stdio::null())
                .status()
                .expect("experiment binary runs");
            assert!(status.success(), "{name} --jobs {jobs}: {status}");
            let document = std::fs::read_to_string(&out).expect("--out document written");
            let _ = std::fs::remove_file(&out);
            assert_same_bytes(&format!("{name} --jobs {jobs}"), &document, &golden);
        }
    }
}

/// Asserts that a JSON document equals its golden byte for byte, naming
/// the first line that differs.
fn assert_same_bytes(what: &str, got: &str, golden: &str) {
    if got == golden {
        return;
    }
    let mut got_lines = got.lines();
    let mut golden_lines = golden.lines();
    for line in 1.. {
        match (got_lines.next(), golden_lines.next()) {
            (Some(g), Some(w)) if g == w => continue,
            (None, None) => panic!("{what}: the JSON differs from its golden in line endings only"),
            (g, w) => panic!(
                "{what}: the JSON differs from its golden at line {line}:\n  \
                 got:    {}\n  golden: {}\n(EXPERIMENTS.md, \"Golden files\", says how to \
                 re-record a golden on purpose)",
                g.unwrap_or("<end of document>"),
                w.unwrap_or("<end of document>")
            ),
        }
    }
}

/// `bench_sim`: the throughput harness's single-run workload at a tiny
/// budget, plus the trial fan-out each cell of its grid row runs.
#[test]
fn bench_sim_entry() {
    let cfg = SimConfig::from_c(100, 4, 3.0, 0.25, 42).unwrap();
    let report = run_simulation(cfg, PrivateChainAdversary::new(4), ROUNDS);
    assert_eq!(report.rounds, ROUNDS);
    let run = TrialPlan::new(cfg, 500, 4)
        .expect("non-empty plan")
        .run(|_| BalanceAdversary::new(4));
    assert_eq!(run.aggregate.trials, 4);
}

/// `stationary_check`: suffix chain construction, closed form vs GTH vs
/// power iteration, ergodicity, Kac return times.
#[test]
fn stationary_check_entry() {
    let (alpha, delta) = (0.2, 3u64);
    let chain = consistency_core::suffix_chain::build_chain(alpha, delta).unwrap();
    let closed = consistency_core::suffix_chain::closed_form_stationary(alpha, delta).unwrap();
    assert!(markov::structure::is_ergodic(&chain));
    let gth = markov::stationary::stationary_gth(&chain).unwrap();
    let power =
        markov::stationary::stationary_power(&chain, markov::stationary::PowerConfig::default())
            .unwrap();
    for ((a, b), c) in closed.iter().zip(&gth).zip(&power) {
        assert!((a - b).abs() < 1e-10 && (a - c).abs() < 1e-8);
    }
    let ret = markov::hitting::expected_return_time(&chain, 0).unwrap();
    assert!((ret - 1.0 / gth[0]).abs() < 1e-6);
}

/// `convergence_validation`: the Monte-Carlo validation rows (single
/// run and multi-trial).
#[test]
fn convergence_validation_entry() {
    let row = consistency_core::convergence::validate(&tiny_params(), ROUNDS, 1).unwrap();
    assert!(row.measured_convergence > 0);
    assert!(row.convergence_rel_error().is_finite());
    assert!(row.adversary_rel_error().is_finite());
    assert!(row.suffix_max_abs_error() < 1.0);
    let trials =
        consistency_core::convergence::validate_trials(&tiny_params(), ROUNDS, 3, 1).unwrap();
    assert_eq!(trials.trials, 3);
    assert!(trials.mean_convergence > 0.0);
    assert!(trials.convergence_z_score().is_finite());
}

/// `concentration`: expectations, the Chung-et-al. walk bound, and the
/// Arratia–Gordon adversary tail bound.
#[test]
fn concentration_entry() {
    let params = tiny_params();
    let e_c = consistency_core::theorem1::expected_convergence_opportunities(&params, ROUNDS);
    let e_a = consistency_core::theorem1::expected_adversary_blocks(&params, ROUNDS);
    assert!(e_c > 0.0 && e_a > 0.0);
    let ln_tail = consistency_core::extended_chain::walk_bound_params(&params, ROUNDS, 1.0)
        .unwrap()
        .ln_lower_tail(0.05)
        .unwrap();
    assert!(ln_tail <= 0.0);
    let t_nu_n = ROUNDS * params.to_sim_config(0).n_adversary();
    let tail = probability::chernoff::adversary_tail_bound(t_nu_n, params.p(), 0.05).unwrap();
    assert!(tail > 0.0 && tail <= 1.0);
}

/// `lemma_audit`: Theorem 3's split condition and the lemma chain.
#[test]
fn lemma_audit_entry() {
    let params = ProtocolParams::from_c(10_000, 4, 5.0, 0.2).unwrap();
    if consistency_core::theorem3::holds(&params, 0.1, 0.1) {
        consistency_core::lemmas::audit_chain(&params, 0.1, 0.1).unwrap();
    }
}

/// `kiffer_ablation`: corrected vs incorrect interarrival estimates.
#[test]
fn kiffer_ablation_entry() {
    let params = ProtocolParams::from_c(1_000, 8, 3.0, 0.25).unwrap();
    let corrected = consistency_core::kiffer::interarrival_corrected(&params);
    let incorrect = consistency_core::kiffer::interarrival_incorrect(&params);
    assert!(corrected > 0.0 && incorrect > 0.0);
}

/// `catchup_table`: closed-form catch-up probability vs the race capped
/// at z + h.
#[test]
fn catchup_table_entry() {
    let closed = consistency_core::catchup::catchup_probability(0.3, 3).unwrap();
    let capped = markov::race::violation_probability(0.3, 3, 103).unwrap();
    assert!((closed - capped.probability).abs() < 1e-6);
    let cfg = SimConfig::from_c(50, 2, 1.0, 0.3, 9).unwrap();
    let report = run_simulation(cfg, PrivateChainAdversary::new(2), ROUNDS);
    assert_eq!(report.rounds, ROUNDS);
}

/// `chain_metrics`: growth/quality metrics under three adversaries.
#[test]
fn chain_metrics_entry() {
    let cfg = SimConfig::from_c(50, 2, 2.0, 0.2, 555).unwrap();
    for adversary in [
        run_simulation(cfg, ImmediateReleaseAdversary::new(), ROUNDS),
        run_simulation(cfg, PrivateChainAdversary::new(2), ROUNDS),
        run_simulation(cfg, SelfishMiningAdversary::new(2), ROUNDS),
    ] {
        assert!(adversary.chain_growth_rate() > 0.0);
        assert!(adversary.chain_quality() > 0.0 && adversary.chain_quality() <= 1.0);
    }
}

/// `window_scan`: the sliding-window Lemma-1 scan.
#[test]
fn window_scan_entry() {
    let reports = consistency_core::window::simulate_and_scan(
        &tiny_params(),
        PrivateChainAdversary::new(2),
        ROUNDS,
        &[500],
        88,
    )
    .unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].window, 500);
}
