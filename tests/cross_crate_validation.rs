//! Integration tests spanning the whole stack: analytic identities
//! (consistency-core) validated against both the generic Markov-chain
//! machinery (markov) and Monte-Carlo protocol runs (nakamoto-sim).

use blockchain_consistency::consistency_core::{
    convergence, extended_chain, numax, params::ProtocolParams, pss, suffix_chain, theorem1,
    theorem2, theorem3,
};
use blockchain_consistency::markov::{
    hitting::expected_return_time,
    mixing::mixing_time,
    stationary::{stationarity_residual, stationary_gth},
    structure,
};
use blockchain_consistency::nakamoto_sim::{
    adversary::ImmediateReleaseAdversary, execution::run_simulation,
};

/// Eq. 26 end-to-end: the paper's convergence-opportunity expectation,
/// derived three independent ways — direct formula, chain stationary
/// state, and Monte-Carlo — must agree.
#[test]
fn convergence_rate_three_way_agreement() {
    let params = ProtocolParams::new(100, 2, 1e-3, 0.2).unwrap();
    // (1) direct ᾱ^{2Δ}α₁.
    let direct = theorem1::ln_convergence_rate(&params).exp();
    // (2) through the C_{F‖P} decomposition (Eq. 40/44).
    let via_chain = extended_chain::ln_convergence_state_probability(&params)
        .unwrap()
        .exp();
    assert!((direct - via_chain).abs() < 1e-15 * direct.max(1e-300));
    // (3) Monte-Carlo (integer honest population).
    let row = convergence::validate(&params, 400_000, 99).unwrap();
    let mc_rate = row.measured_convergence as f64 / row.rounds as f64;
    let analytic_rate = row.expected_convergence / row.rounds as f64;
    assert!(
        (mc_rate - analytic_rate).abs() < 0.1 * analytic_rate,
        "MC {mc_rate} vs analytic {analytic_rate}"
    );
}

/// Fig. 2's chain, the Eq. 37 closed form, the generic GTH solver, and
/// the *simulator's* empirical suffix occupancy all describe the same
/// object.
#[test]
fn suffix_chain_four_way_agreement() {
    let params = ProtocolParams::new(100, 3, 2e-3, 0.1).unwrap();
    let cfg = params.to_sim_config(7);
    // Integer-population α as the simulator sees it.
    let alpha = -((cfg.n_honest() as f64) * (-params.p()).ln_1p()).exp_m1();
    let delta = params.delta();

    let chain = suffix_chain::build_chain(alpha, delta).unwrap();
    assert!(structure::is_ergodic(&chain));
    let closed = suffix_chain::closed_form_stationary(alpha, delta).unwrap();
    let gth = stationary_gth(&chain).unwrap();
    for (a, b) in closed.iter().zip(gth.iter()) {
        assert!((a - b).abs() < 1e-12);
    }
    assert!(stationarity_residual(&chain, &closed) < 1e-13);

    let report = run_simulation(cfg, ImmediateReleaseAdversary::new(), 500_000);
    assert!(report.suffix_rounds > 400_000);
    for (i, (&count, &expected)) in report
        .suffix_occupancy
        .iter()
        .zip(closed.iter())
        .enumerate()
    {
        let freq = count as f64 / report.suffix_rounds as f64;
        assert!(
            (freq - expected).abs() < 0.01,
            "state {i}: simulated {freq} vs closed-form {expected}"
        );
    }
}

/// Kac's formula ties the markov crate's hitting times to the paper's
/// Eq. 37c on the explicitly built chain.
#[test]
fn kac_return_time_matches_eq_37c() {
    let alpha = 0.15;
    let delta = 5;
    let chain = suffix_chain::build_chain(alpha, delta).unwrap();
    let pi = suffix_chain::closed_form_stationary(alpha, delta).unwrap();
    let long_gap = delta as usize;
    let ret = expected_return_time(&chain, long_gap).unwrap();
    assert!((ret - 1.0 / pi[long_gap]).abs() < 1e-6 * ret);
}

/// The theorem chain is mutually coherent: Theorem 2 at (ε₁, ε₂) ⇒
/// Theorem 3 ⇒ Theorem 1 with the Eq. 60/61 constants.
#[test]
fn theorem_chain_implications() {
    for &nu in &[0.1, 0.25, 0.4] {
        for &delta in &[16u64, 4_096] {
            let eps1 = 0.25;
            let eps2 = 0.25;
            let bound = theorem2::c_bound(nu, delta, eps1, eps2).unwrap();
            let params = ProtocolParams::from_c(50_000, delta, bound * 1.01, nu).unwrap();
            assert!(theorem2::holds(&params, eps1, eps2).unwrap());
            assert!(theorem3::holds(&params, eps1, eps2));
            let consts = theorem3::Constants::new(eps1, eps2, nu).unwrap();
            assert!(
                theorem1::holds(&params, consts.delta1),
                "ν={nu}, Δ={delta}: Theorem 1 must follow from Theorem 3"
            );
        }
    }
}

/// Figure 1's ordering holds simultaneously in analytic curves and in
/// the finite-Δ Theorem-2 solver.
#[test]
fn figure1_ordering_with_finite_delta() {
    for &c in &[2.5, 5.0, 20.0] {
        let ours_asymptotic = numax::nu_max_for_c(c).unwrap();
        let ours_finite = numax::nu_max_theorem2(c, 10_000_000_000_000).unwrap();
        let blue = pss::consistency_nu_max(c).unwrap();
        let red = pss::attack_nu_threshold(c);
        assert!(ours_finite <= ours_asymptotic + 1e-9);
        assert!(
            ours_finite > blue,
            "c={c}: finite-Δ ours must still beat PSS"
        );
        assert!(red > ours_asymptotic);
    }
}

/// The mixing-time surrogate used in Ineq. (47) upper-bounds the true
/// 1/8-mixing time of the explicitly built C_F for small Δ.
#[test]
fn mixing_surrogate_dominates_true_mixing_time() {
    for &(alpha, delta) in &[(0.2f64, 2u64), (0.1, 4), (0.4, 3)] {
        let chain = suffix_chain::build_chain(alpha, delta).unwrap();
        let pi = suffix_chain::closed_form_stationary(alpha, delta).unwrap();
        let tau = mixing_time(&chain, &pi, 0.125, 2_000_000).unwrap() as u64;
        // Surrogate for C_F alone is ⌈ln 8/α⌉ + 2Δ.
        let surrogate = (8f64.ln() / alpha).ceil() as u64 + 2 * delta;
        assert!(
            surrogate >= tau,
            "α={alpha}, Δ={delta}: surrogate {surrogate} < true τ {tau}"
        );
    }
}

/// End-to-end determinism: the full stack (params → sim → report) is
/// bit-reproducible for a fixed seed.
#[test]
fn full_stack_determinism() {
    let params = ProtocolParams::new(200, 4, 5e-4, 0.3).unwrap();
    let a = convergence::validate(&params, 100_000, 2024).unwrap();
    let b = convergence::validate(&params, 100_000, 2024).unwrap();
    assert_eq!(a.report, b.report);
    assert_eq!(a.measured_suffix, b.measured_suffix);
}
