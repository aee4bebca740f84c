//! Total-variation distance and mixing times.
//!
//! The paper's Inequality (47) contains the ε-mixing time `τ(ε, ᾱ, Δ)`
//! of the chain `C_{F‖P}` with ε fixed at 1/8. These routines compute
//! exact worst-case TV mixing times by evolving point-mass distributions.

use crate::chain::MarkovChain;
use crate::{Error, Result};

/// Total-variation distance `½·Σ|p_i − q_i|` between two distributions.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// use markov::mixing::tv_distance;
/// assert_eq!(tv_distance(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
/// assert_eq!(tv_distance(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
/// ```
#[must_use]
pub fn tv_distance(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    0.5 * p
        .iter()
        .zip(q.iter())
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
}

/// Worst-case TV distance to stationarity after `t` steps:
/// `d(t) = max_start ‖δ_start·Pᵗ − π‖_TV`.
pub fn distance_at(chain: &MarkovChain, pi: &[f64], t: usize) -> f64 {
    (0..chain.n_states())
        .map(|s| {
            let d = chain.step_n(&chain.point_distribution(s), t);
            tv_distance(&d, pi)
        })
        .fold(0.0, f64::max)
}

/// The ε-mixing time: smallest `t` with `d(t) ≤ ε`, searched by doubling
/// then bisection, evolving all point masses simultaneously.
///
/// # Errors
///
/// * [`Error::NotErgodic`] if the chain is not ergodic (mixing time is
///   undefined).
/// * [`Error::NoConvergence`] if `d(t) > ε` even at `max_steps`.
///
/// ```
/// use markov::chain::MarkovChain;
/// use markov::stationary::stationary_gth;
/// use markov::mixing::mixing_time;
///
/// let c = MarkovChain::from_rows(vec![vec![0.5, 0.5], vec![0.5, 0.5]])?;
/// let pi = stationary_gth(&c)?;
/// // This chain mixes in one step.
/// assert_eq!(mixing_time(&c, &pi, 0.125, 1024)?, 1);
/// # Ok::<(), markov::Error>(())
/// ```
pub fn mixing_time(
    chain: &MarkovChain,
    pi: &[f64],
    epsilon: f64,
    max_steps: usize,
) -> Result<usize> {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
    if !crate::structure::is_ergodic(chain) {
        return Err(Error::NotErgodic {
            reason: "mixing time requires an ergodic chain".into(),
        });
    }
    let n = chain.n_states();
    // Evolve all point masses in lockstep; d(t) is monotone non-increasing
    // (standard coupling argument), so doubling + bisection is valid.
    let mut dists: Vec<Vec<f64>> = (0..n).map(|s| chain.point_distribution(s)).collect();
    let mut t = 0usize;
    let worst =
        |ds: &[Vec<f64>]| -> f64 { ds.iter().map(|d| tv_distance(d, pi)).fold(0.0, f64::max) };
    if worst(&dists) <= epsilon {
        return Ok(0);
    }
    // Advance step-by-step with a doubling schedule of checkpoints.
    let mut check = 1usize;
    loop {
        while t < check {
            for d in &mut dists {
                *d = chain.step(d);
            }
            t += 1;
        }
        if worst(&dists) <= epsilon {
            break;
        }
        if t >= max_steps {
            return Err(Error::NoConvergence {
                procedure: "mixing_time",
                iterations: max_steps,
                residual: worst(&dists),
            });
        }
        check = (check * 2).min(max_steps);
    }
    // We know d(check/2) > ε ≥ d(check) (or check == 1). Bisect by
    // re-evolving from scratch — O(log) extra sweeps, exact answer.
    let mut lo = check / 2; // d(lo) > ε
    let mut hi = t; // d(hi) ≤ ε
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if distance_at(chain, pi, mid) <= epsilon {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::MarkovChain;
    use crate::stationary::stationary_gth;

    /// A spectral-gap-style upper bound on the 1/8-mixing time from the
    /// contraction coefficient observed over one step (Dobrushin):
    /// `τ(ε) ≤ ⌈ln(1/(2ε)) / ln(1/κ)⌉` where `κ = max_{i,j} TV(P_i·, P_j·)`.
    ///
    /// Returns `None` when the one-step Dobrushin coefficient is 1 (no
    /// contraction visible in one step; the chain may still mix).
    fn dobrushin_mixing_bound(chain: &MarkovChain, epsilon: f64) -> Option<usize> {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        let n = chain.n_states();
        let dense = chain.to_dense();
        let mut kappa = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                kappa = kappa.max(tv_distance(&dense[i], &dense[j]));
            }
        }
        if kappa >= 1.0 {
            return None;
        }
        if kappa == 0.0 {
            return Some(1);
        }
        let steps = ((1.0 / (2.0 * epsilon)).ln() / (1.0 / kappa).ln()).ceil();
        Some(steps.max(0.0) as usize)
    }

    #[test]
    fn tv_distance_properties() {
        let p = [0.2, 0.3, 0.5];
        let q = [0.5, 0.3, 0.2];
        assert_eq!(tv_distance(&p, &p), 0.0);
        assert!((tv_distance(&p, &q) - 0.3).abs() < 1e-15);
        assert_eq!(tv_distance(&p, &q), tv_distance(&q, &p));
    }

    #[test]
    fn one_step_mixer() {
        // Rows identical ⇒ mixes in exactly one step.
        let c = MarkovChain::from_rows(vec![vec![0.3, 0.7], vec![0.3, 0.7]]).unwrap();
        let pi = stationary_gth(&c).unwrap();
        assert_eq!(mixing_time(&c, &pi, 0.125, 100).unwrap(), 1);
    }

    #[test]
    fn lazy_ring_mixing_monotone() {
        // Lazy ring on 6 states: slow but ergodic.
        let n = 6;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 0.5));
            t.push((i, (i + 1) % n, 0.25));
            t.push((i, (i + n - 1) % n, 0.25));
        }
        let c = MarkovChain::from_transitions(n, &t).unwrap();
        let pi = stationary_gth(&c).unwrap();
        let tau_eighth = mixing_time(&c, &pi, 0.125, 10_000).unwrap();
        let tau_quarter = mixing_time(&c, &pi, 0.25, 10_000).unwrap();
        assert!(tau_quarter <= tau_eighth);
        assert!(tau_eighth >= 2, "a lazy ring cannot mix in one step");
        // d(t) really is below ε at τ and above just before.
        assert!(distance_at(&c, &pi, tau_eighth) <= 0.125);
        assert!(distance_at(&c, &pi, tau_eighth - 1) > 0.125);
    }

    #[test]
    fn periodic_chain_rejected() {
        let ring = MarkovChain::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let pi = vec![0.5, 0.5];
        assert!(matches!(
            mixing_time(&ring, &pi, 0.125, 100),
            Err(crate::Error::NotErgodic { .. })
        ));
    }

    #[test]
    fn max_steps_exceeded() {
        // Nearly-reducible chain: mixing time astronomically large.
        let eps = 1e-12;
        let c = MarkovChain::from_rows(vec![vec![1.0 - eps, eps], vec![eps, 1.0 - eps]]).unwrap();
        let pi = vec![0.5, 0.5];
        assert!(matches!(
            mixing_time(&c, &pi, 0.125, 50),
            Err(crate::Error::NoConvergence { .. })
        ));
    }

    #[test]
    fn dobrushin_bound_dominates_true_mixing_time() {
        let c = MarkovChain::from_rows(vec![vec![0.6, 0.4], vec![0.3, 0.7]]).unwrap();
        let pi = stationary_gth(&c).unwrap();
        let tau = mixing_time(&c, &pi, 0.125, 10_000).unwrap();
        let bound = dobrushin_mixing_bound(&c, 0.125).unwrap();
        assert!(bound >= tau, "bound {bound} < true mixing time {tau}");
    }

    #[test]
    fn dobrushin_none_when_disjoint_supports() {
        let c = MarkovChain::from_rows(vec![
            vec![0.0, 1.0, 0.0],
            vec![0.5, 0.0, 0.5],
            vec![0.0, 1.0, 0.0],
        ])
        .unwrap();
        assert_eq!(dobrushin_mixing_bound(&c, 0.125), None);
    }
}
