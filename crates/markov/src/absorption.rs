//! Absorbing-chain analysis: fundamental matrix, absorption
//! probabilities and expected times to absorption.
//!
//! A test oracle, compiled only under `cfg(test)`: `race`'s tests solve
//! the capped private-chain race as a dense absorbing chain with these
//! routines and compare the answer with its closed form.

use crate::chain::MarkovChain;
use crate::{Error, Result};

/// Decomposition of a chain into transient and absorbing states.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsorbingAnalysis {
    /// Indices of transient states (chain order).
    pub transient: Vec<usize>,
    /// Indices of absorbing states (chain order).
    pub absorbing: Vec<usize>,
    /// `expected_steps[i]` — expected steps to absorption from
    /// `transient[i]` (row sums of the fundamental matrix).
    pub expected_steps: Vec<f64>,
    /// `absorption_prob[i][j]` — probability that `transient[i]` is
    /// eventually absorbed in `absorbing[j]`.
    pub absorption_prob: Vec<Vec<f64>>,
}

impl AbsorbingAnalysis {
    /// Absorption probability from a transient state into an absorbing
    /// state, addressed by *chain* indices.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not transient or `into` not absorbing.
    #[must_use]
    pub fn probability(&self, from: usize, into: usize) -> f64 {
        let i = self
            .transient
            .iter()
            .position(|&s| s == from)
            .expect("`from` must be a transient state");
        let j = self
            .absorbing
            .iter()
            .position(|&s| s == into)
            .expect("`into` must be an absorbing state");
        self.absorption_prob[i][j]
    }

    /// Expected steps to absorption from a transient state (chain index).
    ///
    /// # Panics
    ///
    /// Panics if `from` is not transient.
    #[must_use]
    pub fn steps_from(&self, from: usize) -> f64 {
        let i = self
            .transient
            .iter()
            .position(|&s| s == from)
            .expect("`from` must be a transient state");
        self.expected_steps[i]
    }
}

/// Analyses an absorbing chain. A state is *absorbing* iff its only
/// transition is a self-loop with probability 1.
///
/// Solves `(I − Q)·N = I` column-by-column with Gaussian elimination,
/// where `Q` is the transient-to-transient block.
///
/// # Errors
///
/// * [`Error::NotErgodic`] if no state is absorbing or no state is
///   transient.
/// * [`Error::BadShape`] if some transient state cannot reach any
///   absorbing state (the system is singular).
pub fn analyze(chain: &MarkovChain) -> Result<AbsorbingAnalysis> {
    let n = chain.n_states();
    let is_absorbing: Vec<bool> = (0..n)
        .map(|i| {
            let mut succ = chain.successors(i);
            matches!(succ.next(), Some((j, p)) if j == i && (p - 1.0).abs() < 1e-12)
                && succ.next().is_none()
        })
        .collect();
    let absorbing: Vec<usize> = (0..n).filter(|&i| is_absorbing[i]).collect();
    let transient: Vec<usize> = (0..n).filter(|&i| !is_absorbing[i]).collect();
    if absorbing.is_empty() {
        return Err(Error::NotErgodic {
            reason: "no absorbing state".into(),
        });
    }
    if transient.is_empty() {
        return Err(Error::NotErgodic {
            reason: "no transient state".into(),
        });
    }
    let m = transient.len();
    let index_of: std::collections::BTreeMap<usize, usize> =
        transient.iter().enumerate().map(|(i, &s)| (s, i)).collect();

    // Build I − Q and the R block (transient → absorbing one-step mass).
    let mut a = vec![vec![0.0; m]; m];
    let mut r = vec![vec![0.0; absorbing.len()]; m];
    for (i, &s) in transient.iter().enumerate() {
        a[i][i] = 1.0;
        for (t, p) in chain.successors(s) {
            if let Some(&j) = index_of.get(&t) {
                a[i][j] -= p;
            } else {
                let j = absorbing.iter().position(|&x| x == t).expect("partition");
                r[i][j] += p;
            }
        }
    }

    // LU-factorise A once (partial pivoting), then solve for each RHS.
    let mut lu = a;
    let mut perm: Vec<usize> = (0..m).collect();
    for col in 0..m {
        let pivot_row = (col..m)
            .max_by(|&x, &y| {
                lu[x][col]
                    .abs()
                    .partial_cmp(&lu[y][col].abs())
                    .expect("finite")
            })
            .expect("non-empty");
        if lu[pivot_row][col].abs() < 1e-300 {
            return Err(Error::BadShape {
                message: "transient block singular: some state cannot be absorbed".into(),
            });
        }
        lu.swap(col, pivot_row);
        perm.swap(col, pivot_row);
        let pivot = lu[col][col];
        for row in (col + 1)..m {
            let (head, tail) = lu.split_at_mut(row);
            let pivot_vals = &head[col];
            let row_vals = &mut tail[0];
            let factor = row_vals[col] / pivot;
            row_vals[col] = factor;
            if factor == 0.0 {
                // Nothing to eliminate: banded chains stay O(m²).
                continue;
            }
            for (x, &upper) in row_vals[col + 1..].iter_mut().zip(&pivot_vals[col + 1..]) {
                *x -= factor * upper;
            }
        }
    }
    let solve = |rhs: &[f64]| -> Vec<f64> {
        // Forward substitution on the permuted RHS.
        let mut y: Vec<f64> = perm.iter().map(|&i| rhs[i]).collect();
        for row in 1..m {
            for k in 0..row {
                y[row] -= lu[row][k] * y[k];
            }
        }
        // Back substitution.
        let mut x = y;
        for row in (0..m).rev() {
            for k in (row + 1)..m {
                x[row] -= lu[row][k] * x[k];
            }
            x[row] /= lu[row][row];
        }
        x
    };

    // Expected steps: N·1 solves (I − Q)t = 1.
    let expected_steps = solve(&vec![1.0; m]);
    // Absorption probabilities: columns of B = N·R, i.e. (I−Q)b_j = r_j.
    let mut absorption_prob = vec![vec![0.0; absorbing.len()]; m];
    for j in 0..absorbing.len() {
        let rhs: Vec<f64> = (0..m).map(|i| r[i][j]).collect();
        let col = solve(&rhs);
        for i in 0..m {
            absorption_prob[i][j] = col[i];
        }
    }

    Ok(AbsorbingAnalysis {
        transient,
        absorbing,
        expected_steps,
        absorption_prob,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::MarkovChain;

    /// Gambler's ruin on {0..l} with win probability `p`.
    fn ruin_chain(l: usize, p: f64) -> MarkovChain {
        let mut t = vec![(0usize, 0usize, 1.0), (l, l, 1.0)];
        for i in 1..l {
            t.push((i, i + 1, p));
            t.push((i, i - 1, 1.0 - p));
        }
        MarkovChain::from_transitions(l + 1, &t).unwrap()
    }

    #[test]
    fn fair_ruin_probabilities_linear() {
        let l = 6;
        let chain = ruin_chain(l, 0.5);
        let a = analyze(&chain).unwrap();
        for k in 1..l {
            // P[absorbed at l | start k] = k/l for a fair walk.
            let p_win = a.probability(k, l);
            assert!(
                (p_win - k as f64 / l as f64).abs() < 1e-10,
                "k={k}: {p_win}"
            );
            // Expected steps = k(l−k).
            let steps = a.steps_from(k);
            assert!(
                (steps - (k * (l - k)) as f64).abs() < 1e-9,
                "k={k}: {steps}"
            );
        }
    }

    #[test]
    fn biased_ruin_matches_closed_form() {
        let l = 8;
        let p = 0.3f64;
        let chain = ruin_chain(l, p);
        let a = analyze(&chain).unwrap();
        let r = (1.0 - p) / p;
        for k in 1..l {
            let expected = (r.powi(k as i32) - 1.0) / (r.powi(l as i32) - 1.0);
            let got = a.probability(k, l);
            assert!((got - expected).abs() < 1e-10, "k={k}: {got} vs {expected}");
        }
    }

    #[test]
    fn absorption_rows_sum_to_one() {
        let chain = ruin_chain(5, 0.42);
        let a = analyze(&chain).unwrap();
        for row in &a.absorption_prob {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_chain_without_absorbing_state() {
        let c = MarkovChain::from_rows(vec![vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        assert!(matches!(analyze(&c), Err(Error::NotErgodic { .. })));
    }

    #[test]
    fn rejects_all_absorbing() {
        let c = MarkovChain::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(analyze(&c), Err(Error::NotErgodic { .. })));
    }

    #[test]
    fn unreachable_absorber_is_singular() {
        // 1 ↔ 2 closed among themselves; absorber 0 unreachable.
        let c = MarkovChain::from_rows(vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.0, 1.0, 0.0],
        ])
        .unwrap();
        assert!(matches!(analyze(&c), Err(Error::BadShape { .. })));
    }

    #[test]
    fn single_transient_state() {
        let c = MarkovChain::from_rows(vec![vec![0.25, 0.75], vec![0.0, 1.0]]).unwrap();
        let a = analyze(&c).unwrap();
        // Geometric escape: expected steps 1/0.75.
        assert!((a.steps_from(0) - 4.0 / 3.0).abs() < 1e-12);
        assert!((a.probability(0, 1) - 1.0).abs() < 1e-12);
    }
}
