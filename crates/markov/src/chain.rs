//! The [`MarkovChain`] type: a validated row-stochastic transition matrix
//! in compressed sparse row (CSR) form.
//!
//! CSR is the right default here: the paper's suffix chain `C_F` has
//! `2Δ+1` states but only ≤ 2 outgoing edges per state, so dense storage
//! would waste O(Δ²) memory for no benefit.

use crate::{Error, Result};

/// Row-sum tolerance accepted by [`MarkovChain`] validation.
pub const STOCHASTIC_TOL: f64 = 1e-9;

/// A finite discrete-time Markov chain over states `0..n_states`.
///
/// Rows of the transition matrix are validated to be non-negative and to
/// sum to 1 within [`STOCHASTIC_TOL`]; rows are then exactly renormalised
/// so that downstream linear algebra sees sums of exactly 1.0 (to f64
/// rounding).
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    n_states: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl MarkovChain {
    /// Builds a chain from dense rows.
    ///
    /// # Errors
    ///
    /// * [`Error::BadShape`] for an empty matrix or ragged rows.
    /// * [`Error::NotStochastic`] when a row has a negative/non-finite
    ///   entry or does not sum to 1 within [`STOCHASTIC_TOL`].
    ///
    /// ```
    /// use markov::chain::MarkovChain;
    /// let c = MarkovChain::from_rows(vec![vec![0.5, 0.5], vec![1.0, 0.0]])?;
    /// assert_eq!(c.n_states(), 2);
    /// # Ok::<(), markov::Error>(())
    /// ```
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        let n = rows.len();
        if n == 0 {
            return Err(Error::BadShape {
                message: "chain must have at least one state".into(),
            });
        }
        let mut builder = MarkovChainBuilder::new(n);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(Error::BadShape {
                    message: format!("row {i} has length {} but chain has {n} states", row.len()),
                });
            }
            for (j, &p) in row.iter().enumerate() {
                if p != 0.0 {
                    builder.add(i, j, p)?;
                }
            }
        }
        builder.build()
    }

    /// Number of states.
    #[inline]
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Transition probability `P(i → j)`; zero if not stored.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[must_use]
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n_states && j < self.n_states, "state out of range");
        self.successors(i)
            .find(|&(col, _)| col == j)
            .map_or(0.0, |(_, p)| p)
    }

    /// Iterator over `(successor, probability)` pairs of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n_states`.
    pub fn successors(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.n_states, "state out of range");
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// One step of distribution evolution: returns `dist · P`.
    ///
    /// # Panics
    ///
    /// Panics if `dist.len() != n_states`.
    #[must_use]
    pub fn step(&self, dist: &[f64]) -> Vec<f64> {
        assert_eq!(dist.len(), self.n_states, "distribution length mismatch");
        let mut out = vec![0.0; self.n_states];
        for (i, &mass) in dist.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            for (j, p) in self.successors(i) {
                out[j] += mass * p;
            }
        }
        out
    }

    /// Evolves a distribution `steps` times.
    #[must_use]
    pub fn step_n(&self, dist: &[f64], steps: usize) -> Vec<f64> {
        let mut d = dist.to_vec();
        for _ in 0..steps {
            d = self.step(&d);
        }
        d
    }

    /// The uniform distribution over all states.
    #[must_use]
    pub fn uniform_distribution(&self) -> Vec<f64> {
        vec![1.0 / self.n_states as f64; self.n_states]
    }

    /// A point-mass distribution on `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state ≥ n_states`.
    #[must_use]
    pub fn point_distribution(&self, state: usize) -> Vec<f64> {
        assert!(state < self.n_states, "state out of range");
        let mut d = vec![0.0; self.n_states];
        d[state] = 1.0;
        d
    }

    /// Materialises the dense transition matrix (row-major). Intended for
    /// small chains (tests, GTH elimination).
    #[must_use]
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut m = vec![vec![0.0; self.n_states]; self.n_states];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, p) in self.successors(i) {
                row[j] += p;
            }
        }
        m
    }

    /// Adjacency view: successors with non-zero probability, used by the
    /// structural algorithms.
    pub(crate) fn successor_indices(&self, i: usize) -> &[usize] {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        &self.col_idx[lo..hi]
    }
}

/// Incremental builder for [`MarkovChain`].
///
/// ```
/// use markov::chain::MarkovChainBuilder;
/// let mut b = MarkovChainBuilder::new(2);
/// b.add(0, 1, 1.0)?;
/// b.add(1, 0, 0.25)?;
/// b.add(1, 1, 0.75)?;
/// let chain = b.build()?;
/// assert_eq!(chain.prob(1, 0), 0.25);
/// # Ok::<(), markov::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct MarkovChainBuilder {
    n_states: usize,
    rows: Vec<Vec<(usize, f64)>>,
}

impl MarkovChainBuilder {
    /// Creates a builder for a chain with `n_states` states.
    #[must_use]
    pub fn new(n_states: usize) -> Self {
        MarkovChainBuilder {
            n_states,
            rows: vec![Vec::new(); n_states],
        }
    }

    /// Adds probability mass `p` to the transition `from → to`
    /// (accumulating over repeated calls).
    ///
    /// # Errors
    ///
    /// * [`Error::StateOutOfRange`] for indices `≥ n_states`.
    /// * [`Error::NotStochastic`] for negative or non-finite `p`.
    pub fn add(&mut self, from: usize, to: usize, p: f64) -> Result<&mut Self> {
        if from >= self.n_states {
            return Err(Error::StateOutOfRange {
                state: from,
                n_states: self.n_states,
            });
        }
        if to >= self.n_states {
            return Err(Error::StateOutOfRange {
                state: to,
                n_states: self.n_states,
            });
        }
        if !(p >= 0.0) || !p.is_finite() {
            return Err(Error::NotStochastic { row: from, sum: p });
        }
        if let Some(entry) = self.rows[from].iter_mut().find(|(c, _)| *c == to) {
            entry.1 += p;
        } else {
            self.rows[from].push((to, p));
        }
        Ok(self)
    }

    /// Validates and finalises the chain.
    ///
    /// # Errors
    ///
    /// * [`Error::BadShape`] if `n_states == 0`.
    /// * [`Error::NotStochastic`] if any row sum deviates from 1 by more
    ///   than [`STOCHASTIC_TOL`].
    pub fn build(self) -> Result<MarkovChain> {
        if self.n_states == 0 {
            return Err(Error::BadShape {
                message: "chain must have at least one state".into(),
            });
        }
        let mut row_ptr = Vec::with_capacity(self.n_states + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for (i, mut row) in self.rows.into_iter().enumerate() {
            let sum: f64 = row.iter().map(|&(_, p)| p).sum();
            if (sum - 1.0).abs() > STOCHASTIC_TOL {
                return Err(Error::NotStochastic { row: i, sum });
            }
            row.sort_unstable_by_key(|&(c, _)| c);
            for (c, p) in row {
                // Exact renormalisation so downstream sums are 1.0.
                col_idx.push(c);
                values.push(p / sum);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(MarkovChain {
            n_states: self.n_states,
            row_ptr,
            col_idx,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MarkovChain {
        /// Builds a chain from `(from, to, probability)` triplets,
        /// accumulating duplicate pairs: the sparse chains the tests
        /// across this crate write down.
        pub(crate) fn from_transitions(
            n_states: usize,
            transitions: &[(usize, usize, f64)],
        ) -> Result<Self> {
            let mut builder = MarkovChainBuilder::new(n_states);
            for &(i, j, p) in transitions {
                builder.add(i, j, p)?;
            }
            builder.build()
        }

        /// Number of stored (non-zero) transitions.
        fn n_transitions(&self) -> usize {
            self.values.len()
        }
    }

    fn two_state() -> MarkovChain {
        MarkovChain::from_rows(vec![vec![0.9, 0.1], vec![0.5, 0.5]]).unwrap()
    }

    #[test]
    fn from_rows_valid() {
        let c = two_state();
        assert_eq!(c.n_states(), 2);
        assert_eq!(c.n_transitions(), 4);
        assert_eq!(c.prob(0, 1), 0.1);
        assert_eq!(c.prob(1, 0), 0.5);
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            MarkovChain::from_rows(vec![]),
            Err(Error::BadShape { .. })
        ));
    }

    #[test]
    fn rejects_ragged() {
        let e = MarkovChain::from_rows(vec![vec![1.0], vec![0.5, 0.5]]);
        assert!(matches!(e, Err(Error::BadShape { .. })));
    }

    #[test]
    fn rejects_non_stochastic_row() {
        let e = MarkovChain::from_rows(vec![vec![0.5, 0.4], vec![0.5, 0.5]]);
        assert!(matches!(e, Err(Error::NotStochastic { row: 0, .. })));
    }

    #[test]
    fn rejects_negative_probability() {
        let e = MarkovChain::from_rows(vec![vec![1.5, -0.5], vec![0.5, 0.5]]);
        assert!(matches!(e, Err(Error::NotStochastic { .. })));
    }

    #[test]
    fn builder_accumulates_duplicates() {
        let mut b = MarkovChainBuilder::new(1);
        b.add(0, 0, 0.4).unwrap();
        b.add(0, 0, 0.6).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.prob(0, 0), 1.0);
        assert_eq!(c.n_transitions(), 1);
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = MarkovChainBuilder::new(2);
        assert!(matches!(
            b.add(2, 0, 1.0),
            Err(Error::StateOutOfRange { state: 2, .. })
        ));
        assert!(matches!(
            b.add(0, 5, 1.0),
            Err(Error::StateOutOfRange { state: 5, .. })
        ));
    }

    #[test]
    fn step_preserves_total_mass() {
        let c = two_state();
        let d0 = c.point_distribution(0);
        let d1 = c.step(&d0);
        assert!((d1.iter().sum::<f64>() - 1.0).abs() < 1e-15);
        assert_eq!(d1, vec![0.9, 0.1]);
    }

    #[test]
    fn step_n_composes() {
        let c = two_state();
        let d = c.uniform_distribution();
        let a = c.step(&c.step(&d));
        let b = c.step_n(&d, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn to_dense_round_trip() {
        let rows = vec![vec![0.25, 0.75], vec![1.0, 0.0]];
        let c = MarkovChain::from_rows(rows.clone()).unwrap();
        let dense = c.to_dense();
        for i in 0..2 {
            for j in 0..2 {
                assert!((dense[i][j] - rows[i][j]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn successors_sorted_by_column() {
        let c = MarkovChain::from_transitions(
            3,
            &[
                (0, 2, 0.5),
                (0, 1, 0.25),
                (0, 0, 0.25),
                (1, 1, 1.0),
                (2, 2, 1.0),
            ],
        )
        .unwrap();
        let succ: Vec<usize> = c.successors(0).map(|(j, _)| j).collect();
        assert_eq!(succ, vec![0, 1, 2]);
    }

    #[test]
    fn renormalisation_within_tolerance() {
        // Row sums to 1 + 5e-10: accepted and renormalised to exactly 1.
        let c = MarkovChain::from_rows(vec![vec![0.5 + 5e-10, 0.5], vec![0.5, 0.5]]).unwrap();
        let sum: f64 = c.successors(0).map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-15);
    }

    #[test]
    fn point_distribution_is_unit_vector() {
        let c = two_state();
        assert_eq!(c.point_distribution(1), vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "state out of range")]
    fn prob_panics_out_of_range() {
        let _ = two_state().prob(0, 7);
    }
}

// Deterministic randomized sweeps (in-tree RNG; proptest is unavailable
// in the offline build environment).
#[cfg(test)]
mod randomized_tests {
    use super::*;
    use probability::rng::{RandomSource, SplitMix64};

    fn random_chain(rng: &mut SplitMix64, max_states: u64) -> MarkovChain {
        let n = rng.next_range(1, max_states) as usize;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let row: Vec<f64> = (0..n).map(|_| 0.01 + rng.next_f64() * 0.99).collect();
                let s: f64 = row.iter().sum();
                row.into_iter().map(|x| x / s).collect()
            })
            .collect();
        MarkovChain::from_rows(rows).expect("normalised rows are stochastic")
    }

    #[test]
    fn step_preserves_mass() {
        let mut rng = SplitMix64::new(0xC4_01);
        for _ in 0..256 {
            let chain = random_chain(&mut rng, 8);
            let d = chain.uniform_distribution();
            let d2 = chain.step(&d);
            let total: f64 = d2.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "mass not preserved: {total}");
            assert!(d2.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn dense_rows_stochastic() {
        let mut rng = SplitMix64::new(0xC4_02);
        for _ in 0..256 {
            let chain = random_chain(&mut rng, 6);
            for row in chain.to_dense() {
                let s: f64 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-12, "row not stochastic: {s}");
            }
        }
    }
}
