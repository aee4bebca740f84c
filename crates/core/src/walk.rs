//! Random-walk sampling over a [`MarkovChain`], compiled only under
//! `cfg(test)`: `suffix_chain`'s tests walk the explicit `C_F` and
//! compare its empirical occupancy with the closed-form stationary
//! distribution.

use markov::chain::MarkovChain;
use probability::rng::RandomSource;

/// A position on a chain plus the RNG that drives it.
#[derive(Debug, Clone)]
pub struct RandomWalk<'a, R> {
    chain: &'a MarkovChain,
    state: usize,
    rng: R,
    steps_taken: u64,
}

impl<'a, R: RandomSource> RandomWalk<'a, R> {
    /// Starts a walk at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start ≥ chain.n_states()`.
    pub fn new(chain: &'a MarkovChain, start: usize, rng: R) -> Self {
        assert!(start < chain.n_states(), "start state out of range");
        RandomWalk {
            chain,
            state: start,
            rng,
            steps_taken: 0,
        }
    }

    /// Number of steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Takes one step; returns the new state.
    pub fn step(&mut self) -> usize {
        let u = self.rng.next_f64();
        let mut acc = 0.0;
        let mut chosen = None;
        for (j, p) in self.chain.successors(self.state) {
            acc += p;
            if u < acc {
                chosen = Some(j);
                break;
            }
        }
        // Rounding slack: fall back to the last successor.
        self.state = chosen.unwrap_or_else(|| {
            self.chain
                .successors(self.state)
                .last()
                .map(|(j, _)| j)
                .expect("every state of a stochastic chain has a successor")
        });
        self.steps_taken += 1;
        self.state
    }

    /// Takes `t` steps, returning the visited states (excluding the
    /// starting state).
    pub fn take_path(&mut self, t: usize) -> Vec<usize> {
        (0..t).map(|_| self.step()).collect()
    }

    /// Counts visits per state over the next `t` steps (the occupancy
    /// vector); includes the state after each step, not the start.
    pub fn occupancy(&mut self, t: usize) -> Vec<u64> {
        let mut counts = vec![0u64; self.chain.n_states()];
        for _ in 0..t {
            counts[self.step()] += 1;
        }
        counts
    }

    /// Sums an indicator over the next `t` steps: the number of steps
    /// landing in `targets`. This is exactly the paper's
    /// `X = Σ f_t(V_t)` occupancy statistic.
    pub fn count_visits(&mut self, targets: &[usize], t: usize) -> u64 {
        let mut is_target = vec![false; self.chain.n_states()];
        for &s in targets {
            is_target[s] = true;
        }
        let mut count = 0;
        for _ in 0..t {
            if is_target[self.step()] {
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use markov::stationary::stationary_gth;
    use probability::rng::Xoshiro256PlusPlus;

    fn chain3() -> MarkovChain {
        MarkovChain::from_rows(vec![
            vec![0.2, 0.5, 0.3],
            vec![0.4, 0.1, 0.5],
            vec![0.25, 0.25, 0.5],
        ])
        .unwrap()
    }

    #[test]
    fn deterministic_walk_follows_cycle() {
        let ring = MarkovChain::from_rows(vec![
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0],
        ])
        .unwrap();
        let rng = Xoshiro256PlusPlus::seed_from_u64(0);
        let mut walk = RandomWalk::new(&ring, 0, rng);
        assert_eq!(walk.take_path(6), vec![1, 2, 0, 1, 2, 0]);
        assert_eq!(walk.steps_taken(), 6);
    }

    #[test]
    fn occupancy_matches_stationary_distribution() {
        let c = chain3();
        let pi = stationary_gth(&c).unwrap();
        let rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut walk = RandomWalk::new(&c, 0, rng);
        let t = 300_000;
        let occ = walk.occupancy(t);
        for s in 0..3 {
            let freq = occ[s] as f64 / t as f64;
            assert!(
                (freq - pi[s]).abs() < 0.01,
                "state {s}: freq {freq} vs π {}",
                pi[s]
            );
        }
        assert_eq!(occ.iter().sum::<u64>(), t as u64);
    }

    #[test]
    fn count_visits_consistent_with_occupancy() {
        let c = chain3();
        let mut w1 = RandomWalk::new(&c, 1, Xoshiro256PlusPlus::seed_from_u64(9));
        let mut w2 = RandomWalk::new(&c, 1, Xoshiro256PlusPlus::seed_from_u64(9));
        let occ = w1.occupancy(10_000);
        let visits = w2.count_visits(&[0, 2], 10_000);
        assert_eq!(visits, occ[0] + occ[2]);
    }

    #[test]
    fn reproducible_across_identical_seeds() {
        let c = chain3();
        let mut a = RandomWalk::new(&c, 0, Xoshiro256PlusPlus::seed_from_u64(123));
        let mut b = RandomWalk::new(&c, 0, Xoshiro256PlusPlus::seed_from_u64(123));
        assert_eq!(a.take_path(100), b.take_path(100));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_start() {
        let c = chain3();
        let rng = Xoshiro256PlusPlus::seed_from_u64(0);
        let _ = RandomWalk::new(&c, 9, rng);
    }
}
