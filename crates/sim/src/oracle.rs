//! The mining oracle.
//!
//! The paper's model gives every miner one hash query per round, each
//! succeeding independently with probability `p`; the number of honest
//! blocks per round is therefore `binom(n_honest, p)` and the number of
//! adversary blocks `binom(n_adversary, p)` (Eqs. 7–9 and 27). The
//! oracle samples those counts directly instead of looping over miners,
//! which is what makes 10⁷-round runs feasible.
//!
//! The engine samples through [`MiningOracle::sample_gap_to_success`]:
//! the geometric gap to the next round in which *any* miner succeeds,
//! together with that round's block counts conditioned on at least one
//! success. Because all miners share the same per-query success
//! probability `p`, the round total is `binom(n, p)` and, given the
//! total, the split across the subpopulations (two honest groups +
//! adversary) is multivariate hypergeometric. This is what the
//! simulator's quiet-round fast-forward runs on: empty rounds are
//! skipped in O(1) instead of being sampled one by one.

use probability::binomial::Binomial;
use probability::rng::{RandomSource, Xoshiro256PlusPlus};
use std::sync::Arc;

/// Per-round mining outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Honest successes per group (`groups[g]` = number of honest blocks
    /// mined by group `g` this round).
    pub honest_per_group: [u64; 2],
    /// Number of adversary successes this round.
    pub adversary: u64,
}

impl RoundOutcome {
    /// Total honest successes over all groups.
    #[must_use]
    pub fn honest_total(&self) -> u64 {
        self.honest_per_group.iter().sum()
    }

    /// The all-zero outcome of a quiet round.
    #[must_use]
    pub fn quiet() -> Self {
        RoundOutcome {
            honest_per_group: [0, 0],
            adversary: 0,
        }
    }
}

/// Precomputed constants for the conditioned-round fast path, derived
/// once from `(n_total, p)` so the hot loop never reevaluates
/// transcendentals.
#[derive(Debug, Clone, Copy)]
struct GapSampler {
    /// Total miner count over all subpopulations.
    n_total: u64,
    /// Per-query success probability.
    p: f64,
    /// `α = P[any success in a round]`.
    alpha: f64,
    /// `1 / ln(1 - α)`; the geometric inverse-CDF multiplier.
    inv_ln_q: f64,
    /// `P[K = 1 | K ≥ 1]` for the truncated BINV start, or `None` when
    /// it underflows (large `np`; rejection is then nearly free).
    r1: Option<f64>,
    /// `s = p/(1-p)` and `a = (n+1)s`: BINV recurrence constants.
    s: f64,
    a: f64,
    /// `ratios[k-1] = P[K = k+1]/P[K = k]` for `k ≤ RATIO_TABLE`:
    /// removes the per-iteration division from the hot BINV loop.
    ratios: [f64; RATIO_TABLE],
}

/// Number of precomputed BINV mass ratios (covers `K ≤ 9`, far beyond
/// the typical conditioned round total in the paper's regimes).
const RATIO_TABLE: usize = 8;

impl GapSampler {
    fn new(n_total: u64, p: f64) -> Option<Self> {
        let total = Binomial::new(n_total, p).ok()?;
        if n_total == 0 || p <= 0.0 {
            return None;
        }
        if p >= 1.0 {
            // Every miner succeeds every round: gap is always 1 and the
            // count is n_total; encode via inv_ln_q = 0 (gap sample 1).
            return Some(GapSampler {
                n_total,
                p,
                alpha: 1.0,
                inv_ln_q: 0.0,
                r1: None,
                s: 0.0,
                a: 0.0,
                ratios: [0.0; RATIO_TABLE],
            });
        }
        let alpha = total.prob_positive();
        let inv_ln_q = 1.0 / (-alpha).ln_1p();
        let r1 = {
            let v = total.pmf(1) / alpha;
            (v > 0.0 && v.is_finite() && total.prob_zero() >= 1e-3).then_some(v)
        };
        let s = p / (1.0 - p);
        let a = (n_total + 1) as f64 * s;
        let mut ratios = [0.0; RATIO_TABLE];
        for (k, slot) in ratios.iter_mut().enumerate() {
            // Transition k+1 → k+2 (1-indexed masses).
            *slot = (a / (k + 2) as f64 - s).max(0.0);
        }
        Some(GapSampler {
            n_total,
            p,
            alpha,
            inv_ln_q,
            r1,
            s,
            a,
            ratios,
        })
    }

    /// Geometric gap (1-based index of the next success round).
    #[inline]
    fn sample_gap(&self, rng: &mut Xoshiro256PlusPlus) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        // Dense regime: expected gap ≤ ~5, so a handful of uniform
        // draws beats evaluating a logarithm. Sparse regime: one
        // logarithm replaces an unbounded number of draws.
        if self.alpha >= 0.2 {
            let mut g = 1u64;
            while rng.next_f64() >= self.alpha {
                g += 1;
            }
            return g;
        }
        let u = loop {
            let u = rng.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let v = (u.ln() * self.inv_ln_q).ceil();
        (v.max(1.0)) as u64
    }

    /// Round total conditioned on at least one success.
    #[inline]
    fn sample_total(&self, rng: &mut Xoshiro256PlusPlus) -> u64 {
        if self.p >= 1.0 {
            return self.n_total;
        }
        let Some(r1) = self.r1 else {
            let total = Binomial::new(self.n_total, self.p).expect("validated at construction"); // detlint: allow(panic-expect) -- n_total and p were validated by SimConfig at construction
            return total.sample_positive(rng);
        };
        // Truncated BINV over k ≥ 1 with the mass ratios precomputed —
        // no divisions in the expected O(1 + np) iterations.
        let mut u = rng.next_f64();
        let mut r = r1;
        let mut k = 1u64;
        loop {
            if u < r {
                return k;
            }
            u -= r;
            let ratio = match self.ratios.get((k - 1) as usize) {
                Some(&ratio) => ratio,
                None => (self.a / (k + 1) as f64 - self.s).max(0.0),
            };
            k += 1;
            if k > self.n_total {
                return self.n_total;
            }
            r *= ratio;
        }
    }
}

/// The subdivision of the adversary class into sub-adversaries for a
/// composed strategy (see [`MiningOracle::set_adversary_split`]).
#[derive(Debug, Clone)]
struct AdversarySplit {
    /// Sub-adversary miner counts; sums to the adversary population.
    sizes: Vec<u64>,
    /// Per-sub-adversary success counts of the most recently sampled
    /// outcome (parallel to `sizes`).
    last: Vec<u64>,
}

/// Samples per-round block counts for honest groups and the adversary.
///
/// Clones share the gap sampler's constants, which depend only on the
/// population and the hardness: the splitting estimator stores
/// thousands of engine states of one cell, and each pays for its own
/// generator and sizes only.
#[derive(Debug, Clone)]
pub struct MiningOracle {
    /// Subpopulation sizes `[group 0, group 1, adversary]`.
    sizes: [u64; 3],
    /// Further subdivision of the adversary class, `None` for a
    /// monolithic adversary. Boxed: only composed strategies set it.
    split: Option<Box<AdversarySplit>>,
    gap: Option<Arc<GapSampler>>,
    rng: Xoshiro256PlusPlus,
}

impl MiningOracle {
    /// Creates an oracle.
    ///
    /// `group_sizes` are the honest miner counts of up to two delivery
    /// groups (use `[n_honest, 0]` for the single-group setting);
    /// `n_adversary` the corrupted miner count; `p` the PoW hardness.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ (0, 1)` (validated upstream by `SimConfig`).
    #[must_use]
    pub fn new(group_sizes: [u64; 2], n_adversary: u64, p: f64, rng: Xoshiro256PlusPlus) -> Self {
        let mut oracle = MiningOracle {
            sizes: [0; 3],
            split: None,
            gap: None,
            rng,
        };
        oracle.reconfigure(group_sizes, n_adversary, p);
        oracle
    }

    /// Re-derives every distribution and the gap-sampler constants for
    /// new subpopulation sizes and hardness, **continuing the existing
    /// random stream**. This is the scenario layer's phase-boundary
    /// hook: when adversary power (or `p`) shifts mid-run, the oracle
    /// after `reconfigure` behaves exactly like a freshly constructed
    /// oracle handed the current generator state (see the
    /// `reconfigure_matches_fresh_oracle` test).
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ (0, 1)` while any miner exists (same contract as
    /// [`MiningOracle::new`]; validated upstream by `SimConfig`).
    pub fn reconfigure(&mut self, group_sizes: [u64; 2], n_adversary: u64, p: f64) {
        let sizes = [group_sizes[0], group_sizes[1], n_adversary];
        let n_total: u64 = sizes.iter().sum();
        assert!(
            n_total == 0 || (0.0..=1.0).contains(&p),
            "hardness validated by SimConfig"
        );
        self.sizes = sizes;
        self.gap = GapSampler::new(n_total, p).map(Arc::new);
        // A reconfigure invalidates any previously configured adversary
        // subdivision (the sub counts were derived from the old
        // population); callers re-establish it via
        // [`MiningOracle::set_adversary_split`].
        self.split = None;
    }

    /// Subdivides the adversary class into sub-adversary miner counts
    /// for composed strategies: every sampled outcome additionally
    /// splits its adversary success total across `subs` by a
    /// multivariate hypergeometric draw — the same without-replacement
    /// class split [`MiningOracle::sample_gap_to_success`] uses one
    /// level up, so the joint law over
    /// `[group 0, group 1, sub 1, …, sub m]` is exactly the flat
    /// multivariate hypergeometric split of the round total. The split
    /// of the latest outcome is read back through
    /// [`MiningOracle::adversary_split`].
    ///
    /// Passing `None` (or at most one sub with a nonzero count) keeps
    /// the random stream **bit-identical to the monolithic oracle**: the
    /// conditional split is deterministic in that case, so no extra
    /// draws are consumed. This is what makes a single-sub composition
    /// indistinguishable from the bare strategy and a zero-power
    /// sub-adversary a no-op.
    ///
    /// Must be called again after [`MiningOracle::reconfigure`] (which
    /// clears the subdivision).
    ///
    /// # Panics
    ///
    /// Panics if `subs` does not sum to the configured adversary
    /// population.
    pub fn set_adversary_split(&mut self, subs: Option<&[u64]>) {
        self.split = subs.map(|subs| {
            assert_eq!(
                subs.iter().sum::<u64>(),
                self.sizes[2],
                "sub-adversary counts must sum to the adversary population"
            );
            Box::new(AdversarySplit {
                sizes: subs.to_vec(),
                last: vec![0; subs.len()],
            })
        });
    }

    /// The sub-adversary miner counts [`MiningOracle::set_adversary_split`]
    /// configured, `None` for a monolithic adversary.
    #[must_use]
    pub fn adversary_sub_sizes(&self) -> Option<&[u64]> {
        self.split.as_deref().map(|split| split.sizes.as_slice())
    }

    /// Per-sub-adversary success counts of the most recently sampled
    /// outcome (empty when no subdivision is configured). Sums to that
    /// outcome's `adversary` count.
    #[must_use]
    pub fn adversary_split(&self) -> &[u64] {
        self.split
            .as_deref()
            .map_or(&[], |split| split.last.as_slice())
    }

    /// Splits `k_adv` adversary successes across the configured
    /// sub-adversaries into the split's `last` counts. Successes occupy
    /// `k_adv` distinct adversary miners chosen uniformly, so classes
    /// are drawn without replacement; when at most one sub-class has
    /// miners the split is deterministic and consumes no randomness.
    fn split_adversary(&mut self, k_adv: u64) {
        let Some(split) = self.split.as_deref_mut() else {
            return;
        };
        split.last.iter_mut().for_each(|c| *c = 0);
        if k_adv == 0 {
            return;
        }
        let nonzero = split.sizes.iter().filter(|&&s| s > 0).count();
        if nonzero <= 1 {
            if let Some(i) = split.sizes.iter().position(|&s| s > 0) {
                split.last[i] = k_adv;
            }
            return;
        }
        let mut pool: u64 = split.sizes.iter().sum();
        debug_assert!(k_adv <= pool, "more successes than adversary miners");
        for _ in 0..k_adv {
            let mut x = self.rng.next_below(pool);
            // A class's remaining miners are its size less the
            // successes it already drew.
            for (count, &size) in split.last.iter_mut().zip(&split.sizes) {
                let rem = size - *count;
                if x < rem {
                    *count += 1;
                    break;
                }
                x -= rem;
            }
            pool -= 1;
        }
    }

    /// Replaces the oracle's generator with `rng`, leaving every
    /// distribution untouched. The splitting estimator uses this to
    /// hand a cloned entrance state its own disjoint stream; callers
    /// must also discard any outcome buffered from the old stream (see
    /// `Simulation::reseed_mining`).
    pub fn replace_rng(&mut self, rng: Xoshiro256PlusPlus) {
        self.rng = rng;
    }

    /// Samples the gap to the next round with at least one success and
    /// that round's outcome: returns `(g, outcome)` meaning rounds
    /// `1..g` (relative, 1-based) are all-quiet and round `g` mines
    /// `outcome` (which has ≥ 1 success). Returns `None` when no miner
    /// exists (the gap would be infinite).
    ///
    /// Distribution: exactly the law of sampling the model's rounds one
    /// at a time until a non-quiet round appears — only the
    /// random-number *stream* differs, not the statistics (the tests
    /// check it against a per-round sampler).
    pub fn sample_gap_to_success(&mut self) -> Option<(u64, RoundOutcome)> {
        let gap = self.gap.as_deref()?;
        let g = gap.sample_gap(&mut self.rng);
        let k = gap.sample_total(&mut self.rng);
        // Split k successes across the subpopulations: successes occupy
        // k distinct miners chosen uniformly, so draw classes without
        // replacement (multivariate hypergeometric).
        let mut remaining = self.sizes;
        let mut counts = [0u64; 3];
        let mut pool: u64 = remaining.iter().sum();
        for _ in 0..k {
            let mut x = self.rng.next_below(pool);
            for (count, rem) in counts.iter_mut().zip(remaining.iter_mut()) {
                if x < *rem {
                    *count += 1;
                    *rem -= 1;
                    break;
                }
                x -= *rem;
            }
            pool -= 1;
        }
        // Second hypergeometric stage: subdivide the adversary class.
        self.split_adversary(counts[2]);
        Some((
            g,
            RoundOutcome {
                honest_per_group: [counts[0], counts[1]],
                adversary: counts[2],
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MiningOracle {
        /// The binomial law of one round's successes in a subpopulation
        /// of `n` miners (`None` for an empty one).
        fn round_law(&self, n: u64) -> Option<Binomial> {
            let p = self.gap.as_deref().map_or(0.0, |g| g.p);
            (n > 0).then(|| Binomial::new(n, p).unwrap())
        }

        /// The probability that no honest miner succeeds in one round —
        /// the paper's `ᾱ` restricted to this oracle's honest population.
        fn alpha_bar(&self) -> f64 {
            self.sizes[..2]
                .iter()
                .filter_map(|&n| self.round_law(n))
                .map(|d| d.prob_zero())
                .product()
        }

        /// Samples one round: the per-round law the gap interface is
        /// checked against.
        pub(crate) fn sample_round(&mut self) -> RoundOutcome {
            let mut honest_per_group = [0u64; 2];
            for (g, slot) in honest_per_group.iter_mut().enumerate() {
                if let Some(d) = self.round_law(self.sizes[g]) {
                    *slot = d.sample(&mut self.rng);
                }
            }
            let adversary = self
                .round_law(self.sizes[2])
                .map_or(0, |d| d.sample(&mut self.rng));
            // Conditional on the class total, the sub-class split is the
            // same hypergeometric law the gap interface uses (binomial
            // splitting), so both interfaces agree on the joint law.
            self.split_adversary(adversary);
            RoundOutcome {
                honest_per_group,
                adversary,
            }
        }

        /// Snapshot of the oracle's generator state. Used by the
        /// scenario phase-boundary tests to prove that
        /// [`MiningOracle::reconfigure`] is indistinguishable from
        /// starting a fresh oracle at the boundary.
        pub(crate) fn rng_clone(&self) -> Xoshiro256PlusPlus {
            self.rng.clone()
        }
    }

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    #[test]
    fn empty_groups_never_mine() {
        let mut o = MiningOracle::new([0, 0], 0, 0.5, rng(1));
        for _ in 0..100 {
            let out = o.sample_round();
            assert_eq!(out.honest_total(), 0);
            assert_eq!(out.adversary, 0);
        }
        assert!(o.sample_gap_to_success().is_none(), "gap is infinite");
    }

    #[test]
    fn honest_rate_matches_mean() {
        let p = 1e-3;
        let n = 500u64;
        let mut o = MiningOracle::new([n, 0], 0, p, rng(2));
        let rounds = 200_000;
        let total: u64 = (0..rounds).map(|_| o.sample_round().honest_total()).sum();
        let mean = total as f64 / rounds as f64;
        let expected = n as f64 * p;
        assert!(
            (mean - expected).abs() < 0.02 * expected + 0.01,
            "mean {mean}"
        );
    }

    #[test]
    fn adversary_rate_matches_mean() {
        let p = 2e-3;
        let mut o = MiningOracle::new([300, 0], 200, p, rng(3));
        let rounds = 100_000;
        let total: u64 = (0..rounds).map(|_| o.sample_round().adversary).sum();
        let mean = total as f64 / rounds as f64;
        assert!((mean - 0.4).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn split_groups_sum_to_single_group_rate() {
        let p = 1e-3;
        let mut split = MiningOracle::new([250, 250], 0, p, rng(4));
        let rounds = 100_000;
        let total: u64 = (0..rounds)
            .map(|_| split.sample_round().honest_total())
            .sum();
        let mean = total as f64 / rounds as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn alpha_bar_matches_paper_formula() {
        // ᾱ = (1-p)^{µn} with µn = 400 + 100 honest miners.
        let p = 1e-4f64;
        let o = MiningOracle::new([400, 100], 77, p, rng(5));
        let expected = (500.0 * (-p).ln_1p()).exp();
        assert!((o.alpha_bar() - expected).abs() < 1e-12);
    }

    #[test]
    fn deterministic_with_seed() {
        let mut a = MiningOracle::new([100, 50], 30, 0.01, rng(9));
        let mut b = MiningOracle::new([100, 50], 30, 0.01, rng(9));
        for _ in 0..1000 {
            assert_eq!(a.sample_round(), b.sample_round());
        }
        let mut a = MiningOracle::new([100, 50], 30, 0.01, rng(10));
        let mut b = MiningOracle::new([100, 50], 30, 0.01, rng(10));
        for _ in 0..1000 {
            assert_eq!(a.sample_gap_to_success(), b.sample_gap_to_success());
        }
    }

    #[test]
    fn gap_outcome_always_has_a_success() {
        let mut o = MiningOracle::new([80, 20], 40, 5e-3, rng(11));
        for _ in 0..10_000 {
            let (g, out) = o.sample_gap_to_success().expect("miners exist");
            assert!(g >= 1);
            assert!(out.honest_total() + out.adversary >= 1);
            assert!(out.honest_per_group[0] <= 80);
            assert!(out.honest_per_group[1] <= 20);
            assert!(out.adversary <= 40);
        }
    }

    /// The gap interface must reproduce the per-round interface's
    /// statistics: block rates per subpopulation and the quiet-round
    /// frequency.
    #[test]
    fn gap_sampling_matches_per_round_rates() {
        let p = 2e-3;
        let (g0, g1, adv) = (300u64, 100, 100);
        let mut o = MiningOracle::new([g0, g1], adv, p, rng(12));
        let mut rounds = 0u64;
        let mut blocks = [0u64; 3];
        let mut success_rounds = 0u64;
        while rounds < 2_000_000 {
            let (g, out) = o.sample_gap_to_success().expect("miners exist");
            rounds += g;
            success_rounds += 1;
            blocks[0] += out.honest_per_group[0];
            blocks[1] += out.honest_per_group[1];
            blocks[2] += out.adversary;
        }
        let total_binom = Binomial::new(g0 + g1 + adv, p).unwrap();
        let alpha = total_binom.prob_positive();
        let measured_alpha = success_rounds as f64 / rounds as f64;
        assert!(
            (measured_alpha - alpha).abs() < 0.02 * alpha,
            "success-round rate {measured_alpha} vs α = {alpha}"
        );
        for (i, &n_i) in [g0, g1, adv].iter().enumerate() {
            let expected = n_i as f64 * p;
            let measured = blocks[i] as f64 / rounds as f64;
            assert!(
                (measured - expected).abs() < 0.05 * expected,
                "population {i}: rate {measured} vs {expected}"
            );
        }
    }

    /// Phase-boundary contract: after `reconfigure`, the oracle must be
    /// bit-identical to a from-scratch oracle built with the new
    /// parameters and the generator state captured at the boundary —
    /// this is what makes scenario power shifts equivalent to starting
    /// a fresh engine at the phase boundary.
    #[test]
    fn reconfigure_matches_fresh_oracle() {
        let mut live = MiningOracle::new([80, 0], 20, 2e-3, rng(42));
        // Burn an arbitrary prefix of the stream under the old law,
        // through both sampling interfaces.
        for _ in 0..500 {
            let _ = live.sample_gap_to_success();
        }
        for _ in 0..100 {
            let _ = live.sample_round();
        }
        let boundary_rng = live.rng_clone();
        live.reconfigure([30, 30], 40, 5e-3);
        let mut fresh = MiningOracle::new([30, 30], 40, 5e-3, boundary_rng);
        assert_eq!(live.alpha_bar(), fresh.alpha_bar());
        for i in 0..2_000 {
            assert_eq!(
                live.sample_gap_to_success(),
                fresh.sample_gap_to_success(),
                "gap sample {i} diverged after reconfigure"
            );
        }
        for i in 0..500 {
            assert_eq!(
                live.sample_round(),
                fresh.sample_round(),
                "round sample {i} diverged after reconfigure"
            );
        }
    }

    #[test]
    fn reconfigure_to_empty_population_stops_mining() {
        let mut o = MiningOracle::new([50, 0], 10, 1e-2, rng(7));
        assert!(o.sample_gap_to_success().is_some());
        o.reconfigure([0, 0], 0, 1e-2);
        assert!(o.sample_gap_to_success().is_none(), "gap is infinite");
        assert_eq!(o.sample_round().honest_total(), 0);
    }

    /// The sub-adversary split must sum to the outcome's adversary
    /// count on both sampling interfaces, and stay within sub sizes.
    #[test]
    fn adversary_split_sums_to_adversary_count() {
        let mut o = MiningOracle::new([40, 20], 40, 5e-3, rng(21));
        o.set_adversary_split(Some(&[25, 10, 5]));
        for _ in 0..5_000 {
            let (_, out) = o.sample_gap_to_success().expect("miners exist");
            let split = o.adversary_split();
            assert_eq!(split.len(), 3);
            assert_eq!(split.iter().sum::<u64>(), out.adversary);
            assert!(split[0] <= 25 && split[1] <= 10 && split[2] <= 5);
        }
        for _ in 0..2_000 {
            let out = o.sample_round();
            assert_eq!(o.adversary_split().iter().sum::<u64>(), out.adversary);
        }
    }

    /// A degenerate subdivision (one sub, or extra zero-size subs) must
    /// not consume any randomness: the sampled stream stays
    /// bit-identical to the monolithic oracle's.
    #[test]
    fn degenerate_split_is_stream_invisible() {
        let mut mono = MiningOracle::new([80, 0], 20, 2e-3, rng(22));
        let mut single = MiningOracle::new([80, 0], 20, 2e-3, rng(22));
        single.set_adversary_split(Some(&[20]));
        let mut padded = MiningOracle::new([80, 0], 20, 2e-3, rng(22));
        padded.set_adversary_split(Some(&[0, 20, 0]));
        for i in 0..3_000 {
            let m = mono.sample_gap_to_success();
            assert_eq!(m, single.sample_gap_to_success(), "gap sample {i}");
            assert_eq!(m, padded.sample_gap_to_success(), "gap sample {i}");
            let adversary = m.expect("miners exist").1.adversary;
            assert_eq!(single.adversary_split(), &[adversary]);
            assert_eq!(padded.adversary_split(), &[0, adversary, 0]);
        }
    }

    /// With a single adversary success, the owning sub-adversary is
    /// proportional to its miner count (the hypergeometric one-draw
    /// marginal).
    #[test]
    fn single_adversary_success_sub_split_proportional() {
        let mut o = MiningOracle::new([100, 0], 40, 1e-4, rng(23));
        o.set_adversary_split(Some(&[30, 10]));
        let mut hits = [0u64; 2];
        let mut singles = 0u64;
        for _ in 0..60_000 {
            let (_, out) = o.sample_gap_to_success().expect("miners exist");
            if out.adversary == 1 {
                singles += 1;
                let split = o.adversary_split();
                if split[0] == 1 {
                    hits[0] += 1;
                } else {
                    assert_eq!(split[1], 1);
                    hits[1] += 1;
                }
            }
        }
        assert!(singles > 10_000, "adversary singles at tiny p: {singles}");
        let share = hits[0] as f64 / singles as f64;
        assert!((share - 0.75).abs() < 0.02, "sub 0 share {share}");
    }

    #[test]
    fn reconfigure_clears_adversary_split() {
        let mut o = MiningOracle::new([50, 0], 10, 1e-2, rng(24));
        o.set_adversary_split(Some(&[6, 4]));
        let _ = o.sample_gap_to_success();
        assert_eq!(o.adversary_split().len(), 2);
        o.reconfigure([50, 0], 20, 1e-2);
        assert!(
            o.adversary_split().is_empty(),
            "stale split must not persist"
        );
        let _ = o.sample_gap_to_success();
        assert!(o.adversary_split().is_empty());
    }

    #[test]
    #[should_panic(expected = "sum to the adversary population")]
    fn mismatched_split_is_rejected() {
        let mut o = MiningOracle::new([50, 0], 10, 1e-2, rng(25));
        o.set_adversary_split(Some(&[6, 5]));
    }

    /// Conditional split: with a single success, the owning population
    /// is proportional to its size.
    #[test]
    fn single_success_split_proportional() {
        let mut o = MiningOracle::new([60, 20], 20, 1e-4, rng(13));
        let mut hits = [0u64; 3];
        let mut singles = 0u64;
        for _ in 0..50_000 {
            let (_, out) = o.sample_gap_to_success().expect("miners exist");
            if out.honest_total() + out.adversary == 1 {
                singles += 1;
                if out.honest_per_group[0] == 1 {
                    hits[0] += 1;
                } else if out.honest_per_group[1] == 1 {
                    hits[1] += 1;
                } else {
                    hits[2] += 1;
                }
            }
        }
        assert!(singles > 40_000, "singles dominate at tiny p");
        let freqs: Vec<f64> = hits.iter().map(|&h| h as f64 / singles as f64).collect();
        assert!((freqs[0] - 0.6).abs() < 0.02, "group 0 share {}", freqs[0]);
        assert!((freqs[1] - 0.2).abs() < 0.02, "group 1 share {}", freqs[1]);
        assert!(
            (freqs[2] - 0.2).abs() < 0.02,
            "adversary share {}",
            freqs[2]
        );
    }
}
