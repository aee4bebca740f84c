//! The binomial distribution `binom(n, p)`.
//!
//! This is the paper's fundamental modelling object: the number of blocks
//! mined by the `µn` honest miners in one round follows `binom(µn, p)`
//! (Eqs. 7–9), and the adversary's block count over `T` rounds follows
//! `binom(Tνn, p)` (Eq. 27).

use crate::rng::RandomSource;
use crate::special::{ln_choose, reg_inc_beta};
use crate::{Error, Result};

/// A binomial distribution with `n` trials and success probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates `binom(n, p)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] unless `p ∈ [0, 1]` and `p` is
    /// finite.
    ///
    /// ```
    /// use probability::binomial::Binomial;
    /// let d = Binomial::new(10, 0.5)?;
    /// assert_eq!(d.n(), 10);
    /// # Ok::<(), probability::Error>(())
    /// ```
    pub fn new(n: u64, p: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(Error::invalid("p", format!("must lie in [0, 1], got {p}")));
        }
        Ok(Binomial { n, p })
    }

    /// Number of trials.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Per-trial success probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean `np`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Natural log of the probability mass `ln P[X = k]`.
    ///
    /// Returns `-inf` for `k > n`.
    #[must_use]
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return f64::NEG_INFINITY;
        }
        if self.p == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if self.p == 1.0 {
            return if k == self.n { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_choose(self.n, k) + k as f64 * self.p.ln() + (self.n - k) as f64 * (-self.p).ln_1p()
    }

    /// Probability mass `P[X = k]`.
    ///
    /// ```
    /// use probability::binomial::Binomial;
    /// let d = Binomial::new(4, 0.5)?;
    /// assert!((d.pmf(2) - 0.375).abs() < 1e-14);
    /// # Ok::<(), probability::Error>(())
    /// ```
    #[must_use]
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// `P[X = 0] = (1-p)^n` — the paper's `ᾱ` when `n = µn`.
    #[must_use]
    pub fn prob_zero(&self) -> f64 {
        self.ln_prob_zero().exp()
    }

    /// `ln P[X = 0] = n·ln(1-p)`, stable for tiny `p` and huge `n`.
    #[must_use]
    pub fn ln_prob_zero(&self) -> f64 {
        if self.p == 1.0 && self.n > 0 {
            return f64::NEG_INFINITY;
        }
        self.n as f64 * (-self.p).ln_1p()
    }

    /// `P[X > 0] = 1 - (1-p)^n` — the paper's `α`, computed without
    /// cancellation via `-expm1(n·ln(1-p))`.
    #[must_use]
    pub fn prob_positive(&self) -> f64 {
        -self.ln_prob_zero().exp_m1()
    }

    /// Cumulative distribution `P[X ≤ k]`.
    ///
    /// Uses the regularized incomplete beta identity
    /// `P[X ≤ k] = I_{1-p}(n-k, k+1)`; falls back to direct summation for
    /// small `n` where it is cheaper and exact.
    ///
    /// # Errors
    ///
    /// Propagates a (never observed in practice) continued-fraction
    /// convergence failure.
    pub fn cdf(&self, k: u64) -> Result<f64> {
        if k >= self.n {
            return Ok(1.0);
        }
        if self.p == 0.0 {
            return Ok(1.0);
        }
        if self.p == 1.0 {
            return Ok(0.0);
        }
        if self.n <= 64 {
            let mut acc = 0.0;
            for j in 0..=k {
                acc += self.pmf(j);
            }
            return Ok(acc.min(1.0));
        }
        reg_inc_beta((self.n - k) as f64, k as f64 + 1.0, 1.0 - self.p)
    }

    /// Smallest `k` with `cdf(k) ≥ q` (the quantile function), found by
    /// bisection over the integer support using the exact CDF.
    ///
    /// # Errors
    ///
    /// Propagates CDF evaluation errors.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<u64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile requires q in [0,1], got {q}"
        );
        if q == 0.0 {
            return Ok(0);
        }
        let (mut lo, mut hi) = (0u64, self.n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cdf(mid)? >= q {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Ok(lo)
    }

    /// Draws one sample.
    ///
    /// Strategy (benchmarked in `consistency-bench`):
    /// * `n ≤ 32`: direct Bernoulli trials;
    /// * `np ≤ 30`: BINV inversion (expected O(np) iterations);
    /// * otherwise: exact integer-quantile inversion via the CDF
    ///   (O(log n) incomplete-beta evaluations).
    pub fn sample<R: RandomSource + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.p == 0.0 || self.n == 0 {
            return 0;
        }
        if self.p == 1.0 {
            return self.n;
        }
        if self.n <= 32 {
            let mut k = 0;
            for _ in 0..self.n {
                if rng.bernoulli(self.p) {
                    k += 1;
                }
            }
            return k;
        }
        // Exploit symmetry so the inversion walks the short side.
        if self.p > 0.5 {
            let mirrored = Binomial {
                n: self.n,
                p: 1.0 - self.p,
            };
            return self.n - mirrored.sample(rng);
        }
        if self.mean() <= 30.0 {
            return self.sample_binv(rng);
        }
        // Exact inversion through the quantile function.
        let u = rng.next_f64();
        self.quantile(u.max(f64::MIN_POSITIVE))
            .expect("binomial quantile cannot fail for valid parameters")
    }

    /// Draws one sample conditioned on at least one success, i.e. from
    /// `X | X ≥ 1`.
    ///
    /// Together with the geometric gap to the first success (success
    /// probability [`Binomial::prob_positive`]) this supports
    /// quiet-round fast-forwarding: instead of sampling every round's
    /// block count, sample the geometric gap to the next round with a
    /// success and then the conditional count for that round. The pair
    /// `(gap, sample_positive)` is distributed exactly as the sequence
    /// of per-round samples restricted to its first non-zero entry.
    ///
    /// # Panics
    ///
    /// Panics if `P[X ≥ 1] = 0` (`n == 0` or `p == 0`), where the
    /// conditional distribution does not exist.
    pub fn sample_positive<R: RandomSource + ?Sized>(&self, rng: &mut R) -> u64 {
        assert!(
            self.n > 0 && self.p > 0.0,
            "X | X >= 1 undefined for binom({}, {})",
            self.n,
            self.p
        );
        if self.p == 1.0 {
            return self.n;
        }
        let q0 = self.prob_zero();
        // When a zero round is likely, truncated BINV from k = 1 is
        // cheap and exact. When zeros are rare (q0 tiny), rejection on
        // the unconditional sampler almost never rejects.
        if q0 >= 1e-3 {
            let r1 = self.pmf(1) / self.prob_positive();
            if r1 > 0.0 && r1.is_finite() {
                return sample_positive_binv(self.n, self.p, r1, rng);
            }
        }
        loop {
            let k = self.sample(rng);
            if k > 0 {
                return k;
            }
        }
    }

    /// BINV (inverse transform by sequential search from k = 0).
    fn sample_binv<R: RandomSource + ?Sized>(&self, rng: &mut R) -> u64 {
        let q = 1.0 - self.p;
        let s = self.p / q;
        let a = (self.n + 1) as f64 * s;
        let mut r = self.ln_prob_zero().exp();
        // Underflow guard: if (1-p)^n underflows, fall back to quantile
        // inversion (only reachable when np is large, excluded by caller,
        // but kept for defence in depth).
        if r <= 0.0 {
            let u = rng.next_f64();
            return self
                .quantile(u.max(f64::MIN_POSITIVE))
                .expect("binomial quantile cannot fail for valid parameters");
        }
        let mut u = rng.next_f64();
        let mut k = 0u64;
        loop {
            if u < r {
                return k;
            }
            u -= r;
            k += 1;
            if k > self.n {
                // Floating-point leakage past the support: clamp.
                return self.n;
            }
            r *= a / k as f64 - s;
        }
    }
}

/// Truncated BINV over `k ∈ {1, …, n}` with precomputed first mass
/// `r1 = P[X = 1 | X ≥ 1]` — the reference implementation backing
/// [`Binomial::sample_positive`]. (`nakamoto_sim`'s mining oracle keeps
/// its own copy of this recurrence with a per-run ratio cache; its
/// correctness is pinned to this one by the oracle's statistical
/// tests.)
pub fn sample_positive_binv<R: RandomSource + ?Sized>(n: u64, p: f64, r1: f64, rng: &mut R) -> u64 {
    let q = 1.0 - p;
    let s = p / q;
    let a = (n + 1) as f64 * s;
    let mut r = r1;
    let mut u = rng.next_f64();
    let mut k = 1u64;
    loop {
        if u < r {
            return k;
        }
        u -= r;
        k += 1;
        if k > n {
            // Floating-point leakage past the support: clamp.
            return n;
        }
        r *= a / k as f64 - s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256PlusPlus;

    impl Binomial {
        /// Survival function `P[X > k] = 1 - cdf(k)`, computed from the
        /// complementary incomplete beta to avoid cancellation in deep
        /// tails: the independent tail the `cdf` and tail-bound tests
        /// check against.
        pub(crate) fn sf(&self, k: u64) -> Result<f64> {
            if k >= self.n {
                return Ok(0.0);
            }
            if self.p == 0.0 {
                return Ok(0.0);
            }
            if self.p == 1.0 {
                return Ok(1.0);
            }
            if self.n <= 64 {
                let mut acc = 0.0;
                for j in (k + 1)..=self.n {
                    acc += self.pmf(j);
                }
                return Ok(acc.min(1.0));
            }
            // P[X ≥ k+1] = I_p(k+1, n-k).
            reg_inc_beta(k as f64 + 1.0, (self.n - k) as f64, self.p)
        }
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn rejects_bad_p() {
        assert!(Binomial::new(10, -0.1).is_err());
        assert!(Binomial::new(10, 1.1).is_err());
        assert!(Binomial::new(10, f64::NAN).is_err());
    }

    #[test]
    fn pmf_sums_to_one_small_n() {
        for &p in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            let d = Binomial::new(12, p).unwrap();
            let total: f64 = (0..=12).map(|k| d.pmf(k)).sum();
            assert!(close(total, 1.0, 1e-12), "p={p} total={total}");
        }
    }

    #[test]
    fn pmf_known_values() {
        let d = Binomial::new(4, 0.5).unwrap();
        assert!(close(d.pmf(0), 0.0625, 1e-14));
        assert!(close(d.pmf(2), 0.375, 1e-14));
        assert_eq!(d.pmf(5), 0.0);
    }

    #[test]
    fn moments() {
        let d = Binomial::new(100, 0.3).unwrap();
        assert!(close(d.mean(), 30.0, 1e-14));
        let variance: f64 = (0..=100)
            .map(|k| (k as f64 - 30.0).powi(2) * d.pmf(k))
            .sum();
        assert!(close(variance, 21.0, 1e-12), "variance {variance}");
    }

    #[test]
    fn paper_alpha_quantities_consistent() {
        // α = P[X>0], ᾱ = P[X=0], α₁ = P[X=1] with X ~ binom(µn, p).
        let mu_n = 90_000u64;
        let p = 1e-9;
        let d = Binomial::new(mu_n, p).unwrap();
        let alpha_bar = d.prob_zero();
        let alpha = d.prob_positive();
        let alpha1 = d.pmf(1);
        assert!(close(alpha + alpha_bar, 1.0, 1e-12));
        // α₁ = pµn(1-p)^{µn-1}.
        let expected_alpha1 = p * mu_n as f64 * ((mu_n - 1) as f64 * (-p).ln_1p()).exp();
        assert!(close(alpha1, expected_alpha1, 1e-10));
        // For tiny p, α ≈ µnp.
        assert!(close(alpha, mu_n as f64 * p, 1e-4));
    }

    #[test]
    fn prob_positive_no_cancellation() {
        // p so small that 1-(1-p)^n cancels in naive arithmetic.
        let d = Binomial::new(1000, 1e-18).unwrap();
        let naive = 1.0 - (1.0 - 1e-18f64).powi(1000);
        assert_eq!(naive, 0.0, "sanity: naive computation underflows");
        assert!(close(d.prob_positive(), 1000.0 * 1e-18, 1e-9));
    }

    #[test]
    fn cdf_matches_direct_sum_large_n() {
        let d = Binomial::new(500, 0.02).unwrap();
        for k in [0u64, 1, 5, 10, 20, 100] {
            let direct: f64 = (0..=k).map(|j| d.pmf(j)).sum();
            let via_beta = d.cdf(k).unwrap();
            assert!(
                close(direct, via_beta, 1e-10),
                "k={k}: {direct} vs {via_beta}"
            );
        }
    }

    #[test]
    fn cdf_sf_complementary() {
        let d = Binomial::new(200, 0.1).unwrap();
        for k in [0u64, 3, 19, 20, 21, 50, 199, 200] {
            let c = d.cdf(k).unwrap();
            let s = d.sf(k).unwrap();
            assert!(close(c + s, 1.0, 1e-10), "k={k}");
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Binomial::new(300, 0.25).unwrap();
        for &q in &[1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-9] {
            let k = d.quantile(q).unwrap();
            assert!(d.cdf(k).unwrap() >= q);
            if k > 0 {
                assert!(d.cdf(k - 1).unwrap() < q);
            }
        }
    }

    #[test]
    fn degenerate_distributions() {
        let zero = Binomial::new(50, 0.0).unwrap();
        let one = Binomial::new(50, 1.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0);
        assert_eq!(zero.sample(&mut rng), 0);
        assert_eq!(one.sample(&mut rng), 50);
        assert_eq!(zero.pmf(0), 1.0);
        assert_eq!(one.pmf(50), 1.0);
        assert_eq!(one.prob_zero(), 0.0);
    }

    #[test]
    fn sampling_mean_matches_binv_regime() {
        let d = Binomial::new(10_000, 0.001).unwrap(); // np = 10 → BINV
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
        let trials = 20_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            sum += d.sample(&mut rng);
        }
        let mean = sum as f64 / trials as f64;
        // σ/√trials ≈ 0.022; allow 6σ.
        assert!((mean - 10.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn sampling_mean_matches_quantile_regime() {
        let d = Binomial::new(10_000, 0.02).unwrap(); // np = 200 → quantile path
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(43);
        let trials = 2_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            let s = d.sample(&mut rng);
            assert!(s <= 10_000);
            sum += s;
        }
        let mean = sum as f64 / trials as f64;
        // σ = 14, σ/√trials ≈ 0.31; allow 6σ.
        assert!((mean - 200.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn sampling_symmetric_p_above_half() {
        let d = Binomial::new(1_000, 0.97).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(44);
        let trials = 5_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            sum += d.sample(&mut rng);
        }
        let mean = sum as f64 / trials as f64;
        assert!((mean - 970.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn sample_positive_matches_conditional_pmf() {
        // Rare-success regime: q0 large, truncated-BINV path.
        let d = Binomial::new(100, 1e-2).unwrap(); // np = 1
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(46);
        let trials = 200_000;
        let mut counts = [0u64; 8];
        for _ in 0..trials {
            let k = d.sample_positive(&mut rng);
            assert!(
                (1..=100).contains(&k),
                "k = {k} outside conditional support"
            );
            counts[(k as usize).min(7)] += 1;
        }
        let p_pos = d.prob_positive();
        for k in 1..=6u64 {
            let freq = counts[k as usize] as f64 / trials as f64;
            let expected = d.pmf(k) / p_pos;
            assert!(
                (freq - expected).abs() < 0.01,
                "k={k} freq={freq} expected={expected}"
            );
        }
    }

    #[test]
    fn sample_positive_rejection_regime() {
        // Common-success regime: q0 tiny, rejection path.
        let d = Binomial::new(10_000, 0.02).unwrap(); // np = 200
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(47);
        let mut sum = 0u64;
        let trials = 2_000;
        for _ in 0..trials {
            let k = d.sample_positive(&mut rng);
            assert!(k >= 1);
            sum += k;
        }
        let mean = sum as f64 / trials as f64;
        assert!((mean - 200.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn sample_positive_rejects_impossible_success() {
        let d = Binomial::new(10, 0.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0);
        d.sample_positive(&mut rng);
    }

    #[test]
    fn gap_geometric_mean_is_inverse_alpha() {
        let d = Binomial::new(1_000, 1e-3).unwrap();
        let g = crate::geometric::Geometric::new(d.prob_positive()).unwrap();
        assert!((g.p() - d.prob_positive()).abs() < 1e-15);
        assert!((g.mean() - 1.0 / d.prob_positive()).abs() < 1e-9);
        for empty in [
            Binomial::new(0, 0.5).unwrap(),
            Binomial::new(5, 0.0).unwrap(),
        ] {
            assert!(crate::geometric::Geometric::new(empty.prob_positive()).is_err());
        }
    }

    #[test]
    fn small_n_direct_sampling_exactness() {
        let d = Binomial::new(8, 0.5).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(45);
        let trials = 100_000;
        let mut counts = [0u64; 9];
        for _ in 0..trials {
            counts[d.sample(&mut rng) as usize] += 1;
        }
        for k in 0..=8u64 {
            let freq = counts[k as usize] as f64 / trials as f64;
            assert!(
                (freq - d.pmf(k)).abs() < 0.01,
                "k={k} freq={freq} pmf={}",
                d.pmf(k)
            );
        }
    }
}

// Deterministic randomized sweeps (in-tree RNG; proptest is unavailable
// in the offline build environment).
#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::rng::{RandomSource, SplitMix64};

    const CASES: usize = 256;

    #[test]
    fn pmf_nonnegative_and_at_most_one() {
        let mut rng = SplitMix64::new(0xB1_01);
        for _ in 0..CASES {
            let n = rng.next_below(2_000);
            let p = rng.next_f64();
            let k = rng.next_below(2_500);
            let d = Binomial::new(n, p).unwrap();
            let v = d.pmf(k);
            assert!(
                (0.0..=1.0 + 1e-12).contains(&v),
                "pmf out of range: n={n} p={p} k={k} v={v}"
            );
        }
    }

    #[test]
    fn cdf_monotone() {
        let mut rng = SplitMix64::new(0xB1_02);
        for _ in 0..CASES {
            let n = rng.next_range(1, 499);
            let p = 0.001 + rng.next_f64() * 0.998;
            let k = rng.next_below(499);
            let d = Binomial::new(n, p).unwrap();
            let a = d.cdf(k).unwrap();
            let b = d.cdf(k + 1).unwrap();
            assert!(b + 1e-12 >= a, "cdf not monotone: n={n} p={p} k={k}");
        }
    }

    #[test]
    fn alpha_identity() {
        // α + ᾱ = 1 must hold to high precision in all regimes.
        let mut rng = SplitMix64::new(0xB1_03);
        for _ in 0..CASES {
            let n = rng.next_range(1, 99_999);
            // log-uniform p in [1e-12, 0.5).
            let p = 1e-12 * (0.5 / 1e-12f64).powf(rng.next_f64());
            let d = Binomial::new(n, p).unwrap();
            let s = d.prob_positive() + d.prob_zero();
            assert!(
                (s - 1.0).abs() < 1e-12,
                "identity broken: n={n} p={p} s={s}"
            );
        }
    }

    #[test]
    fn positive_samples_within_conditional_support() {
        let mut rng = SplitMix64::new(0xB1_05);
        for _ in 0..CASES {
            let n = rng.next_range(1, 500);
            // log-uniform p in [1e-6, 1).
            let p = 1e-6 * (1.0 / 1e-6f64).powf(rng.next_f64() * 0.999);
            let seed = rng.next_below(1_000);
            let d = Binomial::new(n, p).unwrap();
            let mut sample_rng = crate::rng::Xoshiro256PlusPlus::seed_from_u64(seed);
            let s = d.sample_positive(&mut sample_rng);
            assert!(
                (1..=n).contains(&s),
                "conditional sample outside support: n={n} p={p} s={s}"
            );
        }
    }

    #[test]
    fn samples_within_support() {
        let mut rng = SplitMix64::new(0xB1_04);
        for _ in 0..CASES {
            let n = rng.next_below(300);
            let p = rng.next_f64();
            let seed = rng.next_below(1_000);
            let d = Binomial::new(n, p).unwrap();
            let mut sample_rng = crate::rng::Xoshiro256PlusPlus::seed_from_u64(seed);
            let s = d.sample(&mut sample_rng);
            assert!(s <= n, "sample outside support: n={n} p={p} s={s}");
        }
    }
}
