//! Tail bounds: relative entropy and the Arratia–Gordon binomial bound
//! used in the paper's Inequality (49).
//!
//! The paper bounds the adversary's block count `A(t₀, t₀+T−1) ~
//! binom(Tνn, p)` above its mean via (Eq. 48–49):
//!
//! ```text
//! P[A ≥ (1+δ₃)·E[A]] ≤ exp(−Tνn · D((1+δ₃)p ‖ p))
//! ```

use crate::{Error, Result};

/// Bernoulli relative entropy (KL divergence)
/// `D(a‖p) = a·ln(a/p) + (1−a)·ln((1−a)/(1−p))` in nats.
///
/// Conventions: terms with `a ∈ {0, 1}` use `0·ln 0 = 0`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] unless `a ∈ [0, 1]` and `p ∈ (0, 1)`.
///
/// ```
/// use probability::chernoff::relative_entropy;
/// assert_eq!(relative_entropy(0.5, 0.5)?, 0.0);
/// assert!(relative_entropy(0.9, 0.5)? > 0.0);
/// # Ok::<(), probability::Error>(())
/// ```
pub fn relative_entropy(a: f64, p: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&a) || a.is_nan() {
        return Err(Error::invalid("a", format!("must lie in [0, 1], got {a}")));
    }
    if !(p > 0.0 && p < 1.0) || p.is_nan() {
        return Err(Error::invalid("p", format!("must lie in (0, 1), got {p}")));
    }
    let term1 = if a == 0.0 { 0.0 } else { a * (a / p).ln() };
    let term2 = if a == 1.0 {
        0.0
    } else {
        (1.0 - a) * ((1.0 - a).ln() - (-p).ln_1p())
    };
    Ok((term1 + term2).max(0.0))
}

/// The paper's Eq. (48): relative entropy between `Bernoulli((1+δ)p)` and
/// `Bernoulli(p)`, written exactly as in the paper:
///
/// `D((1+δ)p‖p) = (1+δ)p·ln(1+δ) + (1−(1+δ)p)·ln((1−(1+δ)p)/(1−p))`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] unless `δ ≥ 0`, `p ∈ (0, 1)` and
/// `(1+δ)p ≤ 1`.
pub fn relative_entropy_scaled(delta: f64, p: f64) -> Result<f64> {
    if !(delta >= 0.0) || delta.is_nan() {
        return Err(Error::invalid("delta", format!("must be ≥ 0, got {delta}")));
    }
    let a = (1.0 + delta) * p;
    if a > 1.0 {
        return Err(Error::invalid(
            "delta",
            format!("(1+delta)p = {a} exceeds 1"),
        ));
    }
    relative_entropy(a, p)
}

/// The paper's Inequality (49): for `A ~ binom(Tνn, p)` and constant
/// `δ₃ > 0`,
/// `P[A ≥ (1+δ₃)·E[A]] ≤ exp(−Tνn·D((1+δ₃)p‖p))`.
///
/// Returns the bound value.
///
/// # Errors
///
/// Propagates domain errors from [`relative_entropy_scaled`].
pub fn adversary_tail_bound(t_nu_n: u64, p: f64, delta3: f64) -> Result<f64> {
    let d = relative_entropy_scaled(delta3, p)?;
    Ok((-(t_nu_n as f64) * d).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::Binomial;

    /// Multiplicative Chernoff upper bound:
    /// `P[X ≥ (1+δ)µ] ≤ exp(−δ²µ/(2+δ))` for `δ > 0`, `µ = np`: the
    /// weaker companion the entropy bound is checked against.
    fn chernoff_upper(mean: f64, delta: f64) -> f64 {
        assert!(delta >= 0.0 && mean >= 0.0);
        (-(delta * delta) * mean / (2.0 + delta)).exp()
    }

    /// Multiplicative Chernoff lower bound:
    /// `P[X ≤ (1−δ)µ] ≤ exp(−δ²µ/2)` for `δ ∈ [0, 1]`.
    fn chernoff_lower(mean: f64, delta: f64) -> f64 {
        assert!((0.0..=1.0).contains(&delta) && mean >= 0.0);
        (-(delta * delta) * mean / 2.0).exp()
    }

    #[test]
    fn relative_entropy_zero_iff_equal() {
        for &p in &[0.01, 0.3, 0.5, 0.9] {
            assert_eq!(relative_entropy(p, p).unwrap(), 0.0);
        }
        assert!(relative_entropy(0.4, 0.3).unwrap() > 0.0);
        assert!(relative_entropy(0.2, 0.3).unwrap() > 0.0);
    }

    #[test]
    fn relative_entropy_boundary_a() {
        // a = 0: D = ln(1/(1-p)).
        let p = 0.25f64;
        let d0 = relative_entropy(0.0, p).unwrap();
        assert!((d0 - (-(-p).ln_1p())).abs() < 1e-12);
        // a = 1: D = ln(1/p).
        let d1 = relative_entropy(1.0, p).unwrap();
        assert!((d1 - (1.0 / p).ln()).abs() < 1e-12);
    }

    #[test]
    fn relative_entropy_rejects_bad_domain() {
        assert!(relative_entropy(-0.1, 0.5).is_err());
        assert!(relative_entropy(0.5, 0.0).is_err());
        assert!(relative_entropy(0.5, 1.0).is_err());
    }

    #[test]
    fn scaled_entropy_matches_direct() {
        let p = 0.01;
        let delta = 0.5;
        let a = relative_entropy_scaled(delta, p).unwrap();
        let b = relative_entropy((1.0 + delta) * p, p).unwrap();
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn scaled_entropy_rejects_overflow_probability() {
        assert!(relative_entropy_scaled(200.0, 0.01).is_err());
    }

    #[test]
    fn upper_tail_bound_dominates_exact_tail() {
        // Ineq. (49)'s bound at (1+δ)p = a must be ≥ the exact binomial
        // tail P[X ≥ a·n].
        let n = 200u64;
        let p = 0.1;
        let d = Binomial::new(n, p).unwrap();
        for &a in &[0.15, 0.2, 0.3, 0.5] {
            let k = (a * n as f64).ceil() as u64;
            let exact = d.sf(k - 1).unwrap(); // P[X ≥ k]
            let bound = adversary_tail_bound(n, p, a / p - 1.0).unwrap();
            assert!(
                bound + 1e-12 >= exact,
                "a={a}: bound {bound} < exact {exact}"
            );
        }
    }

    #[test]
    fn lower_tail_bound_dominates_exact_tail() {
        // The Arratia–Gordon lower tail, P[X ≤ a·n] ≤ exp(−n·D(a‖p))
        // for a ≤ p, checks `relative_entropy` below the mean.
        let n = 200u64;
        let p = 0.5;
        let d = Binomial::new(n, p).unwrap();
        for &a in &[0.45, 0.4, 0.3, 0.1] {
            let k = (a * n as f64).floor() as u64;
            let exact = d.cdf(k).unwrap(); // P[X ≤ k]
            let bound = (-(n as f64) * relative_entropy(a, p).unwrap()).exp();
            assert!(
                bound + 1e-12 >= exact,
                "a={a}: bound {bound} < exact {exact}"
            );
        }
    }

    #[test]
    fn adversary_bound_decays_exponentially_in_t() {
        // Paper Ineq. (49): doubling T squares the bound (in log scale).
        let p = 1e-6;
        let nu_n = 10_000u64;
        let delta3 = 0.5;
        let b1 = adversary_tail_bound(1_000 * nu_n, p, delta3).unwrap();
        let b2 = adversary_tail_bound(2_000 * nu_n, p, delta3).unwrap();
        assert!((b2.ln() - 2.0 * b1.ln()).abs() < 1e-9 * b1.ln().abs());
        assert!(b2 < b1);
    }

    #[test]
    fn chernoff_bounds_trivial_cases() {
        assert_eq!(chernoff_upper(10.0, 0.0), 1.0);
        assert_eq!(chernoff_lower(10.0, 0.0), 1.0);
        assert!(chernoff_upper(100.0, 1.0) < 1e-14);
        assert!(chernoff_lower(100.0, 1.0) < 1e-21);
    }

    #[test]
    fn entropy_bound_tighter_than_chernoff_upper() {
        // D((1+δ)p‖p)·n ≥ δ²np/(2+δ) for binomials (entropy bound is
        // uniformly at least as strong).
        let n = 10_000u64;
        let p = 0.01;
        for &delta in &[0.1, 0.5, 1.0, 3.0] {
            let entropy = adversary_tail_bound(n, p, delta).unwrap();
            let chernoff = chernoff_upper(n as f64 * p, delta);
            assert!(
                entropy <= chernoff * (1.0 + 1e-9),
                "delta={delta}: entropy {entropy} > chernoff {chernoff}"
            );
        }
    }
}
