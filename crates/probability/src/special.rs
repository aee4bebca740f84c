//! Special functions: log-gamma, log-factorial, log-binomial-coefficient,
//! the regularized incomplete beta function, and the error function.
//!
//! All routines are pure `f64` with accuracy targets of ~1e-12 relative
//! error over the parameter ranges exercised by this workspace (binomial
//! CDFs with `n ≤ 10⁷`).

use crate::{Error, Result};

/// Lanczos coefficients (g = 7, n = 9), standard double-precision set.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function `ln Γ(x)` for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`.
///
/// # Examples
///
/// ```
/// use probability::special::ln_gamma;
/// assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12); // Γ(5) = 4!
/// ```
///
/// # Panics
///
/// Panics if `x ≤ 0` (poles of Γ are not supported).
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Cached `ln(k!)` for `k ≤ 255`, built lazily on first use.
fn ln_factorial_small(k: usize) -> f64 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = Vec::with_capacity(256);
        let mut acc = 0.0f64;
        t.push(0.0);
        for i in 1..256u64 {
            acc += (i as f64).ln();
            t.push(acc);
        }
        t
    });
    table[k]
}

/// Natural logarithm of the factorial `ln(k!)`.
///
/// Exact (cached) for `k < 256`; `ln Γ(k+1)` otherwise.
///
/// ```
/// use probability::special::ln_factorial;
/// assert_eq!(ln_factorial(0), 0.0);
/// assert!((ln_factorial(10) - 3628800f64.ln()).abs() < 1e-12);
/// ```
#[must_use]
pub fn ln_factorial(k: u64) -> f64 {
    if k < 256 {
        ln_factorial_small(k as usize)
    } else {
        ln_gamma(k as f64 + 1.0)
    }
}

/// Natural logarithm of the binomial coefficient `ln C(n, k)`.
///
/// Returns `-inf` for `k > n` (the coefficient is zero).
///
/// ```
/// use probability::special::ln_choose;
/// assert!((ln_choose(10, 3) - 120f64.ln()).abs() < 1e-12);
/// assert_eq!(ln_choose(3, 10), f64::NEG_INFINITY);
/// ```
#[must_use]
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// `ln(1 + x)` accurate for tiny `|x|`; thin wrapper kept for discoverability.
#[inline]
#[must_use]
pub fn ln_1p(x: f64) -> f64 {
    x.ln_1p()
}

/// Numerically stable `ln(1 - exp(x))` for `x < 0`.
///
/// Used to compute `ln α = ln(1 - ᾱ)` from `ln ᾱ` without catastrophic
/// cancellation when `ᾱ` is close to 0 or 1.
///
/// # Panics
///
/// Panics if `x ≥ 0` (the argument of the outer log would be non-positive).
#[must_use]
pub fn ln_1m_exp(x: f64) -> f64 {
    assert!(x < 0.0, "ln_1m_exp requires x < 0, got {x}");
    // Split at ln(1/2) per Mächler (2012).
    if x > -std::f64::consts::LN_2 {
        (-x.exp_m1()).ln()
    } else {
        (-x.exp()).ln_1p()
    }
}

/// Maximum iterations for the incomplete-beta continued fraction.
const BETA_CF_MAX_ITER: usize = 400;
const BETA_CF_EPS: f64 = 1e-15;

/// Continued-fraction evaluation for the regularized incomplete beta
/// function (Lentz's algorithm, as in Numerical Recipes `betacf`).
fn beta_cont_frac(a: f64, b: f64, x: f64) -> Result<f64> {
    let tiny = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0f64;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < tiny {
        d = tiny;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=BETA_CF_MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = 1.0 + aa / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = 1.0 + aa / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < BETA_CF_EPS {
            return Ok(h);
        }
    }
    Err(Error::NoConvergence {
        procedure: "incomplete_beta",
        iterations: BETA_CF_MAX_ITER,
    })
}

/// Regularized incomplete beta function `I_x(a, b)` for `a, b > 0`,
/// `x ∈ [0, 1]`.
///
/// This is the CDF of the Beta(a, b) distribution and yields exact binomial
/// tails through `P[X ≥ k] = I_p(k, n-k+1)`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when a parameter is out of domain and
/// [`Error::NoConvergence`] if the continued fraction stalls (not observed
/// in practice for the ranges used here).
///
/// ```
/// use probability::special::reg_inc_beta;
/// // I_x(1, 1) is the identity.
/// assert!((reg_inc_beta(1.0, 1.0, 0.3)? - 0.3).abs() < 1e-14);
/// # Ok::<(), probability::Error>(())
/// ```
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> Result<f64> {
    if !(a > 0.0) || !a.is_finite() {
        return Err(Error::invalid(
            "a",
            format!("must be finite and > 0, got {a}"),
        ));
    }
    if !(b > 0.0) || !b.is_finite() {
        return Err(Error::invalid(
            "b",
            format!("must be finite and > 0, got {b}"),
        ));
    }
    if !(0.0..=1.0).contains(&x) {
        return Err(Error::invalid("x", format!("must lie in [0, 1], got {x}")));
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x == 1.0 {
        return Ok(1.0);
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (-x).ln_1p();
    // Use the symmetry relation to keep the continued fraction convergent.
    if x < (a + 1.0) / (a + b + 2.0) {
        Ok(ln_front.exp() * beta_cont_frac(a, b, x)? / a)
    } else {
        Ok(1.0 - ln_front.exp() * beta_cont_frac(b, a, 1.0 - x)? / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())),
            "expected {a} ≈ {b} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_integers_match_factorials() {
        let mut fact = 1.0f64;
        for k in 1u64..=20 {
            assert_close(ln_gamma(k as f64), fact.ln(), 1e-13);
            fact *= k as f64;
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π.
        assert_close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-13);
        // Γ(3/2) = √π / 2.
        assert_close(
            ln_gamma(1.5),
            0.5 * std::f64::consts::PI.ln() - std::f64::consts::LN_2,
            1e-13,
        );
    }

    #[test]
    fn ln_gamma_reflection_region() {
        // Γ(0.25) ≈ 3.625609908.
        assert_close(ln_gamma(0.25), 3.625_609_908_221_908f64.ln(), 1e-10);
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn ln_factorial_crosses_table_boundary() {
        // Consistency between the cached table and the ln_gamma branch.
        let a = ln_factorial(255);
        let b = ln_gamma(256.0);
        assert_close(a, b, 1e-12);
        let c = ln_factorial(256);
        assert_close(c, b + 256f64.ln(), 1e-12);
    }

    #[test]
    fn ln_choose_symmetry_and_pascal() {
        for n in 0u64..40 {
            for k in 0..=n {
                assert_close(ln_choose(n, k), ln_choose(n, n - k), 1e-11);
            }
        }
        // Pascal: C(n, k) = C(n-1, k-1) + C(n-1, k) — check in linear space.
        for n in 1u64..30 {
            for k in 1..n {
                let lhs = ln_choose(n, k).exp();
                let rhs = ln_choose(n - 1, k - 1).exp() + ln_choose(n - 1, k).exp();
                assert_close(lhs, rhs, 1e-10);
            }
        }
    }

    #[test]
    fn ln_1m_exp_matches_naive_where_safe() {
        for &x in &[-0.01f64, -0.5, -1.0, -5.0, -30.0] {
            let naive = (1.0 - x.exp()).ln();
            assert_close(ln_1m_exp(x), naive, 1e-12);
        }
    }

    #[test]
    fn ln_1m_exp_tiny_argument() {
        // For x = -1e-15, 1 - e^x ≈ 1e-15; ln ≈ -34.54.
        let v = ln_1m_exp(-1e-15);
        assert_close(v, (1e-15f64).ln(), 1e-6);
    }

    #[test]
    fn reg_inc_beta_uniform_identity() {
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            assert_close(reg_inc_beta(1.0, 1.0, x).unwrap(), x, 1e-13);
        }
    }

    #[test]
    fn reg_inc_beta_symmetry() {
        // I_x(a,b) = 1 - I_{1-x}(b,a).
        for &(a, b, x) in &[(2.0, 5.0, 0.3), (10.0, 3.0, 0.7), (0.5, 0.5, 0.2)] {
            let lhs = reg_inc_beta(a, b, x).unwrap();
            let rhs = 1.0 - reg_inc_beta(b, a, 1.0 - x).unwrap();
            assert_close(lhs, rhs, 1e-12);
        }
    }

    #[test]
    fn reg_inc_beta_known_value() {
        // I_{0.5}(2, 2) = 0.5 by symmetry; I_{0.25}(2,2) = 3x² - 2x³ at 0.25.
        assert_close(reg_inc_beta(2.0, 2.0, 0.5).unwrap(), 0.5, 1e-12);
        let x: f64 = 0.25;
        assert_close(
            reg_inc_beta(2.0, 2.0, x).unwrap(),
            3.0 * x * x - 2.0 * x * x * x,
            1e-12,
        );
    }

    #[test]
    fn reg_inc_beta_rejects_bad_domain() {
        assert!(reg_inc_beta(0.0, 1.0, 0.5).is_err());
        assert!(reg_inc_beta(1.0, -1.0, 0.5).is_err());
        assert!(reg_inc_beta(1.0, 1.0, 1.5).is_err());
    }
}
