//! [`LogFloat`]: a non-negative real number stored as its natural logarithm.
//!
//! The paper's central quantity `ᾱ^{2Δ}·α₁` with `Δ = 10¹³` underflows
//! `f64` catastrophically in linear space (`ᾱ^{2Δ} = exp(2Δ·µn·ln(1-p))`
//! can be `exp(-10⁸)` or smaller in parameter sweeps). The bound
//! computations in `consistency_core` keep such quantities as plain
//! `f64` logarithms, so this module is compiled only under `cfg(test)`,
//! where its tests pin the log-space arithmetic.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign};

/// A non-negative real number represented by its natural logarithm.
///
/// `LogFloat::ZERO` is represented by `ln = -inf`. Multiplication and
/// division are exact (log addition); addition uses log-sum-exp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogFloat {
    ln: f64,
}

impl LogFloat {
    /// The number zero (`ln = -inf`).
    pub const ZERO: LogFloat = LogFloat {
        ln: f64::NEG_INFINITY,
    };
    /// The number one (`ln = 0`).
    pub const ONE: LogFloat = LogFloat { ln: 0.0 };

    /// Creates a `LogFloat` from a linear-space value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or NaN.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(
            value >= 0.0 && !value.is_nan(),
            "LogFloat requires a non-negative value, got {value}"
        );
        LogFloat { ln: value.ln() }
    }

    /// Creates a `LogFloat` directly from its natural logarithm.
    ///
    /// # Panics
    ///
    /// Panics if `ln_value` is NaN or `+inf`.
    #[must_use]
    pub fn from_ln(ln_value: f64) -> Self {
        assert!(
            !ln_value.is_nan() && ln_value != f64::INFINITY,
            "LogFloat logarithm must be finite or -inf, got {ln_value}"
        );
        LogFloat { ln: ln_value }
    }

    /// The natural logarithm of the value (`-inf` for zero).
    #[inline]
    #[must_use]
    pub fn ln(self) -> f64 {
        self.ln
    }

    /// Returns `true` iff the value is exactly zero.
    #[inline]
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.ln == f64::NEG_INFINITY
    }

    /// Integer power (exact in log space).
    #[must_use]
    pub fn powi(self, exponent: i64) -> Self {
        if self.is_zero() {
            assert!(exponent > 0, "0^e undefined for e ≤ 0 in LogFloat::powi");
            return LogFloat::ZERO;
        }
        LogFloat {
            ln: self.ln * exponent as f64,
        }
    }

    /// Real power for non-negative exponents (and any exponent when the
    /// base is positive).
    #[must_use]
    pub fn powf(self, exponent: f64) -> Self {
        if self.is_zero() {
            assert!(exponent > 0.0, "0^e undefined for e ≤ 0 in LogFloat::powf");
            return LogFloat::ZERO;
        }
        LogFloat {
            ln: self.ln * exponent,
        }
    }

    /// `max(self - other, 0)` computed stably in log space.
    ///
    /// Returns [`LogFloat::ZERO`] when `other ≥ self`; callers that need
    /// signed differences should work in linear space.
    #[must_use]
    pub fn saturating_sub(self, other: LogFloat) -> LogFloat {
        if other.ln >= self.ln {
            return LogFloat::ZERO;
        }
        if other.is_zero() {
            return self;
        }
        // self - other = self * (1 - other/self); other/self < 1.
        let ratio_ln = other.ln - self.ln; // < 0
        LogFloat {
            ln: self.ln + crate::special::ln_1m_exp(ratio_ln),
        }
    }
}

impl Default for LogFloat {
    fn default() -> Self {
        LogFloat::ZERO
    }
}

impl From<f64> for LogFloat {
    fn from(value: f64) -> Self {
        LogFloat::new(value)
    }
}

impl fmt::Display for LogFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            write!(f, "0")
        } else if self.ln.abs() < 700.0 {
            write!(f, "{}", self.ln.exp())
        } else {
            write!(f, "exp({})", self.ln)
        }
    }
}

impl PartialOrd for LogFloat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.ln.partial_cmp(&other.ln)
    }
}

impl Mul for LogFloat {
    type Output = LogFloat;
    fn mul(self, rhs: LogFloat) -> LogFloat {
        if self.is_zero() || rhs.is_zero() {
            return LogFloat::ZERO;
        }
        LogFloat {
            ln: self.ln + rhs.ln,
        }
    }
}

impl MulAssign for LogFloat {
    fn mul_assign(&mut self, rhs: LogFloat) {
        *self = *self * rhs;
    }
}

impl Div for LogFloat {
    type Output = LogFloat;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: LogFloat) -> LogFloat {
        assert!(!rhs.is_zero(), "LogFloat division by zero");
        if self.is_zero() {
            return LogFloat::ZERO;
        }
        LogFloat {
            ln: self.ln - rhs.ln,
        }
    }
}

impl DivAssign for LogFloat {
    fn div_assign(&mut self, rhs: LogFloat) {
        *self = *self / rhs;
    }
}

impl Add for LogFloat {
    type Output = LogFloat;
    /// Log-sum-exp addition: exact to f64 rounding.
    fn add(self, rhs: LogFloat) -> LogFloat {
        if self.is_zero() {
            return rhs;
        }
        if rhs.is_zero() {
            return self;
        }
        let (hi, lo) = if self.ln >= rhs.ln {
            (self.ln, rhs.ln)
        } else {
            (rhs.ln, self.ln)
        };
        LogFloat {
            ln: hi + (lo - hi).exp().ln_1p(),
        }
    }
}

impl AddAssign for LogFloat {
    fn add_assign(&mut self, rhs: LogFloat) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for LogFloat {
    fn sum<I: Iterator<Item = LogFloat>>(iter: I) -> LogFloat {
        iter.fold(LogFloat::ZERO, |acc, x| acc + x)
    }
}

impl std::iter::Product for LogFloat {
    fn product<I: Iterator<Item = LogFloat>>(iter: I) -> LogFloat {
        iter.fold(LogFloat::ONE, |acc, x| acc * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LogFloat {
        /// The value in linear space (may underflow to `0.0` or
        /// overflow to `+inf`).
        fn to_f64(self) -> f64 {
            self.ln.exp()
        }
    }

    #[test]
    fn zero_and_one_constants() {
        assert!(LogFloat::ZERO.is_zero());
        assert_eq!(LogFloat::ONE.to_f64(), 1.0);
        assert_eq!(LogFloat::default(), LogFloat::ZERO);
    }

    #[test]
    fn roundtrip_linear() {
        for &v in &[0.0, 1e-300, 0.25, 1.0, 3.5, 1e300] {
            let lf = LogFloat::new(v);
            assert!((lf.to_f64() - v).abs() <= 1e-12 * v.max(1e-300));
        }
    }

    #[test]
    fn multiplication_below_f64_range() {
        let a = LogFloat::from_ln(-5000.0);
        let b = LogFloat::from_ln(-7000.0);
        assert_eq!((a * b).ln(), -12000.0);
        assert_eq!((a / b).ln(), 2000.0);
    }

    #[test]
    fn addition_log_sum_exp() {
        let a = LogFloat::new(3.0);
        let b = LogFloat::new(4.0);
        assert!(((a + b).to_f64() - 7.0).abs() < 1e-12);
        // One operand dominating by far: result equals the larger.
        let big = LogFloat::from_ln(0.0);
        let tiny = LogFloat::from_ln(-1000.0);
        assert!(((big + tiny).ln() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs = [0.1, 0.2, 0.3, 0.4];
        let sum: LogFloat = xs.iter().map(|&x| LogFloat::new(x)).sum();
        assert!((sum.to_f64() - 1.0).abs() < 1e-12);
        let prod: LogFloat = xs.iter().map(|&x| LogFloat::new(x)).product();
        assert!((prod.to_f64() - 0.0024).abs() < 1e-14);
    }

    #[test]
    fn saturating_sub_basic() {
        let a = LogFloat::new(0.75);
        let b = LogFloat::new(0.5);
        assert!((a.saturating_sub(b).to_f64() - 0.25).abs() < 1e-14);
        assert_eq!(b.saturating_sub(a), LogFloat::ZERO);
        assert_eq!(a.saturating_sub(LogFloat::ZERO), a);
    }

    #[test]
    fn complement_stable_near_one() {
        // 1 - (1 - 1e-18) should keep ~1e-18, not cancel to 0.
        let nearly_one = LogFloat::from_ln(-(1e-18f64));
        let c = LogFloat::ONE.saturating_sub(nearly_one);
        assert!((c.ln() - (1e-18f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn ordering() {
        let a = LogFloat::from_ln(-1e9);
        let b = LogFloat::from_ln(-1e8);
        assert!(a < b);
        assert!(LogFloat::ZERO < a);
        assert!(b < LogFloat::ONE);
    }

    #[test]
    fn powers() {
        let half = LogFloat::new(0.5);
        assert!((half.powi(3).to_f64() - 0.125).abs() < 1e-15);
        assert!((half.powf(0.5).to_f64() - 0.5f64.sqrt()).abs() < 1e-15);
        assert_eq!(LogFloat::ZERO.powi(5), LogFloat::ZERO);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = LogFloat::ONE / LogFloat::ZERO;
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_value_panics() {
        let _ = LogFloat::new(-1.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(LogFloat::ZERO.to_string(), "0");
        assert_eq!(LogFloat::ONE.to_string(), "1");
        assert_eq!(LogFloat::from_ln(-1e6).to_string(), "exp(-1000000)");
    }
}
