#![forbid(unsafe_code)]
//! Numerical substrate for the blockchain-consistency workspace.
//!
//! This crate is intentionally dependency-free so that every downstream
//! simulation result is bit-reproducible. It provides:
//!
//! * [`special`] — log-gamma, log-binomial-coefficient, regularized
//!   incomplete beta.
//! * [`binomial`] — the distribution the paper's round model is built
//!   from (Eqs. 7–9 of the paper).
//! * [`chernoff`] — relative entropy and the binomial tail bound used in
//!   Inequality (49) (Arratia–Gordon).
//! * [`rootfind`] — bisection and Brent's method, used to invert bound
//!   curves (e.g. solving `2µ/ln(µ/ν) = c` for `ν_max`).
//! * [`rare_event`] — the per-level product estimate and relative-error
//!   accounting behind the multilevel-splitting rare-event estimator.
//! * [`rng`] — deterministic SplitMix64 / Xoshiro256++ generators.
//! * [`summation`] — compensated (Neumaier) and pairwise summation.
//!
//! # Example
//!
//! ```
//! use probability::binomial::Binomial;
//!
//! // Number of honest blocks mined in one round: binom(µn, p).
//! let x = Binomial::new(90_000, 1e-9)?;
//! let alpha = x.prob_positive();        // α = 1 - (1-p)^{µn}
//! let alpha1 = x.pmf(1);                // α₁
//! assert!(alpha1 < alpha && alpha < 1e-3);
//! # Ok::<(), probability::Error>(())
//! ```

pub mod binomial;
pub mod chernoff;
pub mod rare_event;
pub mod rng;
pub mod rootfind;
pub mod special;
pub mod summation;

mod error;

pub use error::Error;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
