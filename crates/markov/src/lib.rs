#![forbid(unsafe_code)]
//! Finite discrete-time Markov chains.
//!
//! The paper proves its consistency theorem by constructing two Markov
//! chains — the *suffix-of-previous-and-current-states* chain `C_F`
//! (Fig. 2, `2Δ+1` states) and the concatenation chain `C_{F‖P}` — and
//! reading convergence-opportunity rates off their stationary
//! distributions. This crate provides the general machinery those
//! constructions need:
//!
//! * [`chain::MarkovChain`] — a validated row-stochastic transition
//!   structure (dense or CSR sparse).
//! * [`structure`] — irreducibility (Tarjan SCC), period, ergodicity.
//! * [`stationary`] — stationary distributions via GTH elimination
//!   (exact, O(S³)) and power iteration (sparse-friendly).
//! * [`mixing`] — total-variation distance and ε-mixing times, needed by
//!   the paper's Inequality (47).
//! * [`concentration`] — Chernoff–Hoeffding bounds for Markov chains
//!   (Chung, Lam, Liu & Mitzenmacher 2012, Theorem 3.1), the engine
//!   behind the paper's Inequality (19).
//! * [`hitting`] — expected hitting and return times.
//! * [`race`] — the private-chain race behind the exact backend of the
//!   spec-driven experiment layer: the effective share `q_eff` and the
//!   closed-form capped race, each answer carrying a provable
//!   truncation-error bound.
//!
//! # Example
//!
//! ```
//! use markov::chain::MarkovChain;
//! use markov::stationary::stationary_gth;
//!
//! // A two-state weather chain.
//! let chain = MarkovChain::from_rows(vec![
//!     vec![0.9, 0.1],
//!     vec![0.5, 0.5],
//! ])?;
//! let pi = stationary_gth(&chain)?;
//! assert!((pi[0] - 5.0 / 6.0).abs() < 1e-12);
//! # Ok::<(), markov::Error>(())
//! ```

#[cfg(test)]
mod absorption;
pub mod chain;
pub mod concentration;
pub mod hitting;
pub mod mixing;
pub mod race;
pub mod stationary;
pub mod structure;

mod error;

pub use error::Error;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
