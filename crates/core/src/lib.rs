#![forbid(unsafe_code)]
//! The paper's contribution: consistency analysis of Nakamoto's
//! blockchain protocol in asynchronous (Δ-delay) networks, deriving the
//! neat bound `c > 2µ/ln(µ/ν)`.
//!
//! Module map (one module per artefact of the paper):
//!
//! * [`params`] — the model parameters of Table I with the validation
//!   constraints of Eqs. (1)–(3) and the derived quantities `α`, `ᾱ`,
//!   `α₁`, `c` (Eqs. 7–9).
//! * [`theorem1`] — Theorem 1: `ᾱ^{2Δ}α₁ ≥ (1+δ₁)pνn` suffices for
//!   consistency; expectations `E[C]` (Eq. 26) and `E[A]` (Eq. 27).
//! * [`theorem2`] — Theorem 2's neat bound (Ineq. 11) and the Remark-1
//!   machinery (Ineqs. 12–17).
//! * [`theorem3`] — Theorem 3's split conditions (Ineqs. 50–51) and the
//!   constants δ₄ (Eq. 60), δ₁ (Eq. 61).
//! * [`lemmas`] — Lemmas 2–8 and Propositions 1–2 as checkable
//!   inequalities with both sides exposed.
//! * [`suffix_chain`] — the suffix Markov chain `C_F` of Fig. 2 built
//!   explicitly (2Δ+1 states) with its closed-form stationary
//!   distribution (Eqs. 37a–37d).
//! * [`extended_chain`] — the concatenation chain `C_{F‖P}`: the
//!   convergence-opportunity probability `ᾱ^{2Δ}α₁` (Eq. 44),
//!   Proposition 1's `min π_{F‖P}`, and the Inequality-(47) tail bound.
//! * [`pss`] — the Pass–Seeman–Shelat comparison bounds: consistency
//!   `ν < ½(2−c+√(c²−2c))` and the Remark-8.5 attack
//!   `ν > (2c+1−√(4c²+1))/2`.
//! * [`kiffer`] — a reconstruction of the (corrected vs. reported
//!   incorrect) Kiffer-et-al. CCS'18 bound for the paper's Section IV
//!   ablation.
//! * [`numax`] — solvers inverting each bound into `ν_max(c)`.
//! * [`figure1`] — the three curves of Figure 1.
//! * [`convergence`] — Monte-Carlo validation glue against
//!   `nakamoto_sim`.
//! * [`analytic`] — the spec-driven experiment layer's entry point:
//!   one record bundling every theorem's prediction for a simulator
//!   configuration, overlaid on simulated cells by the `experiment`
//!   harness.
//!
//! # Example: the headline claim
//!
//! ```
//! use consistency_core::params::ProtocolParams;
//! use consistency_core::theorem2;
//!
//! // Figure 1 parameters, ν = 0.3.
//! let params = ProtocolParams::from_c(100_000, 10_000_000_000_000, 3.0, 0.3)?;
//! // c = 3 exceeds the neat bound 2µ/ln(µ/ν) ≈ 1.65 → consistent.
//! assert!(params.c() > theorem2::neat_bound(0.3));
//! assert!(params.is_consistent_by_neat_bound());
//! # Ok::<(), consistency_core::Error>(())
//! ```

pub mod analytic;
pub mod catchup;
pub mod convergence;
pub mod extended_chain;
pub mod figure1;
pub mod kiffer;
pub mod lemmas;
pub mod numax;
pub mod params;
pub mod pss;
pub mod suffix_chain;
pub mod theorem1;
pub mod theorem2;
pub mod theorem3;
#[cfg(test)]
mod walk;
pub mod window;

mod error;

pub use error::Error;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
