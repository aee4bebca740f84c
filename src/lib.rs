#![forbid(unsafe_code)]
//! Umbrella crate re-exporting the full reproduction of
//! *"An Analysis of Blockchain Consistency in Asynchronous Networks:
//! Deriving a Neat Bound"* (Jun Zhao, ICDCS 2020).
//!
//! The workspace is organised bottom-up:
//!
//! * [`probability`] — numerical substrate (the binomial law, tail
//!   bounds, deterministic RNG, root finding, compensated sums).
//! * [`markov`] — finite discrete-time Markov chains (stationary
//!   distributions, mixing times, concentration bounds, the
//!   private-chain race).
//! * [`nakamoto_sim`] — a round-based simulator of Nakamoto's protocol in
//!   the Δ-delay asynchronous model.
//! * [`consistency_core`] — the paper's contribution: the consistency
//!   theorems, the suffix Markov chains, and the comparison bounds.
//!
//! # Quickstart
//!
//! ```
//! use blockchain_consistency::consistency_core::params::ProtocolParams;
//! use blockchain_consistency::consistency_core::numax;
//!
//! // Figure 1 setup: n = 1e5 miners, Δ = 1e13, pick c = 3.
//! let nu_max = numax::nu_max_for_c(3.0).expect("c in range");
//! assert!(nu_max > 0.0 && nu_max < 0.5);
//!
//! let params = ProtocolParams::from_c(1e5 as u64, 1e13 as u64, 3.0, nu_max / 2.0)?;
//! assert!(params.is_consistent_by_neat_bound());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use consistency_core;
pub use markov;
pub use nakamoto_sim;
pub use probability;
