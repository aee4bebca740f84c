#![forbid(unsafe_code)]
//! A round-based simulator of Nakamoto's blockchain protocol in the
//! Δ-delay asynchronous network model of Pass–Seeman–Shelat, as
//! formalised in Section III of the paper.
//!
//! The simulator is the *operational* counterpart of the paper's
//! analysis: every analytical quantity (`α`, `ᾱ`, `α₁`, the suffix-chain
//! stationary distribution, the convergence-opportunity rate
//! `ᾱ^{2Δ}α₁`, the adversary block rate `pνn`) can be measured on runs
//! and compared against its closed form.
//!
//! # Model recap
//!
//! * `n` miners with identical computing power; a `ν < ½` fraction is
//!   corrupted (Eqs. 1–3).
//! * Each round, every miner makes one proof-of-work query succeeding
//!   with probability `p`; honest queries are parallel (height grows by
//!   at most one per round), adversary queries are sequential.
//! * The adversary delays any message by up to `Δ` rounds, fully
//!   controls corrupted miners, and sees everything first (rushing).
//! * Honest miners follow the longest chain, first-seen tie-break.
//!
//! Beyond stationary runs, the [`scenario`] module drives the engine
//! through declarative *time-varying* scenarios — phases of shifting
//! adversary power, switching strategies, and changing network regimes
//! (calm / full-Δ adversarial / one-group eclipse) — with the same
//! bit-for-bit determinism guarantees as the stationary Monte-Carlo
//! engine. The [`compose`] module runs several strategies
//! *simultaneously* over a shared mining-power budget (oracle-level
//! hypergeometric success allocation plus a release arbiter), and the
//! [`fuzz`] module searches the combined scenario × composition space
//! with a seeded generator that asserts the engine's invariants over
//! thousands of random cases. For failure probabilities far below any
//! feasible trial budget, the [`splitting`] module estimates the same
//! `T`-consistency violation events with fixed-effort multilevel
//! splitting over the consistency depth, preserving the trial engine's
//! pool-width bit-identity.
//!
//! # Quickstart
//!
//! ```
//! use nakamoto_sim::adversary::{PrivateChainAdversary, Strategy};
//! use nakamoto_sim::config::SimConfig;
//! use nakamoto_sim::execution::run_simulation;
//! use nakamoto_sim::scenario::StrategyKind;
//!
//! let cfg = SimConfig::new(100, 0.25, 1e-3, 4, 7)?;
//! let report = run_simulation(cfg, PrivateChainAdversary::new(4), 100_000);
//! println!(
//!     "C = {}, A = {}, consistent at T=6: {}",
//!     report.convergence_opportunities,
//!     report.adversary_blocks,
//!     report.is_consistent(6),
//! );
//! // The same run, with the strategy chosen at run time.
//! let chosen = Strategy::new(StrategyKind::PrivateChain, cfg.delta, &[]).unwrap();
//! assert_eq!(run_simulation(cfg, chosen, 100_000), report);
//! # Ok::<(), nakamoto_sim::config::ConfigError>(())
//! ```

pub mod adversary;
pub mod block;
pub mod compose;
pub mod config;
pub mod consistency;
pub mod events;
pub mod exact;
pub mod execution;
pub mod executor;
pub mod fuzz;
pub mod metrics;
pub mod montecarlo;
pub mod network;
pub mod oracle;
pub mod scenario;
pub mod selfish;
pub mod spec;
pub mod splitting;
pub mod tree;
