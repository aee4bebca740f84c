//! Simulation configuration mirroring the paper's model parameters
//! (Table I and Eqs. 1–3).

use std::fmt;

/// Error raised by [`SimConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Crate-internal constructor, shared by the scenario and
    /// Monte-Carlo layers so every invalid-experiment condition
    /// surfaces as the same error type.
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid simulation config: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Parameters of one simulation run.
///
/// The paper's constraints are `µ + ν = 1`, `0 < ν < ½ < µ` (Eq. 2) and
/// `n ≥ 4` (Eq. 3). The simulator additionally allows `ν = 0` so the
/// adversary-free baseline can be measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Total number of miners `n` (honest + corrupted).
    pub n_miners: u64,
    /// Fraction `ν` of miners controlled by the adversary.
    pub adversary_fraction: f64,
    /// Proof-of-work hardness `p` (per-miner per-round success
    /// probability).
    pub hardness: f64,
    /// Maximum adversarial message delay `Δ` in rounds.
    pub delta: u64,
    /// RNG seed; identical configs with identical seeds reproduce runs
    /// bit-for-bit.
    pub seed: u64,
}

impl SimConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the paper's model constraints are
    /// violated (`n ≥ 4`, `0 ≤ ν < ½`, `p ∈ (0, 1)`, `Δ ≥ 1`).
    pub fn new(
        n_miners: u64,
        adversary_fraction: f64,
        hardness: f64,
        delta: u64,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        let cfg = SimConfig {
            n_miners,
            adversary_fraction,
            hardness,
            delta,
            seed,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks all model constraints.
    ///
    /// # Errors
    ///
    /// See [`SimConfig::new`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_miners < 4 {
            return Err(ConfigError {
                message: format!("paper's Eq. (3) requires n ≥ 4, got {}", self.n_miners),
            });
        }
        if !(0.0..0.5).contains(&self.adversary_fraction) || self.adversary_fraction.is_nan() {
            return Err(ConfigError {
                message: format!(
                    "paper's Eq. (2) requires 0 ≤ ν < 1/2, got {}",
                    self.adversary_fraction
                ),
            });
        }
        if !(self.hardness > 0.0 && self.hardness < 1.0) {
            return Err(ConfigError {
                message: format!("hardness p must lie in (0, 1), got {}", self.hardness),
            });
        }
        if self.delta == 0 {
            return Err(ConfigError {
                message: "Δ must be at least 1 round".into(),
            });
        }
        Ok(())
    }

    /// Number of corrupted miners `⌊νn⌉` (rounded to nearest).
    #[must_use]
    pub fn n_adversary(&self) -> u64 {
        (self.adversary_fraction * self.n_miners as f64).round() as u64
    }

    /// Number of honest miners `n − νn`.
    #[must_use]
    pub fn n_honest(&self) -> u64 {
        self.n_miners - self.n_adversary()
    }

    /// The paper's `c = 1/(pnΔ)`: expected number of Δ-delays before any
    /// block is mined.
    #[must_use]
    pub fn c(&self) -> f64 {
        1.0 / (self.hardness * self.n_miners as f64 * self.delta as f64)
    }

    /// Builds the config from `(n, Δ, c, ν)` by solving `p = 1/(cnΔ)` —
    /// the parameterisation used throughout the paper's evaluation.
    ///
    /// # Errors
    ///
    /// Same contract as [`SimConfig::new`].
    pub fn from_c(
        n_miners: u64,
        delta: u64,
        c: f64,
        adversary_fraction: f64,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if !(c > 0.0) || c.is_nan() {
            return Err(ConfigError {
                message: format!("c must be positive, got {c}"),
            });
        }
        let hardness = 1.0 / (c * n_miners as f64 * delta as f64);
        SimConfig::new(n_miners, adversary_fraction, hardness, delta, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfig {
        SimConfig::new(1000, 0.25, 1e-5, 4, 7).unwrap()
    }

    #[test]
    fn valid_config_roundtrip() {
        let cfg = base();
        assert_eq!(cfg.n_adversary(), 250);
        assert_eq!(cfg.n_honest(), 750);
    }

    #[test]
    fn rejects_small_n() {
        assert!(SimConfig::new(3, 0.25, 1e-5, 4, 0).is_err());
    }

    #[test]
    fn rejects_majority_adversary() {
        assert!(SimConfig::new(100, 0.5, 1e-5, 4, 0).is_err());
        assert!(SimConfig::new(100, 0.7, 1e-5, 4, 0).is_err());
        assert!(SimConfig::new(100, -0.1, 1e-5, 4, 0).is_err());
    }

    #[test]
    fn allows_zero_adversary_for_baseline() {
        assert!(SimConfig::new(100, 0.0, 1e-5, 4, 0).is_ok());
    }

    #[test]
    fn rejects_bad_hardness_and_delta() {
        assert!(SimConfig::new(100, 0.2, 0.0, 4, 0).is_err());
        assert!(SimConfig::new(100, 0.2, 1.0, 4, 0).is_err());
        assert!(SimConfig::new(100, 0.2, 1e-5, 0, 0).is_err());
    }

    #[test]
    fn c_parameterisation_inverts() {
        let cfg = SimConfig::from_c(1000, 8, 3.0, 0.2, 1).unwrap();
        assert!((cfg.c() - 3.0).abs() < 1e-12);
        assert!((cfg.hardness - 1.0 / (3.0 * 1000.0 * 8.0)).abs() < 1e-18);
    }

    #[test]
    fn adversary_count_rounds_to_nearest() {
        let cfg = SimConfig::new(10, 0.24, 1e-5, 1, 0).unwrap();
        assert_eq!(cfg.n_adversary(), 2);
        assert_eq!(cfg.n_honest(), 8);
        let cfg = SimConfig::new(10, 0.26, 1e-5, 1, 0).unwrap();
        assert_eq!(cfg.n_adversary(), 3);
    }
}
