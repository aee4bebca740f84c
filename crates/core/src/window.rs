//! Sliding-window analysis of Lemma 1: in every window of `T` rounds,
//! the number of convergence opportunities should exceed the number of
//! adversary blocks (with overwhelming probability in `T`).
//!
//! Whole-run totals can hide locally bad windows; this module scans a
//! per-round simulation log for the *worst* window, which is the
//! quantity Lemma 1 actually constrains.

use crate::{Error, Result};
use nakamoto_sim::execution::RoundRecord;

/// Result of a worst-window scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowReport {
    /// Window length scanned.
    pub window: u64,
    /// Number of windows examined.
    pub n_windows: u64,
    /// Minimum of (convergence opportunities − adversary blocks) over
    /// all windows.
    pub worst_margin: i64,
    /// Start round (0-based into the log) of the worst window.
    pub worst_start: u64,
    /// Number of windows with a non-positive margin (Lemma 1 violated
    /// in that window).
    pub violating_windows: u64,
}

impl WindowReport {
    /// `true` iff every window satisfied Lemma 1's premise
    /// (`C_window > A_window`).
    #[must_use]
    pub fn all_windows_safe(&self) -> bool {
        self.violating_windows == 0
    }
}

/// Scans all length-`window` windows of a round log with prefix sums
/// (O(len) time, O(len) space).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] if `window == 0` or the log is
/// shorter than one window.
pub fn worst_window(log: &[RoundRecord], window: u64) -> Result<WindowReport> {
    if window == 0 {
        return Err(Error::invalid("window", "must be at least 1 round"));
    }
    let w = window as usize;
    if log.len() < w {
        return Err(Error::invalid(
            "window",
            format!("log has {} rounds, shorter than the window {w}", log.len()),
        ));
    }
    // Prefix sums of (convergence − adversary).
    let mut prefix = Vec::with_capacity(log.len() + 1);
    prefix.push(0i64);
    let mut acc = 0i64;
    for r in log {
        acc += i64::from(r.convergence_completed) - i64::from(r.adversary);
        prefix.push(acc);
    }
    let mut worst_margin = i64::MAX;
    let mut worst_start = 0u64;
    let mut violating = 0u64;
    for start in 0..=(log.len() - w) {
        let margin = prefix[start + w] - prefix[start];
        if margin < worst_margin {
            worst_margin = margin;
            worst_start = start as u64;
        }
        if margin <= 0 {
            violating += 1;
        }
    }
    Ok(WindowReport {
        window,
        n_windows: (log.len() - w + 1) as u64,
        worst_margin,
        worst_start,
        violating_windows: violating,
    })
}

/// Convenience: runs a fresh simulation with round logging and scans
/// the requested window lengths.
///
/// # Errors
///
/// Propagates [`worst_window`] errors (window longer than the run).
pub fn simulate_and_scan<A: nakamoto_sim::adversary::Adversary>(
    params: &crate::params::ProtocolParams,
    adversary: A,
    rounds: u64,
    windows: &[u64],
    seed: u64,
) -> Result<Vec<WindowReport>> {
    let mut sim = nakamoto_sim::execution::Simulation::new(params.to_sim_config(seed), adversary);
    sim.enable_round_log();
    sim.run(rounds);
    let log = sim.round_log().expect("logging enabled"); // detlint: allow(panic-expect) -- enable_round_log() was called two lines above
    windows.iter().map(|&w| worst_window(log, w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProtocolParams;
    use nakamoto_sim::adversary::{ImmediateReleaseAdversary, PrivateChainAdversary};

    fn record(honest: u32, adversary: u32, conv: bool) -> RoundRecord {
        RoundRecord {
            honest,
            adversary,
            convergence_completed: conv,
        }
    }

    #[test]
    fn rejects_degenerate_windows() {
        let log = vec![record(0, 0, false); 10];
        assert!(worst_window(&log, 0).is_err());
        assert!(worst_window(&log, 11).is_err());
        assert!(worst_window(&log, 10).is_ok());
    }

    #[test]
    fn hand_computed_margins() {
        // conv at rounds 0, 3; adversary blocks at rounds 1 (2 blocks), 4.
        let log = vec![
            record(1, 0, true),
            record(0, 2, false),
            record(0, 0, false),
            record(1, 0, true),
            record(0, 1, false),
        ];
        let r = worst_window(&log, 2).unwrap();
        // Windows: [0,1]=1−2=−1, [1,2]=−2, [2,3]=1, [3,4]=1−1=0.
        assert_eq!(r.n_windows, 4);
        assert_eq!(r.worst_margin, -2);
        assert_eq!(r.worst_start, 1);
        assert_eq!(r.violating_windows, 3);
        assert!(!r.all_windows_safe());
        // Whole-log window.
        let r = worst_window(&log, 5).unwrap();
        assert_eq!(r.worst_margin, 2 - 3);
        assert_eq!(r.n_windows, 1);
    }

    #[test]
    fn safe_regime_has_safe_large_windows() {
        // Deep inside the consistent region, large windows always have
        // positive margin.
        let params = ProtocolParams::from_c(100, 2, 20.0, 0.1).unwrap();
        let reports = simulate_and_scan(
            &params,
            PrivateChainAdversary::new(2),
            300_000,
            &[50_000, 100_000],
            404,
        )
        .unwrap();
        for r in &reports {
            assert!(
                r.all_windows_safe(),
                "window {}: worst margin {} at {}",
                r.window,
                r.worst_margin,
                r.worst_start
            );
        }
    }

    #[test]
    fn small_windows_violate_even_in_safe_regime() {
        // Tiny windows contain no convergence opportunities at all, so
        // violations are expected — Lemma 1 is asymptotic in T.
        let params = ProtocolParams::from_c(100, 2, 20.0, 0.3).unwrap();
        let reports = simulate_and_scan(
            &params,
            ImmediateReleaseAdversary::new(),
            100_000,
            &[10],
            405,
        )
        .unwrap();
        assert!(!reports[0].all_windows_safe());
    }

    #[test]
    fn unsafe_regime_violates_large_windows() {
        let params = ProtocolParams::from_c(100, 4, 0.2, 0.45).unwrap();
        let reports = simulate_and_scan(
            &params,
            PrivateChainAdversary::new(4),
            200_000,
            &[100_000],
            406,
        )
        .unwrap();
        assert!(reports[0].worst_margin < 0);
    }

    #[test]
    fn worst_margin_monotone_in_window_length_for_uniform_logs() {
        // For an all-adversary log the margin is −window.
        let log = vec![record(0, 1, false); 100];
        for w in [1u64, 10, 100] {
            let r = worst_window(&log, w).unwrap();
            assert_eq!(r.worst_margin, -(w as i64));
        }
    }
}
