//! Run-level metrics and the final report.

use crate::block::BlockId;

/// Aggregated results of a simulation run.
///
/// All counts refer to the window actually simulated. Analytical
/// expectations for comparison: `E[honest_blocks] = T·µnp`,
/// `E[adversary_blocks] = T·νnp` (Eq. 27), and
/// `E[convergence_opportunities] ≈ T·ᾱ^{2Δ}α₁` (Eq. 26).
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Rounds simulated.
    pub rounds: u64,
    /// Total honest blocks mined (all groups, including wasted siblings).
    pub honest_blocks: u64,
    /// Total adversary blocks mined (the paper's `A(t₀, t₀+T−1)`).
    pub adversary_blocks: u64,
    /// Completed convergence opportunities (the paper's `C(t₀, t₀+T−1)`).
    pub convergence_opportunities: u64,
    /// Rounds in which at least one honest block was mined (`H` rounds).
    pub h_rounds: u64,
    /// Rounds in which exactly one honest block was mined (`H₁` rounds).
    pub h1_rounds: u64,
    /// Empirical suffix-chain occupancy (length `2Δ+1`, paper Fig. 2
    /// states; see `events::SuffixState` for the index layout).
    pub suffix_occupancy: Vec<u64>,
    /// Rounds included in `suffix_occupancy` (excludes warm-up).
    pub suffix_rounds: u64,
    /// Final tip of each honest group.
    pub group_tips: Vec<BlockId>,
    /// Final chain height of each honest group.
    pub group_heights: Vec<u64>,
    /// Deepest single-group reorg observed.
    pub max_reorg_depth: u64,
    /// Deepest simultaneous cross-group divergence observed.
    pub max_divergence_depth: u64,
    /// Number of reorgs.
    pub reorg_count: u64,
    /// Honest blocks on group 0's final chain.
    pub chain_honest_blocks: u64,
    /// Adversary blocks on group 0's final chain.
    pub chain_adversary_blocks: u64,
}

impl SimReport {
    /// Chain growth rate: blocks of height gained per round by group 0.
    #[must_use]
    pub fn chain_growth_rate(&self) -> f64 {
        self.group_heights[0] as f64 / self.rounds as f64
    }

    /// Chain quality: honest fraction of group 0's final chain.
    ///
    /// Returns 1.0 for an empty chain (vacuous quality).
    #[must_use]
    pub fn chain_quality(&self) -> f64 {
        let total = self.chain_honest_blocks + self.chain_adversary_blocks;
        if total == 0 {
            return 1.0;
        }
        self.chain_honest_blocks as f64 / total as f64
    }

    /// Empirical adversary block rate `A/T`.
    #[must_use]
    pub fn adversary_rate(&self) -> f64 {
        self.adversary_blocks as f64 / self.rounds as f64
    }

    /// `true` iff the run exhibited no violation of `T`-consistency.
    #[must_use]
    pub fn is_consistent(&self, t: u64) -> bool {
        self.max_reorg_depth <= t && self.max_divergence_depth <= t
    }

    /// The margin the paper's Lemma 1 requires to be positive:
    /// `C(t₀,t₀+T−1) − A(t₀,t₀+T−1)`.
    #[must_use]
    pub fn convergence_margin(&self) -> i64 {
        self.convergence_opportunities as i64 - self.adversary_blocks as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            rounds: 1000,
            honest_blocks: 90,
            adversary_blocks: 10,
            convergence_opportunities: 25,
            h_rounds: 85,
            h1_rounds: 80,
            suffix_occupancy: vec![10, 20, 30],
            suffix_rounds: 60,
            group_tips: vec![BlockId::GENESIS],
            group_heights: vec![70],
            max_reorg_depth: 3,
            max_divergence_depth: 5,
            reorg_count: 2,
            chain_honest_blocks: 60,
            chain_adversary_blocks: 10,
        }
    }

    #[test]
    fn derived_rates() {
        let r = report();
        assert!((r.chain_growth_rate() - 0.07).abs() < 1e-12);
        assert!((r.chain_quality() - 60.0 / 70.0).abs() < 1e-12);
        assert!((r.adversary_rate() - 0.01).abs() < 1e-12);
        assert_eq!(r.convergence_margin(), 15);
    }

    #[test]
    fn consistency_threshold() {
        let r = report();
        assert!(!r.is_consistent(4), "divergence 5 > 4");
        assert!(r.is_consistent(5));
    }

    #[test]
    fn empty_chain_quality_is_vacuous() {
        let mut r = report();
        r.chain_honest_blocks = 0;
        r.chain_adversary_blocks = 0;
        assert_eq!(r.chain_quality(), 1.0);
    }
}
