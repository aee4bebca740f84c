//! Selfish mining (Eyal–Sirer 2014) adapted to the Δ-delay round model:
//! an extension strategy exercising the chain-quality metric the
//! paper's Section II surveys.
//!
//! The strategy withholds a private fork and reveals blocks one at a
//! time in response to honest progress:
//!
//! * lead ≥ 2 and honest chain catches to lead 1 → release enough to
//!   stay strictly ahead (the classic "match and beat");
//! * lead 1 and honest block arrives → release the competing block and
//!   race (here: the adversary's block is delivered next round, honest
//!   first-seen keeps groups on their own view);
//! * behind → adopt the honest chain.

use crate::adversary::{Adversary, ReleaseDirective};
use crate::block::{BlockId, Provenance, Round};
use crate::tree::BlockTree;

/// The selfish-mining strategy.
#[derive(Debug, Clone)]
pub struct SelfishMiningAdversary {
    /// Kept for API symmetry with the other strategies; the classic
    /// Eyal–Sirer attack does not exploit network delays (γ = 0 here),
    /// so only release timing uses it implicitly through the engine's
    /// `[1, Δ]` clamp.
    #[allow(dead_code)]
    delta: u64,
    private_tip: BlockId,
    /// Withheld blocks, oldest first.
    withheld: Vec<BlockId>,
    /// Public height up to which the private chain has been revealed.
    revealed_height: u64,
    /// Statistics: blocks revealed in "match" races.
    races_started: u64,
}

impl SelfishMiningAdversary {
    /// Creates the strategy for delay bound `delta`.
    #[must_use]
    pub fn new(delta: u64) -> Self {
        SelfishMiningAdversary {
            delta,
            private_tip: BlockId::GENESIS,
            withheld: Vec::new(),
            revealed_height: 0,
            races_started: 0,
        }
    }

    /// Number of match-races the strategy has initiated.
    #[must_use]
    pub fn races_started(&self) -> u64 {
        self.races_started
    }

    /// Dormant-fork bookkeeping (see
    /// [`crate::adversary::Strategy`]): abandons a fork the public
    /// chain `best` has strictly overtaken, and lets an empty fork
    /// follow `best` (raising the revealed watermark with it), so a
    /// dormant fork never pins the tree pruner.
    pub(crate) fn track_dormant(&mut self, best: BlockId, tree: &BlockTree) {
        self.abandon_if_behind(best, tree);
        if self.withheld.is_empty() {
            self.private_tip = best;
            self.revealed_height = self.revealed_height.max(tree.height(best));
        }
    }

    /// Adopts `public_tip` and drops the withheld fork iff the fork has
    /// strictly fallen behind — the strategy's adopt rule.
    fn abandon_if_behind(&mut self, public_tip: BlockId, tree: &BlockTree) {
        if tree.height(self.private_tip) < tree.height(public_tip) {
            self.private_tip = public_tip;
            self.withheld.clear();
        }
    }

    /// Releases every withheld block at or below `height`, oldest
    /// first, and keeps the rest withheld in place, so the fork's buffer
    /// is reused rather than rebuilt.
    fn release_up_to(&mut self, height: u64, tree: &BlockTree, out: &mut Vec<ReleaseDirective>) {
        let revealed_height = &mut self.revealed_height;
        self.withheld.retain(|&block| {
            let block_height = tree.height(block);
            if block_height > height {
                return true;
            }
            for group in 0..2 {
                out.push(ReleaseDirective {
                    block,
                    group,
                    delay: 1,
                });
            }
            *revealed_height = (*revealed_height).max(block_height);
            false
        });
    }
}

impl Adversary for SelfishMiningAdversary {
    fn live_blocks(&self) -> Vec<BlockId> {
        vec![self.private_tip]
    }

    fn honest_delay(&mut self, _round: Round, _from: usize, _to: usize) -> u64 {
        // Selfish mining in its original form does not rely on network
        // control; keep honest propagation fast so the measured revenue
        // shift is attributable to withholding alone.
        1
    }

    fn act(
        &mut self,
        round: Round,
        group_tips: &[BlockId; 2],
        tree: &mut BlockTree,
        successes: &[u64],
        releases: &mut Vec<ReleaseDirective>,
    ) {
        let successes = crate::adversary::monolithic_wins(successes);
        let public_tip = crate::adversary::best_tip(tree, group_tips);
        let public_height = tree.height(public_tip);

        // Behind the public chain → adopt it.
        self.abandon_if_behind(public_tip, tree);

        for _ in 0..successes {
            self.private_tip = tree.add_block(self.private_tip, round, Provenance::Adversary);
            self.withheld.push(self.private_tip);
        }

        let private_height = tree.height(self.private_tip);
        if self.withheld.is_empty() || private_height <= public_height {
            return;
        }
        let lead = private_height - public_height;
        match lead {
            // Race state: reveal the block at the public height to
            // compete for the next extension.
            1 if public_height > self.revealed_height => {
                self.races_started += 1;
                self.release_up_to(private_height, tree, releases);
            }
            // Comfortable lead: reveal just enough to stay one ahead of
            // the public chain whenever honest miners make progress.
            _ if lead <= 1 => self.release_up_to(public_height + 1, tree, releases),
            _ => {
                if public_height > self.revealed_height {
                    self.release_up_to(public_height + 1, tree, releases);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::execution::run_simulation;

    impl SelfishMiningAdversary {
        /// Current withheld-block count.
        fn withheld_len(&self) -> usize {
            self.withheld.len()
        }
    }

    /// Test convenience: run `act` into a fresh buffer.
    fn act_collect(
        adv: &mut SelfishMiningAdversary,
        round: Round,
        tips: [BlockId; 2],
        tree: &mut BlockTree,
        successes: u64,
    ) -> Vec<ReleaseDirective> {
        let mut out = Vec::new();
        adv.act(round, &tips, tree, &[successes], &mut out);
        out
    }

    #[test]
    fn adopts_public_chain_when_behind() {
        let mut tree = BlockTree::new();
        let mut tip = BlockId::GENESIS;
        for r in 1..=3 {
            tip = tree.add_block(tip, r, Provenance::Honest(0));
        }
        let mut adv = SelfishMiningAdversary::new(4);
        let _ = act_collect(&mut adv, 4, [tip, tip], &mut tree, 0);
        assert_eq!(adv.withheld_len(), 0);
        let _ = act_collect(&mut adv, 5, [tip, tip], &mut tree, 1);
        assert_eq!(tree.height(adv.private_tip), 4);
    }

    #[test]
    fn withholds_with_large_lead() {
        let mut tree = BlockTree::new();
        let mut adv = SelfishMiningAdversary::new(4);
        let releases = act_collect(
            &mut adv,
            1,
            [BlockId::GENESIS, BlockId::GENESIS],
            &mut tree,
            3,
        );
        // Lead 3 over an empty public chain: nothing is still secret
        // only if public progressed; here public height 0 and
        // revealed_height 0 → stays secret.
        assert!(releases.is_empty());
        assert_eq!(adv.withheld_len(), 3);
    }

    #[test]
    fn reveals_in_response_to_honest_progress() {
        let mut tree = BlockTree::new();
        let mut adv = SelfishMiningAdversary::new(4);
        let _ = act_collect(
            &mut adv,
            1,
            [BlockId::GENESIS, BlockId::GENESIS],
            &mut tree,
            3,
        );
        // Honest chain reaches height 2.
        let mut tip = BlockId::GENESIS;
        for r in 2..=3 {
            tip = tree.add_block(tip, r, Provenance::Honest(0));
        }
        let releases = act_collect(&mut adv, 4, [tip, tip], &mut tree, 0);
        assert!(!releases.is_empty(), "lead shrank to 1: must reveal");
        // Released blocks are at most one above the public height.
        for r in &releases {
            assert!(tree.height(r.block) <= 3);
        }
    }

    /// A partial reveal releases the oldest withheld blocks, each to
    /// both groups, and keeps the rest in the same buffer: no block of
    /// the adversary's allocates once the buffer has grown.
    #[test]
    fn a_partial_reveal_keeps_the_withheld_buffer() {
        let mut tree = BlockTree::new();
        let mut adv = SelfishMiningAdversary::new(4);
        let genesis = [BlockId::GENESIS, BlockId::GENESIS];
        let _ = act_collect(&mut adv, 1, genesis, &mut tree, 5);
        let capacity = adv.withheld.capacity();
        let mut tip = BlockId::GENESIS;
        for r in 2..=3 {
            tip = tree.add_block(tip, r, Provenance::Honest(0));
        }
        // Lead 3 over public height 2: reveal up to height 3.
        let releases = act_collect(&mut adv, 4, [tip, tip], &mut tree, 0);
        let released: Vec<(u64, usize)> = releases
            .iter()
            .map(|r| (tree.height(r.block), r.group))
            .collect();
        assert_eq!(released, [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]);
        assert_eq!(adv.withheld_len(), 2);
        assert_eq!(adv.withheld.capacity(), capacity, "the buffer was rebuilt");
    }

    #[test]
    fn selfish_mining_degrades_chain_quality() {
        // Revenue comparison: with ν = 0.35 and instant propagation,
        // selfish mining should push the adversary's share of the main
        // chain above its honest-mining share ν (the Eyal–Sirer
        // threshold with γ = 0 is ν > 1/3).
        let nu = 0.35;
        let honest_cfg = SimConfig::new(200, nu, 2e-3, 2, 91).unwrap();
        let honest = run_simulation(
            honest_cfg,
            crate::adversary::ImmediateReleaseAdversary::new(),
            300_000,
        );
        let selfish_cfg = SimConfig::new(200, nu, 2e-3, 2, 91).unwrap();
        let selfish = run_simulation(selfish_cfg, SelfishMiningAdversary::new(2), 300_000);
        assert!(
            selfish.chain_quality() < honest.chain_quality(),
            "selfish quality {} should be below honest-mining quality {}",
            selfish.chain_quality(),
            honest.chain_quality()
        );
    }

    #[test]
    fn selfish_mining_unprofitable_for_small_adversary() {
        // Far below the threshold the strategy wastes adversary blocks:
        // quality is at least the honest-mining level.
        let nu = 0.1;
        let cfg = SimConfig::new(200, nu, 2e-3, 2, 92).unwrap();
        let selfish = run_simulation(cfg, SelfishMiningAdversary::new(2), 300_000);
        assert!(
            selfish.chain_quality() > 0.85,
            "quality {} should stay near honest share",
            selfish.chain_quality()
        );
    }
}
