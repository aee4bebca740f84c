//! Consistency checking.
//!
//! The paper's Definition 1 combines the common-prefix property with
//! future self-consistency: for any rounds `r < s` and honest players
//! `i, j`, all but the last `T` blocks of `i`'s chain at `r` must be a
//! prefix of `j`'s chain at `s`. The tracker below maintains each honest
//! group's adopted chain and records, over a whole run:
//!
//! * `max_reorg_depth` — the deepest suffix any single group ever
//!   discarded (a violation of future self-consistency for every
//!   `T <` that depth), and
//! * `max_divergence_depth` — the deepest suffix by which two groups'
//!   simultaneous chains ever disagreed (a common-prefix violation for
//!   every `T <` that depth).

use crate::block::BlockId;
use crate::tree::BlockTree;

/// Tracks the adopted chain of each honest group and consistency
/// statistics across the run.
///
/// Chains are stored from a movable `base_height` upward so that, with
/// periodic [`ChainTracker::prune_below`] calls at the engine's
/// finalized prefix, memory stays proportional to the live fork window
/// instead of the full chain length. All heights in the API remain
/// absolute.
#[derive(Debug)]
pub struct ChainTracker {
    /// Per group: `chains[g][h - base_height]` is the adopted block at
    /// absolute height `h`.
    chains: Vec<Vec<BlockId>>,
    /// Reusable path buffer for [`ChainTracker::consider`] (hot path:
    /// one adoption per honest block round).
    scratch: Vec<BlockId>,
    /// Absolute height of `chains[g][0]` for every group. Entries below
    /// are finalized and have been discarded.
    base_height: u64,
    /// Height of the last common block between group 0 and group 1
    /// (only meaningful with two groups).
    common_prefix_height: u64,
    max_reorg_depth: u64,
    max_divergence_depth: u64,
    reorg_count: u64,
}

/// The path buffer is scratch, not state: a clone starts with an empty
/// one, and `clone_from` keeps its own.
impl Clone for ChainTracker {
    fn clone(&self) -> Self {
        ChainTracker {
            chains: self.chains.clone(),
            scratch: Vec::new(),
            base_height: self.base_height,
            common_prefix_height: self.common_prefix_height,
            max_reorg_depth: self.max_reorg_depth,
            max_divergence_depth: self.max_divergence_depth,
            reorg_count: self.reorg_count,
        }
    }

    /// Copies `source` into this tracker's chains, reusing their
    /// allocations. The pattern names every field, so a field added
    /// later must be copied here too or the build fails.
    fn clone_from(&mut self, source: &Self) {
        let ChainTracker {
            chains,
            scratch: _,
            base_height,
            common_prefix_height,
            max_reorg_depth,
            max_divergence_depth,
            reorg_count,
        } = source;
        self.chains.clone_from(chains);
        self.base_height = *base_height;
        self.common_prefix_height = *common_prefix_height;
        self.max_reorg_depth = *max_reorg_depth;
        self.max_divergence_depth = *max_divergence_depth;
        self.reorg_count = *reorg_count;
    }
}

impl ChainTracker {
    /// Creates a tracker for `n_groups` honest groups (1 or 2), all
    /// starting on genesis.
    ///
    /// # Panics
    ///
    /// Panics unless `n_groups ∈ {1, 2}`.
    #[must_use]
    pub fn new(n_groups: usize) -> Self {
        assert!(n_groups == 1 || n_groups == 2, "1 or 2 honest groups");
        ChainTracker {
            chains: vec![vec![BlockId::GENESIS]; n_groups],
            scratch: Vec::new(),
            base_height: 0,
            common_prefix_height: 0,
            max_reorg_depth: 0,
            max_divergence_depth: 0,
            reorg_count: 0,
        }
    }

    /// Number of groups tracked.
    #[must_use]
    pub fn n_groups(&self) -> usize {
        self.chains.len()
    }

    /// Current tip of a group's chain.
    #[must_use]
    #[inline]
    pub fn tip(&self, group: usize) -> BlockId {
        *self.chains[group].last().expect("chain contains its base") // detlint: allow(panic-expect) -- every chain is created holding its base block and truncation keeps it
    }

    /// Current height of a group's chain.
    #[must_use]
    #[inline]
    pub fn height(&self, group: usize) -> u64 {
        self.base_height + self.chains[group].len() as u64 - 1
    }

    /// Absolute height below which chain entries have been pruned.
    #[must_use]
    pub fn base_height(&self) -> u64 {
        self.base_height
    }

    /// Discards chain entries below absolute height `floor` for every
    /// group. The caller must pass a finalized height: one at which all
    /// groups agree and below which no future reorg can reach (the
    /// engine uses the tree's pruned-root height).
    ///
    /// # Panics
    ///
    /// Panics if `floor` exceeds a group's current height or the groups
    /// disagree at `floor`.
    pub fn prune_below(&mut self, floor: u64) {
        if floor <= self.base_height {
            return;
        }
        let drop = (floor - self.base_height) as usize;
        let shared = self.chains[0].get(drop).copied();
        for chain in &mut self.chains {
            assert!(chain.len() > drop, "prune floor {floor} above a chain tip");
            assert_eq!(
                chain.get(drop).copied(),
                shared,
                "prune floor {floor} is not finalized across groups"
            );
            chain.drain(..drop);
        }
        self.base_height = floor;
        debug_assert!(self.common_prefix_height >= self.base_height || self.chains.len() == 1);
    }

    /// Offers a block to a group; it is adopted iff strictly higher than
    /// the current tip (longest-chain rule with first-seen tie-break).
    /// Returns `true` if adopted.
    #[inline]
    pub fn consider(&mut self, group: usize, block: BlockId, tree: &BlockTree) -> bool {
        let new_height = tree.height(block);
        if new_height <= self.height(group) {
            return false;
        }
        self.adopt(group, block, tree);
        true
    }

    fn adopt(&mut self, group: usize, tip: BlockId, tree: &BlockTree) {
        let base = self.base_height;
        // Fast path for the overwhelmingly common case: the new tip
        // directly extends the stored tip (ordinary chain growth, no
        // reorg). Skips the walk, the truncate and — with one group —
        // the whole cross-group bookkeeping.
        // detlint: allow(panic-expect) -- every chain is created holding its base block and truncation keeps it
        let stored_tip = *self.chains[group].last().expect("chain non-empty");
        if tree.height(tip) == base + self.chains[group].len() as u64
            && tree.parent(tip) == stored_tip
        {
            self.chains[group].push(tip);
            if self.chains.len() == 2 {
                self.advance_common_prefix();
                let deepest = self
                    .chains
                    .iter()
                    .map(|c| base + c.len() as u64 - 1)
                    .max()
                    .expect("non-empty"); // detlint: allow(panic-expect) -- chains has one entry per group and n_groups >= 1
                let divergence = deepest - self.common_prefix_height;
                self.max_divergence_depth = self.max_divergence_depth.max(divergence);
            }
            return;
        }
        // Collect the path from the new tip down to the first block that
        // already agrees with the stored chain (reusable buffer: this
        // runs once per honest block round).
        let mut path = std::mem::take(&mut self.scratch);
        path.clear();
        let chain = &mut self.chains[group];
        let old_height = base + chain.len() as u64 - 1;
        let mut cur = tip;
        loop {
            let h = tree.height(cur);
            if h >= base && ((h - base) as usize) < chain.len() && chain[(h - base) as usize] == cur
            {
                break;
            }
            path.push(cur);
            debug_assert!(h > base, "the chain base is finalized and always agrees");
            cur = tree.parent(cur);
        }
        let fork_height = tree.height(cur);
        let discarded = old_height.saturating_sub(fork_height);
        if discarded > 0 {
            self.reorg_count += 1;
            self.max_reorg_depth = self.max_reorg_depth.max(discarded);
        }
        chain.truncate((fork_height - base) as usize + 1);
        chain.extend(path.drain(..).rev());
        self.scratch = path;
        // Maintain the cross-group common prefix.
        if self.chains.len() == 2 {
            self.common_prefix_height = self.common_prefix_height.min(fork_height);
            self.advance_common_prefix();
            let deepest = self
                .chains
                .iter()
                .map(|c| base + c.len() as u64 - 1)
                .max()
                .expect("non-empty"); // detlint: allow(panic-expect) -- chains has one entry per group and n_groups >= 1
            let divergence = deepest - self.common_prefix_height;
            self.max_divergence_depth = self.max_divergence_depth.max(divergence);
        }
    }

    fn advance_common_prefix(&mut self) {
        let base = self.base_height;
        let limit = base + self.chains.iter().map(Vec::len).min().expect("non-empty") as u64 - 1; // detlint: allow(panic-expect) -- chains has one entry per group and n_groups >= 1
        let (a, b) = (&self.chains[0], &self.chains[1]);
        let mut cp = self.common_prefix_height;
        while cp < limit && a[(cp + 1 - base) as usize] == b[(cp + 1 - base) as usize] {
            cp += 1;
        }
        self.common_prefix_height = cp;
    }

    /// Deepest suffix any group ever discarded in a reorg.
    #[must_use]
    pub fn max_reorg_depth(&self) -> u64 {
        self.max_reorg_depth
    }

    /// Deepest simultaneous cross-group disagreement observed.
    #[must_use]
    pub fn max_divergence_depth(&self) -> u64 {
        self.max_divergence_depth
    }

    /// Number of reorgs (tip switches discarding ≥ 1 block).
    #[must_use]
    pub fn reorg_count(&self) -> u64 {
        self.reorg_count
    }

    /// Height of the last block shared by both groups' current chains
    /// (equals the tip height with a single group).
    #[must_use]
    pub fn common_prefix_height(&self) -> u64 {
        if self.chains.len() == 1 {
            self.height(0)
        } else {
            self.common_prefix_height
        }
    }

    /// `true` iff the whole run satisfied `T`-consistency: no reorg and
    /// no simultaneous divergence deeper than `T`.
    #[must_use]
    pub fn is_consistent(&self, t: u64) -> bool {
        self.max_reorg_depth <= t && self.max_divergence_depth <= t
    }
}

// Deterministic randomized sweeps (in-tree RNG; proptest is unavailable
// in the offline build environment).
#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::block::Provenance;
    use crate::tree::BlockTree;
    use probability::rng::{RandomSource, SplitMix64};

    impl ChainTracker {
        /// The adopted block of `group` at absolute `height`. Returns
        /// `None` if the chain is not that tall *or* the entry has been
        /// pruned away (below `base_height`).
        pub(crate) fn block_at(&self, group: usize, height: u64) -> Option<BlockId> {
            let idx = height.checked_sub(self.base_height)?;
            self.chains[group].get(idx as usize).copied()
        }
    }

    /// Random tree growth + adoption script: (action, argument) pairs where
    /// action 0 extends a random existing block, action 1 offers a random
    /// block to group 0, and action 2 offers one to group 1.
    fn random_script(rng: &mut SplitMix64) -> Vec<(u8, u8)> {
        let len = rng.next_range(1, 119) as usize;
        (0..len)
            .map(|_| (rng.next_below(3) as u8, rng.next_below(255) as u8))
            .collect()
    }

    /// Random tree growth + adoption: whatever the interleaving, the
    /// tracker's invariants must hold.
    #[test]
    fn tracker_invariants_under_random_interleavings() {
        let mut rng = SplitMix64::new(0xC0_01);
        for _ in 0..128 {
            let script = random_script(&mut rng);
            let mut tree = BlockTree::new();
            let mut tracker = ChainTracker::new(2);
            let mut blocks = vec![BlockId::GENESIS];
            let mut round = 0;
            for (action, arg) in script {
                match action {
                    0 => {
                        round += 1;
                        let parent = blocks[arg as usize % blocks.len()];
                        let id = tree.add_block(parent, round, Provenance::Honest(0));
                        blocks.push(id);
                    }
                    g @ (1 | 2) => {
                        let block = blocks[arg as usize % blocks.len()];
                        let group = (g - 1) as usize;
                        let before = tracker.height(group);
                        let adopted = tracker.consider(group, block, &tree);
                        // Longest-chain rule: adopt iff strictly higher.
                        assert_eq!(adopted, tree.height(block) > before);
                        if adopted {
                            assert_eq!(tracker.tip(group), block);
                        }
                    }
                    _ => unreachable!(),
                }
                // Invariants after every step.
                for group in 0..2 {
                    let tip = tracker.tip(group);
                    let h = tracker.height(group);
                    assert_eq!(tree.height(tip), h);
                    // The stored chain is the tree path of the tip.
                    for probe in [0, h / 2, h] {
                        let stored = tracker.block_at(group, probe).expect("within chain");
                        assert_eq!(stored, tree.ancestor_at_height(tip, probe));
                    }
                }
                let cp = tracker.common_prefix_height();
                let min_h = tracker.height(0).min(tracker.height(1));
                assert!(cp <= min_h);
                // The common prefix block really is shared.
                assert_eq!(
                    tracker.block_at(0, cp).expect("within chain"),
                    tracker.block_at(1, cp).expect("within chain")
                );
                // And the next block differs (or one chain ends there).
                if cp < min_h {
                    assert!(tracker.block_at(0, cp + 1) != tracker.block_at(1, cp + 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Provenance;

    #[test]
    fn single_group_extension_no_reorg() {
        let mut tree = BlockTree::new();
        let mut tracker = ChainTracker::new(1);
        let mut tip = BlockId::GENESIS;
        for r in 1..=10 {
            tip = tree.add_block(tip, r, Provenance::Honest(0));
            assert!(tracker.consider(0, tip, &tree));
        }
        assert_eq!(tracker.height(0), 10);
        assert_eq!(tracker.max_reorg_depth(), 0);
        assert_eq!(tracker.reorg_count(), 0);
        assert!(tracker.is_consistent(0));
    }

    #[test]
    fn lower_block_rejected() {
        let mut tree = BlockTree::new();
        let mut tracker = ChainTracker::new(1);
        let a = tree.add_block(BlockId::GENESIS, 1, Provenance::Honest(0));
        let b = tree.add_block(a, 2, Provenance::Honest(0));
        tracker.consider(0, b, &tree);
        // A sibling at the same height must not displace the tip.
        let sibling = tree.add_block(a, 2, Provenance::Adversary);
        assert!(!tracker.consider(0, sibling, &tree));
        assert_eq!(tracker.tip(0), b);
    }

    #[test]
    fn reorg_depth_measured() {
        let mut tree = BlockTree::new();
        let mut tracker = ChainTracker::new(1);
        // Honest chain: G → a → b → c.
        let a = tree.add_block(BlockId::GENESIS, 1, Provenance::Honest(0));
        let b = tree.add_block(a, 2, Provenance::Honest(0));
        let c = tree.add_block(b, 3, Provenance::Honest(0));
        for blk in [a, b, c] {
            tracker.consider(0, blk, &tree);
        }
        // Adversary releases a longer fork from `a`: a → x → y → z.
        let x = tree.add_block(a, 2, Provenance::Adversary);
        let y = tree.add_block(x, 3, Provenance::Adversary);
        let z = tree.add_block(y, 4, Provenance::Adversary);
        assert!(tracker.consider(0, z, &tree));
        // Blocks b and c (two blocks) were discarded.
        assert_eq!(tracker.max_reorg_depth(), 2);
        assert_eq!(tracker.reorg_count(), 1);
        assert_eq!(tracker.block_at(0, 2), Some(x));
        assert!(!tracker.is_consistent(1));
        assert!(tracker.is_consistent(2));
    }

    #[test]
    fn divergence_between_groups() {
        let mut tree = BlockTree::new();
        let mut tracker = ChainTracker::new(2);
        // Both groups at genesis; group 0 grows branch A (2 blocks),
        // group 1 grows branch B (3 blocks).
        let a1 = tree.add_block(BlockId::GENESIS, 1, Provenance::Honest(0));
        let a2 = tree.add_block(a1, 2, Provenance::Honest(0));
        let b1 = tree.add_block(BlockId::GENESIS, 1, Provenance::Honest(1));
        let b2 = tree.add_block(b1, 2, Provenance::Honest(1));
        let b3 = tree.add_block(b2, 3, Provenance::Honest(1));
        tracker.consider(0, a1, &tree);
        tracker.consider(0, a2, &tree);
        tracker.consider(1, b1, &tree);
        tracker.consider(1, b2, &tree);
        tracker.consider(1, b3, &tree);
        assert_eq!(tracker.common_prefix_height(), 0);
        // Deepest chain is 3 blocks beyond the common prefix (genesis).
        assert_eq!(tracker.max_divergence_depth(), 3);
        // Group 1's chain wins once delivered to group 0.
        assert!(tracker.consider(0, b3, &tree));
        assert_eq!(tracker.common_prefix_height(), 3);
        assert_eq!(tracker.max_reorg_depth(), 2);
    }

    #[test]
    fn common_prefix_advances_with_agreement() {
        let mut tree = BlockTree::new();
        let mut tracker = ChainTracker::new(2);
        let mut tip = BlockId::GENESIS;
        for r in 1..=5 {
            tip = tree.add_block(tip, r, Provenance::Honest(0));
            tracker.consider(0, tip, &tree);
            tracker.consider(1, tip, &tree);
        }
        assert_eq!(tracker.common_prefix_height(), 5);
        assert_eq!(tracker.max_divergence_depth(), 1, "momentary 1-block lead");
    }

    #[test]
    #[should_panic(expected = "1 or 2")]
    fn rejects_three_groups() {
        let _ = ChainTracker::new(3);
    }

    #[test]
    fn prune_below_preserves_absolute_queries_and_stats() {
        let mut tree = BlockTree::new();
        let mut tracker = ChainTracker::new(2);
        let mut tip = BlockId::GENESIS;
        let mut blocks = vec![BlockId::GENESIS];
        for r in 1..=10 {
            tip = tree.add_block(tip, r, Provenance::Honest(0));
            blocks.push(tip);
            tracker.consider(0, tip, &tree);
            tracker.consider(1, tip, &tree);
        }
        tracker.prune_below(6);
        assert_eq!(tracker.base_height(), 6);
        assert_eq!(tracker.height(0), 10, "heights stay absolute");
        assert_eq!(tracker.tip(1), tip);
        assert_eq!(tracker.block_at(0, 5), None, "pruned entries are gone");
        assert_eq!(tracker.block_at(0, 6), Some(blocks[6]));
        assert_eq!(tracker.common_prefix_height(), 10);
        // A reorg above the pruned base is still measured correctly.
        let fork = tree.add_block(blocks[8], 11, Provenance::Adversary);
        let fork2 = tree.add_block(fork, 12, Provenance::Adversary);
        let fork3 = tree.add_block(fork2, 13, Provenance::Adversary);
        assert!(tracker.consider(0, fork3, &tree));
        assert_eq!(tracker.max_reorg_depth(), 2, "blocks 9 and 10 discarded");
        assert_eq!(tracker.block_at(0, 9), Some(fork));
        // Idempotent / no-op below current base.
        tracker.prune_below(3);
        assert_eq!(tracker.base_height(), 6);
    }

    #[test]
    #[should_panic(expected = "above a chain tip")]
    fn prune_above_tip_rejected() {
        let mut tree = BlockTree::new();
        let mut tracker = ChainTracker::new(1);
        let a = tree.add_block(BlockId::GENESIS, 1, Provenance::Honest(0));
        tracker.consider(0, a, &tree);
        tracker.prune_below(5);
    }
}
