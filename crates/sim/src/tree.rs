//! The block tree: an arena of blocks rooted at genesis, prunable below
//! a finalized root.
//!
//! Block ids are *monotone*: every block keeps the id it was created
//! with forever, and ids are never reused — pruning drops a prefix of
//! the id space. This is what makes pruning behaviour-invisible: the
//! delivery queue orders same-round deliveries by id, so recycled ids
//! would change tie-breaks and make pruned runs diverge from unpruned
//! ones.

use crate::block::{Block, BlockId, Provenance, Round};

/// A tree of blocks rooted at genesis. Every block except genesis has
/// exactly one parent; heights are maintained on insertion.
///
/// Long runs finalize a common prefix that no future chain can fork
/// below; [`BlockTree::prune_to`] discards everything below such a
/// block so memory stays proportional to the *live* fork window rather
/// than the whole history. Heights stay absolute and the chain
/// composition of the pruned prefix is carried forward, so all
/// aggregate queries return the same answers as on the unpruned tree.
///
/// # Invariant
///
/// The tree always contains at least its root (genesis until the first
/// prune), so [`BlockTree::len`] is ≥ 1 and [`BlockTree::is_empty`] is
/// always `false`; the pair is kept coherent by deriving both from the
/// same storage.
///
/// # Examples
///
/// ```
/// use nakamoto_sim::tree::BlockTree;
/// use nakamoto_sim::block::{BlockId, Provenance};
///
/// let mut tree = BlockTree::new();
/// let a = tree.add_block(BlockId::GENESIS, 1, Provenance::Honest(0));
/// let b = tree.add_block(a, 2, Provenance::Adversary);
/// assert_eq!(tree.height(b), 2);
/// assert!(tree.is_ancestor(a, b));
/// ```
#[derive(Debug)]
pub struct BlockTree {
    /// Blocks with ids `offset..offset + blocks.len()`, in id order.
    /// A plain `Vec` (not a deque): indexing is the hottest operation
    /// in the simulator, and the front-drain on prune is rare and
    /// touches only the small resident window.
    blocks: Vec<Block>,
    /// Id of `blocks[0]` — everything below has been pruned.
    offset: u32,
    /// The current root: all *live* blocks descend from it. Genesis
    /// until the first prune.
    root: BlockId,
    /// Honest blocks on the pruned chain genesis → root (root included,
    /// genesis excluded).
    pruned_honest: u64,
    /// Adversary blocks on the pruned chain genesis → root.
    pruned_adversary: u64,
}

impl Default for BlockTree {
    fn default() -> Self {
        BlockTree::new()
    }
}

impl Clone for BlockTree {
    fn clone(&self) -> Self {
        BlockTree {
            blocks: self.blocks.clone(),
            offset: self.offset,
            root: self.root,
            pruned_honest: self.pruned_honest,
            pruned_adversary: self.pruned_adversary,
        }
    }

    /// Copies `source` into this tree's arena, reusing its allocation.
    /// The pattern names every field, so a field added later must be
    /// copied here too or the build fails.
    fn clone_from(&mut self, source: &Self) {
        let BlockTree {
            blocks,
            offset,
            root,
            pruned_honest,
            pruned_adversary,
        } = source;
        self.blocks.clone_from(blocks);
        self.offset = *offset;
        self.root = *root;
        self.pruned_honest = *pruned_honest;
        self.pruned_adversary = *pruned_adversary;
    }
}

impl BlockTree {
    /// Creates a tree holding only the genesis block.
    #[must_use]
    pub fn new() -> Self {
        let blocks = vec![Block {
            id: BlockId::GENESIS,
            parent: BlockId::GENESIS,
            height: 0,
            round: 0,
            provenance: Provenance::Genesis,
        }];
        BlockTree {
            blocks,
            offset: 0,
            root: BlockId::GENESIS,
            pruned_honest: 0,
            pruned_adversary: 0,
        }
    }

    /// Number of blocks currently resident (including the root; pruned
    /// blocks are not counted).
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` iff no blocks are resident. Kept coherent with
    /// [`BlockTree::len`] by construction, though the tree invariant
    /// (the root is always resident) means it always returns `false`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The current root: genesis, or the finalized block the tree was
    /// last pruned to.
    #[must_use]
    pub fn root(&self) -> BlockId {
        self.root
    }

    /// Total number of blocks ever added (including pruned ones and
    /// genesis); also the id the next added block will receive.
    #[must_use]
    pub fn total_created(&self) -> u64 {
        self.offset as u64 + self.blocks.len() as u64
    }

    /// Appends a block extending `parent`; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not resident in the tree or if more than
    /// `u32::MAX` blocks are ever created. Ids are monotone and never
    /// reused (see the module docs), so the id space — not memory — is
    /// the hard length limit of a run: ~4.3 × 10⁹ blocks, e.g. ≈ 5 ×
    /// 10¹⁰ rounds at c = 3. Widen `BlockId` to `u64` if runs beyond
    /// that are ever needed (costs arena size and cache pressure).
    pub fn add_block(&mut self, parent: BlockId, round: Round, provenance: Provenance) -> BlockId {
        let parent_block = self.block(parent);
        let height = parent_block.height + 1;
        let id = BlockId(u32::try_from(self.total_created()).expect("block id space overflow")); // detlint: allow(panic-expect) -- documented BlockId capacity limit: u32 suffices below ~1e10 rounds
        self.blocks.push(Block {
            id,
            parent,
            height,
            round,
            provenance,
        });
        id
    }

    /// Block metadata.
    ///
    /// # Panics
    ///
    /// Panics if `id` has been pruned or was never added.
    #[inline]
    #[must_use]
    pub fn block(&self, id: BlockId) -> &Block {
        assert!(
            id.0 >= self.offset,
            "block {id} was pruned (tree root is {})",
            self.root
        );
        &self.blocks[(id.0 - self.offset) as usize]
    }

    /// Height of a block (genesis is 0; heights stay absolute across
    /// pruning).
    #[inline]
    #[must_use]
    pub fn height(&self, id: BlockId) -> u64 {
        self.block(id).height
    }

    /// Parent of a block (the root returns itself pre-prune; after a
    /// prune the root's stored parent is no longer resident).
    #[inline]
    #[must_use]
    pub fn parent(&self, id: BlockId) -> BlockId {
        self.block(id).parent
    }

    /// The ancestor of `id` at exactly `target_height`.
    ///
    /// # Panics
    ///
    /// Panics if `target_height > height(id)` or if the ancestor has
    /// been pruned.
    #[must_use]
    pub fn ancestor_at_height(&self, id: BlockId, target_height: u64) -> BlockId {
        let mut cur = id;
        let h = self.height(id);
        assert!(
            target_height <= h,
            "target height {target_height} above block height {h}"
        );
        for _ in 0..(h - target_height) {
            cur = self.parent(cur);
        }
        cur
    }

    /// `true` iff `ancestor` lies on the chain from `descendant` to
    /// the root (a block is its own ancestor).
    #[must_use]
    pub fn is_ancestor(&self, ancestor: BlockId, descendant: BlockId) -> bool {
        let ha = self.height(ancestor);
        let hd = self.height(descendant);
        if ha > hd {
            return false;
        }
        self.ancestor_at_height(descendant, ha) == ancestor
    }

    /// The deepest common ancestor of two blocks.
    #[must_use]
    pub fn common_ancestor(&self, a: BlockId, b: BlockId) -> BlockId {
        let (mut x, mut y) = (a, b);
        let h = self.height(a).min(self.height(b));
        x = self.ancestor_at_height(x, h);
        y = self.ancestor_at_height(y, h);
        while x != y {
            x = self.parent(x);
            y = self.parent(y);
        }
        x
    }

    /// Number of honest / adversary blocks on the chain from `tip` to
    /// genesis (genesis excluded), *including* any pruned prefix that
    /// `tip`'s chain runs through. Chain quality is
    /// `honest / (honest + adversary)`.
    #[must_use]
    pub fn chain_composition(&self, tip: BlockId) -> (u64, u64) {
        let mut honest = self.pruned_honest;
        let mut adversary = self.pruned_adversary;
        let mut cur = tip;
        while cur != self.root {
            match self.block(cur).provenance {
                Provenance::Honest(_) => honest += 1,
                Provenance::Adversary => adversary += 1,
                Provenance::Genesis => {}
            }
            cur = self.parent(cur);
        }
        (honest, adversary)
    }

    /// Prunes everything below `new_root`: blocks with smaller ids —
    /// the whole finalized prefix plus any abandoned side branches that
    /// are older than `new_root` — are discarded, and `new_root`
    /// becomes the tree root.
    ///
    /// The caller must guarantee that every id it will ever use again
    /// (tips, in-flight deliveries, withheld forks) descends from
    /// `new_root`; the engine derives `new_root` as the common ancestor
    /// of exactly that live set, which is why no future chain can fork
    /// below it. Side branches *newer* than `new_root` stay resident
    /// until a later prune overtakes their ids.
    ///
    /// # Panics
    ///
    /// Panics if `new_root` is not resident or does not descend from
    /// the current root.
    pub fn prune_to(&mut self, new_root: BlockId) {
        assert!(
            self.is_ancestor(self.root, new_root),
            "new root {new_root} must descend from the current root {}",
            self.root
        );
        if new_root == self.root {
            return;
        }
        // Fold the chain (old_root, new_root] into the prefix summary.
        let mut cur = new_root;
        while cur != self.root {
            match self.block(cur).provenance {
                Provenance::Honest(_) => self.pruned_honest += 1,
                Provenance::Adversary => self.pruned_adversary += 1,
                Provenance::Genesis => {}
            }
            cur = self.parent(cur);
        }
        let drop = new_root.0 - self.offset;
        self.blocks.drain(..drop as usize);
        self.offset = new_root.0;
        self.root = new_root;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds genesis → a → b → c and a side chain genesis → a → d.
    fn fixture() -> (BlockTree, BlockId, BlockId, BlockId, BlockId) {
        let mut t = BlockTree::new();
        let a = t.add_block(BlockId::GENESIS, 1, Provenance::Honest(0));
        let b = t.add_block(a, 2, Provenance::Honest(0));
        let c = t.add_block(b, 3, Provenance::Adversary);
        let d = t.add_block(a, 2, Provenance::Honest(1));
        (t, a, b, c, d)
    }

    #[test]
    fn new_tree_has_genesis_only() {
        let t = BlockTree::new();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.root(), BlockId::GENESIS);
        assert_eq!(t.height(BlockId::GENESIS), 0);
        assert_eq!(t.block(BlockId::GENESIS).provenance, Provenance::Genesis);
    }

    #[test]
    fn len_and_is_empty_are_coherent() {
        // The invariant: at least the root is always resident.
        let (t, ..) = fixture();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert!(!t.is_empty());
    }

    #[test]
    fn heights_follow_parents() {
        let (t, a, b, c, d) = fixture();
        assert_eq!(t.height(a), 1);
        assert_eq!(t.height(b), 2);
        assert_eq!(t.height(c), 3);
        assert_eq!(t.height(d), 2);
    }

    #[test]
    fn chain_iteration_order() {
        let (t, a, b, c, _) = fixture();
        let ids: Vec<BlockId> = (0..=3).rev().map(|h| t.ancestor_at_height(c, h)).collect();
        assert_eq!(ids, vec![c, b, a, BlockId::GENESIS]);
    }

    #[test]
    fn ancestor_queries() {
        let (t, a, b, c, d) = fixture();
        assert!(t.is_ancestor(a, c));
        assert!(t.is_ancestor(BlockId::GENESIS, d));
        assert!(t.is_ancestor(c, c), "a block is its own ancestor");
        assert!(!t.is_ancestor(b, d), "siblings' subtrees are unrelated");
        assert!(!t.is_ancestor(c, a), "descendant is not an ancestor");
        assert_eq!(t.ancestor_at_height(c, 1), a);
        assert_eq!(t.ancestor_at_height(c, 3), c);
    }

    #[test]
    fn common_ancestor_at_fork() {
        let (t, a, b, c, d) = fixture();
        assert_eq!(t.common_ancestor(c, d), a);
        assert_eq!(t.common_ancestor(c, b), b);
        assert_eq!(t.common_ancestor(d, d), d);
        assert_eq!(t.common_ancestor(BlockId::GENESIS, c), BlockId::GENESIS);
    }

    #[test]
    fn chain_composition_counts() {
        let (t, _, _, c, d) = fixture();
        assert_eq!(t.chain_composition(c), (2, 1));
        assert_eq!(t.chain_composition(d), (2, 0));
        assert_eq!(t.chain_composition(BlockId::GENESIS), (0, 0));
    }

    #[test]
    #[should_panic(expected = "above block height")]
    fn ancestor_above_height_panics() {
        let (t, a, ..) = fixture();
        let _ = t.ancestor_at_height(a, 5);
    }

    #[test]
    fn prune_drops_prefix_and_keeps_queries_consistent() {
        let (mut t, _a, b, c, d) = fixture();
        let e = t.add_block(c, 4, Provenance::Honest(0));
        t.prune_to(b);
        assert_eq!(t.root(), b);
        // Genesis and `a` (ids below b's) are gone; the stale sibling
        // `d` has a newer id than `b`, so it stays resident until a
        // later prune passes its id.
        assert_eq!(t.len(), 4); // b, c, d, e
        assert_eq!(t.height(d), 2);
        assert_eq!(t.height(e), 4);
    }

    #[test]
    fn prune_preserves_heights_composition_and_walks() {
        // Chain: G → h1 → h2 → A3 → h4 → h5, plus a stale sibling.
        let mut t = BlockTree::new();
        let h1 = t.add_block(BlockId::GENESIS, 1, Provenance::Honest(0));
        let h2 = t.add_block(h1, 2, Provenance::Honest(0));
        let stale = t.add_block(h1, 2, Provenance::Honest(1));
        let a3 = t.add_block(h2, 3, Provenance::Adversary);
        let h4 = t.add_block(a3, 4, Provenance::Honest(0));
        let h5 = t.add_block(h4, 5, Provenance::Honest(0));
        let before = t.chain_composition(h5);
        let before_len = t.len();

        t.prune_to(a3);
        assert_eq!(t.root(), a3);
        assert!(t.len() < before_len, "prefix was dropped");
        // Absolute heights survive.
        assert_eq!(t.height(h5), 5);
        assert_eq!(t.height(a3), 3);
        // Composition includes the pruned prefix (2 honest) and the
        // pruned root itself (1 adversary).
        assert_eq!(t.chain_composition(h5), before);
        assert_eq!(t.chain_composition(h5), (4, 1));
        assert!(t.is_ancestor(a3, h5));
        assert_eq!(t.ancestor_at_height(h5, 3), a3);
        assert_eq!(t.common_ancestor(h5, h4), h4);
        // New blocks keep monotone ids.
        let h6 = t.add_block(h5, 6, Provenance::Honest(0));
        assert!(h6 > h5);
        assert_eq!(t.total_created(), 8);
        let _ = stale;
    }

    #[test]
    fn repeated_prunes_accumulate_prefix_counts() {
        let mut t = BlockTree::new();
        let mut tip = BlockId::GENESIS;
        let mut checkpoints = Vec::new();
        for r in 1..=20u64 {
            let prov = if r % 3 == 0 {
                Provenance::Adversary
            } else {
                Provenance::Honest(0)
            };
            tip = t.add_block(tip, r, prov);
            if r % 5 == 0 {
                checkpoints.push(tip);
            }
        }
        let expected = t.chain_composition(tip);
        for cp in checkpoints {
            t.prune_to(cp);
            assert_eq!(t.chain_composition(tip), expected);
        }
        // Final prune point is the tip itself: only it remains.
        assert_eq!(t.len(), 1);
        assert_eq!(t.root(), tip);
    }

    #[test]
    #[should_panic(expected = "was pruned")]
    fn pruned_block_access_panics() {
        let (mut t, a, b, ..) = fixture();
        t.prune_to(b);
        let _ = t.block(a);
    }

    #[test]
    #[should_panic(expected = "must descend")]
    fn prune_to_side_branch_rejected() {
        let (mut t, _, b, _, d) = fixture();
        t.prune_to(b);
        // d does not descend from b.
        t.prune_to(d);
    }

    #[test]
    fn prune_to_root_is_a_no_op() {
        let (mut t, _, b, ..) = fixture();
        t.prune_to(b);
        let len = t.len();
        t.prune_to(b);
        assert_eq!(t.len(), len);
    }

    #[test]
    fn deep_chain_is_fast_enough() {
        // 200k blocks deep: linear walks must be fine.
        let mut t = BlockTree::new();
        let mut tip = BlockId::GENESIS;
        for r in 1..=200_000u64 {
            tip = t.add_block(tip, r, Provenance::Honest(0));
        }
        assert_eq!(t.height(tip), 200_000);
        assert_eq!(t.ancestor_at_height(tip, 0), BlockId::GENESIS);
    }

    #[test]
    fn pruned_deep_chain_stays_small() {
        let mut t = BlockTree::new();
        let mut tip = BlockId::GENESIS;
        for r in 1..=200_000u64 {
            tip = t.add_block(tip, r, Provenance::Honest(0));
            if r % 1_000 == 0 {
                t.prune_to(tip);
            }
        }
        assert!(t.len() <= 1_001, "len {} not bounded", t.len());
        assert_eq!(t.height(tip), 200_000);
        assert_eq!(t.chain_composition(tip), (200_000, 0));
    }
}
