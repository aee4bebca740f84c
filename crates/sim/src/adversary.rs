//! Adversary strategies.
//!
//! The model (Section III) lets the adversary ① delay/reorder messages
//! up to Δ rounds and ② direct all corrupted miners (q sequential hash
//! queries per round). A strategy decides:
//!
//! * how long each honest block announcement is delayed per receiving
//!   group ([`Adversary::honest_delay`]), and
//! * where its own PoW successes mine and when/to whom blocks are
//!   released ([`Adversary::act`]).
//!
//! Five strategies are provided, one per [`StrategyKind`]:
//!
//! * [`ImmediateReleaseAdversary`] — behaves honestly; the baseline.
//! * [`PrivateChainAdversary`] — max-delays honest blocks and mines a
//!   withheld fork, releasing it when the public chain threatens to
//!   catch up (the classic double-spend / consistency attack).
//! * [`BalanceAdversary`] — splits the honest miners into two groups,
//!   max-delays cross-group traffic, and spends its own blocks keeping
//!   both branches level (the PSS-style attack of Remark 8.5 that
//!   motivates the paper's red line in Figure 1).
//! * [`SelfishMiningAdversary`] — Eyal–Sirer selfish mining.
//! * [`ComposedAdversary`] — several of the above at once over a shared
//!   mining-power budget.
//!
//! [`Strategy`] is the run-time choice among them: specs, scenario
//! phases and composition subs all build their strategy through
//! [`Strategy::new`], the one place a [`StrategyKind`] maps to a state
//! machine.

use crate::block::{BlockId, Provenance, Round};
use crate::compose::{ComposedAdversary, Composition};
use crate::scenario::StrategyKind;
use crate::selfish::SelfishMiningAdversary;
use crate::tree::BlockTree;

/// A directive to deliver `block` to honest group `group` after `delay`
/// rounds (clamped by the engine to `[1, Δ]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseDirective {
    /// Block to deliver.
    pub block: BlockId,
    /// Receiving honest group.
    pub group: usize,
    /// Delivery delay in rounds from the current round.
    pub delay: u64,
}

/// The higher of the two group tips, ties favouring group 0 — the
/// tie-break every strategy (and the scenario composition's rebase)
/// must share, or tied states would pick divergent mining bases.
pub(crate) fn best_tip(tree: &BlockTree, group_tips: &[BlockId; 2]) -> BlockId {
    if tree.height(group_tips[0]) >= tree.height(group_tips[1]) {
        group_tips[0]
    } else {
        group_tips[1]
    }
}

/// A monolithic strategy's wins this round: [`Adversary::act`] hands
/// it the round's total as the one entry of `successes`, or no entry on
/// a round without wins.
pub(crate) fn monolithic_wins(successes: &[u64]) -> u64 {
    debug_assert!(
        successes.len() <= 1,
        "a monolithic strategy gets at most one entry"
    );
    successes.first().copied().unwrap_or(0)
}

/// An adversary strategy driving delays and corrupted mining.
pub trait Adversary {
    /// Number of honest delivery groups the strategy wants (1 or 2).
    fn group_count(&self) -> usize {
        1
    }

    /// Delay, in rounds, applied to an honest block mined by
    /// `from_group` when delivered to `to_group` (`from ≠ to`). The
    /// engine clamps the result to `[1, Δ]`.
    fn honest_delay(&mut self, round: Round, from_group: usize, to_group: usize) -> u64;

    /// Reacts to this round's adversary PoW wins: mines private blocks
    /// by mutating `tree` and appends release directives to `releases`
    /// (an engine-owned buffer reused across rounds, so the per-round
    /// hot path never allocates; it arrives empty). `group_tips` holds
    /// each honest group's current tip (duplicated for single-group
    /// strategies).
    ///
    /// `successes` holds the round's wins: one entry per sub-adversary
    /// for a strategy that declares a split
    /// ([`Adversary::sub_miner_counts`]), the round's total as the one
    /// entry for a monolithic strategy, and no entry at all for a
    /// round without wins. A missing entry counts as zero.
    ///
    /// Every strategy must be *round-invariant*, because the engine
    /// skips quiet rounds (no PoW success, no delivery) without calling
    /// `act`:
    ///
    /// * its decisions depend only on the observable state (group tips,
    ///   tree, successes) and its own accumulated state — never on the
    ///   round number itself (using the round merely to stamp mined
    ///   blocks is fine), and
    /// * a call with zero successes and unchanged tips/tree, right
    ///   after a call that scheduled no releases, is a no-op that
    ///   schedules nothing.
    fn act(
        &mut self,
        round: Round,
        group_tips: &[BlockId; 2],
        tree: &mut BlockTree,
        successes: &[u64],
        releases: &mut Vec<ReleaseDirective>,
    );

    /// Miner counts of the strategy's sub-adversaries, for strategies
    /// that split the corrupted population across several concurrently
    /// running sub-strategies (see [`crate::compose`]). `None` — the
    /// default — means the strategy is monolithic and [`Adversary::act`]
    /// gets the round's total.
    ///
    /// When `Some(counts)` is returned, the engine configures the
    /// mining oracle to split each round's adversary successes across
    /// the sub-populations hypergeometrically (at the oracle level, on
    /// the per-trial mining stream — so composition inherits the
    /// Monte-Carlo engine's thread-count bit-identity for free) and
    /// hands [`Adversary::act`] one entry per sub-adversary. `counts`
    /// must sum to `n_adversary` and stay fixed between engine
    /// (re)configurations.
    fn sub_miner_counts(&self, n_adversary: u64) -> Option<Vec<u64>> {
        let _ = n_adversary;
        None
    }

    /// Blocks the strategy still holds references to (e.g. the tip of a
    /// withheld fork). The engine keeps the ancestor closure of these
    /// alive when pruning the block tree; everything else below the
    /// finalized common prefix may be discarded. Defaults to none.
    fn live_blocks(&self) -> Vec<BlockId> {
        Vec::new()
    }
}

/// Baseline adversary: publishes everything immediately and never
/// withholds — its blocks simply add to the longest chain.
#[derive(Debug, Clone, Default)]
pub struct ImmediateReleaseAdversary;

impl ImmediateReleaseAdversary {
    /// Creates the baseline adversary.
    #[must_use]
    pub fn new() -> Self {
        ImmediateReleaseAdversary
    }
}

impl Adversary for ImmediateReleaseAdversary {
    fn honest_delay(&mut self, _round: Round, _from: usize, _to: usize) -> u64 {
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
        // Honest behaviour: mine on the highest tip visible anywhere and
        // announce to every group at the minimum delay. In the native
        // single-group setting both tips coincide and the group-1
        // directives are filtered by the engine; under a two-group
        // scenario composition they are what keeps the baseline honest.
        let successes = monolithic_wins(successes);
        let mut tip = best_tip(tree, group_tips);
        for _ in 0..successes {
            tip = tree.add_block(tip, round, Provenance::Adversary);
            for group in 0..2 {
                releases.push(ReleaseDirective {
                    block: tip,
                    group,
                    delay: 1,
                });
            }
        }
    }
}

/// Withholds a private fork while max-delaying honest blocks; releases
/// the fork when the public chain gets within one block of it, forcing
/// the deepest reorg the accumulated private lead allows.
#[derive(Debug, Clone)]
pub struct PrivateChainAdversary {
    delta: u64,
    private_tip: BlockId,
    /// Private blocks not yet released, oldest first.
    withheld: Vec<BlockId>,
}

impl PrivateChainAdversary {
    /// Creates the private-chain adversary for delay bound `delta`.
    #[must_use]
    pub fn new(delta: u64) -> Self {
        PrivateChainAdversary {
            delta,
            private_tip: BlockId::GENESIS,
            withheld: Vec::new(),
        }
    }

    /// Dormant-fork bookkeeping (see [`Strategy`]): adopts `best` and
    /// drops the withheld fork iff the fork has strictly fallen behind
    /// — exactly the strategy's own first move on its next
    /// [`Adversary::act`] — and otherwise lets an empty fork follow
    /// `best`, so a dormant fork never pins the tree pruner.
    pub(crate) fn track_dormant(&mut self, best: BlockId, tree: &BlockTree) {
        if self.withheld.is_empty() || tree.height(self.private_tip) < tree.height(best) {
            self.private_tip = best;
            self.withheld.clear();
        }
    }
}

impl Adversary for PrivateChainAdversary {
    fn live_blocks(&self) -> Vec<BlockId> {
        // The withheld fork hangs off `private_tip`'s ancestor chain;
        // keeping the tip alive keeps the whole fork alive.
        vec![self.private_tip]
    }

    fn honest_delay(&mut self, _round: Round, _from: usize, _to: usize) -> u64 {
        self.delta
    }

    fn act(
        &mut self,
        round: Round,
        group_tips: &[BlockId; 2],
        tree: &mut BlockTree,
        successes: &[u64],
        releases: &mut Vec<ReleaseDirective>,
    ) {
        let successes = monolithic_wins(successes);
        // One height lookup per tip; the private height is then tracked
        // arithmetically (each mined block extends the tip by exactly
        // one), so the hot path never re-walks the arena.
        let h0 = tree.height(group_tips[0]);
        let h1 = tree.height(group_tips[1]);
        let (public_tip, public_height) = if h0 >= h1 {
            (group_tips[0], h0)
        } else {
            (group_tips[1], h1)
        };

        // Abandon a fallen-behind private fork (the move
        // `track_dormant` makes, reusing the heights already in hand).
        let mut private_height = tree.height(self.private_tip);
        if private_height < public_height {
            self.private_tip = public_tip;
            self.withheld.clear();
            private_height = public_height;
        }

        for _ in 0..successes {
            self.private_tip = tree.add_block(self.private_tip, round, Provenance::Adversary);
            self.withheld.push(self.private_tip);
        }
        private_height += successes;

        // Release the fork when the lead shrinks to one block: the
        // public network adopts the strictly longer private chain and
        // every honest block since the fork point is discarded.
        if !self.withheld.is_empty()
            && private_height > public_height
            && private_height - public_height <= 1
        {
            for &block in &self.withheld {
                for group in 0..2 {
                    releases.push(ReleaseDirective {
                        block,
                        group,
                        delay: 1,
                    });
                }
            }
            self.withheld.clear();
        }
    }
}

/// Splits the honest miners into two groups kept on two balanced
/// branches: cross-group honest traffic is delayed the full Δ, and the
/// adversary mines on whichever branch is behind, releasing instantly —
/// and *only* — to that branch's group. While its block budget keeps
/// up, the two branches grow in lock-step and never merge — consistency
/// fails at arbitrary depth.
#[derive(Debug, Clone)]
pub struct BalanceAdversary {
    delta: u64,
}

impl BalanceAdversary {
    /// Creates the balance adversary for delay bound `delta`.
    #[must_use]
    pub fn new(delta: u64) -> Self {
        BalanceAdversary { delta }
    }
}

impl Adversary for BalanceAdversary {
    fn group_count(&self) -> usize {
        2
    }

    fn honest_delay(&mut self, _round: Round, _from: usize, _to: usize) -> u64 {
        self.delta
    }

    fn act(
        &mut self,
        round: Round,
        group_tips: &[BlockId; 2],
        tree: &mut BlockTree,
        successes: &[u64],
        releases: &mut Vec<ReleaseDirective>,
    ) {
        let successes = monolithic_wins(successes);
        let mut tips = *group_tips;
        for _ in 0..successes {
            // Extend the branch that is behind (ties favour branch 0 so
            // the two branches stay distinct).
            let lagging = if tree.height(tips[0]) <= tree.height(tips[1]) {
                0
            } else {
                1
            };
            let block = tree.add_block(tips[lagging], round, Provenance::Adversary);
            tips[lagging] = block;
            // Deliver only to the lagging group: the boost keeps that
            // group on its branch, and the other group must never see
            // the balancing block directly or the views would merge.
            releases.push(ReleaseDirective {
                block,
                group: lagging,
                delay: 1,
            });
        }
    }
}

/// A strategy chosen at run time: one variant per [`StrategyKind`],
/// each wrapping the state machine that plays it. Stationary plans
/// clone the wrapped state machine per trial, scenario phases keep one
/// strategy per kind they run, and composition subs are built the same
/// way, so [`Strategy::new`] is the one place a kind maps to an
/// adversary.
///
/// Its [`Adversary`] impl dispatches every call with a `match`, which
/// costs a few percent of the round loop against the bare type.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// [`StrategyKind::Honest`].
    Honest(ImmediateReleaseAdversary),
    /// [`StrategyKind::PrivateChain`].
    PrivateChain(PrivateChainAdversary),
    /// [`StrategyKind::Balance`].
    Balance(BalanceAdversary),
    /// [`StrategyKind::Selfish`].
    Selfish(SelfishMiningAdversary),
    /// [`StrategyKind::Composed`].
    Composed(ComposedAdversary),
}

impl Strategy {
    /// Builds a fresh `kind` strategy for delay bound `delta`;
    /// `composed(i)` runs `compositions[i]`. Returns `None` only for a
    /// `composed(i)` past the table.
    #[must_use]
    pub fn new(kind: StrategyKind, delta: u64, compositions: &[Composition]) -> Option<Self> {
        Some(match kind {
            StrategyKind::Honest => Strategy::Honest(ImmediateReleaseAdversary::new()),
            StrategyKind::PrivateChain => Strategy::PrivateChain(PrivateChainAdversary::new(delta)),
            StrategyKind::Balance => Strategy::Balance(BalanceAdversary::new(delta)),
            StrategyKind::Selfish => Strategy::Selfish(SelfishMiningAdversary::new(delta)),
            StrategyKind::Composed(i) => {
                Strategy::Composed(ComposedAdversary::new(delta, compositions.get(i)?.clone()))
            }
        })
    }

    /// Dormant-fork bookkeeping, applied every round another strategy
    /// is active (idempotent under unchanged tips, so the fast-forward
    /// no-op contract holds): an idle fork strategy abandons a fork the
    /// public chain `best` has strictly overtaken — the move it would
    /// make itself on resume — and otherwise lets an empty fork follow
    /// `best`, so it never pins the tree pruner. A frozen fork still
    /// ahead stays alive through [`Adversary::live_blocks`].
    pub(crate) fn track_dormant(&mut self, best: BlockId, tree: &BlockTree) {
        match self {
            Strategy::PrivateChain(a) => a.track_dormant(best, tree),
            Strategy::Selfish(a) => a.track_dormant(best, tree),
            Strategy::Composed(a) => a.track_dormant(best, tree),
            Strategy::Honest(_) | Strategy::Balance(_) => {}
        }
    }
}

/// Evaluates `$call` with `$a` bound to the state machine `$strategy`
/// wraps. `$call` is compiled once per wrapped type, so an engine run
/// inside it is monomorphized for that type.
macro_rules! delegate {
    ($strategy:expr, $a:ident => $call:expr) => {
        match $strategy {
            $crate::adversary::Strategy::Honest($a) => $call,
            $crate::adversary::Strategy::PrivateChain($a) => $call,
            $crate::adversary::Strategy::Balance($a) => $call,
            $crate::adversary::Strategy::Selfish($a) => $call,
            $crate::adversary::Strategy::Composed($a) => $call,
        }
    };
}
pub(crate) use delegate;

impl Adversary for Strategy {
    fn group_count(&self) -> usize {
        delegate!(self, a => a.group_count())
    }

    fn honest_delay(&mut self, round: Round, from_group: usize, to_group: usize) -> u64 {
        delegate!(self, a => a.honest_delay(round, from_group, to_group))
    }

    fn act(
        &mut self,
        round: Round,
        group_tips: &[BlockId; 2],
        tree: &mut BlockTree,
        successes: &[u64],
        releases: &mut Vec<ReleaseDirective>,
    ) {
        delegate!(self, a => a.act(round, group_tips, tree, successes, releases));
    }

    fn sub_miner_counts(&self, n_adversary: u64) -> Option<Vec<u64>> {
        delegate!(self, a => a.sub_miner_counts(n_adversary))
    }

    fn live_blocks(&self) -> Vec<BlockId> {
        delegate!(self, a => a.live_blocks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::SubSpec;
    use crate::config::SimConfig;
    use crate::execution::run_simulation;

    impl PrivateChainAdversary {
        /// Current number of withheld blocks.
        pub(crate) fn withheld_len(&self) -> usize {
            self.withheld.len()
        }
    }

    fn tree_with_public_chain(len: u64) -> (BlockTree, BlockId) {
        let mut tree = BlockTree::new();
        let mut tip = BlockId::GENESIS;
        for r in 1..=len {
            tip = tree.add_block(tip, r, Provenance::Honest(0));
        }
        (tree, tip)
    }

    /// Test convenience: run `act` into a fresh buffer.
    fn act_collect<A: Adversary>(
        adv: &mut A,
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
    fn immediate_release_publishes_every_success() {
        let (mut tree, tip) = tree_with_public_chain(3);
        let mut adv = ImmediateReleaseAdversary::new();
        let releases = act_collect(&mut adv, 4, [tip, tip], &mut tree, 2);
        assert_eq!(releases.len(), 2 * 2, "2 blocks × 2 groups");
        // Successes chain on one another.
        assert_eq!(tree.height(releases[3].block), 5);
        assert!(releases.iter().all(|r| r.delay == 1));
        assert_eq!(
            releases.iter().filter(|r| r.group == 0).count(),
            2,
            "every block announced to every group"
        );
        assert_eq!(adv.honest_delay(4, 0, 1), 1);
    }

    #[test]
    fn private_chain_withholds_until_threatened() {
        let (mut tree, tip) = tree_with_public_chain(2);
        let mut adv = PrivateChainAdversary::new(8);
        assert_eq!(adv.honest_delay(1, 0, 1), 8, "max-delays honest blocks");
        // Adversary gets 3 successes: private chain reaches height 5 > 2.
        let releases = act_collect(&mut adv, 3, [tip, tip], &mut tree, 3);
        assert!(releases.is_empty(), "lead of 3 is safe; keep withholding");
        assert_eq!(adv.withheld_len(), 3);
        // Public chain grows to height 4: lead shrinks to 1 → release.
        let mut public_tip = tip;
        for r in 4..=5 {
            public_tip = tree.add_block(public_tip, r, Provenance::Honest(0));
        }
        let releases = act_collect(&mut adv, 6, [public_tip, public_tip], &mut tree, 0);
        assert_eq!(releases.len(), 3 * 2, "3 blocks × 2 groups");
        assert_eq!(adv.withheld_len(), 0);
    }

    #[test]
    fn private_chain_abandons_when_behind() {
        let (mut tree, tip) = tree_with_public_chain(5);
        let mut adv = PrivateChainAdversary::new(4);
        // One success from genesis-height private tip: it is behind the
        // public chain, so it restarts from the public tip.
        let _ = act_collect(&mut adv, 6, [tip, tip], &mut tree, 1);
        assert_eq!(tree.height(adv.private_tip), 6);
    }

    #[test]
    fn balance_extends_lagging_branch() {
        let mut tree = BlockTree::new();
        // Branch 0 has height 2, branch 1 height 1.
        let a1 = tree.add_block(BlockId::GENESIS, 1, Provenance::Honest(0));
        let a2 = tree.add_block(a1, 2, Provenance::Honest(0));
        let b1 = tree.add_block(BlockId::GENESIS, 1, Provenance::Honest(1));
        let mut adv = BalanceAdversary::new(5);
        assert_eq!(adv.group_count(), 2);
        let releases = act_collect(&mut adv, 3, [a2, b1], &mut tree, 1);
        assert_eq!(releases.len(), 1);
        let block = releases[0].block;
        // The new block extends branch 1 (the lagging one) and is
        // released only to that group, immediately.
        assert!(tree.is_ancestor(b1, block));
        assert_eq!(releases[0].group, 1);
        assert_eq!(releases[0].delay, 1);
    }

    #[test]
    fn balance_splits_budget_across_branches() {
        let mut tree = BlockTree::new();
        let mut adv = BalanceAdversary::new(3);
        // From a level start, two successes go to alternating branches
        // (0 first, then the other branch is lagging).
        let releases = act_collect(
            &mut adv,
            1,
            [BlockId::GENESIS, BlockId::GENESIS],
            &mut tree,
            2,
        );
        assert_eq!(releases.len(), 2);
        let first = releases[0].block;
        let second = releases[1].block;
        assert_eq!(tree.height(first), 1);
        assert_eq!(
            tree.height(second),
            1,
            "second success balances the other branch"
        );
        assert_ne!(first, second);
    }

    /// `Strategy` only dispatches: a run on `Strategy::new(kind, …)`
    /// equals the run on the bare type it wraps, for every kind.
    #[test]
    fn strategy_runs_equal_bare_runs() {
        let rounds = 20_000;
        let cfg = SimConfig::from_c(100, 4, 1.0, 0.4, 17).unwrap();
        let composition = Composition::new(vec![
            SubSpec::new(StrategyKind::Balance, 3),
            SubSpec::new(StrategyKind::Selfish, 1),
        ])
        .unwrap();
        let table = [composition.clone()];
        let d = cfg.delta;
        let cases = [
            (
                StrategyKind::Honest,
                run_simulation(cfg, ImmediateReleaseAdversary::new(), rounds),
            ),
            (
                StrategyKind::PrivateChain,
                run_simulation(cfg, PrivateChainAdversary::new(d), rounds),
            ),
            (
                StrategyKind::Balance,
                run_simulation(cfg, BalanceAdversary::new(d), rounds),
            ),
            (
                StrategyKind::Selfish,
                run_simulation(cfg, SelfishMiningAdversary::new(d), rounds),
            ),
            (
                StrategyKind::Composed(0),
                run_simulation(cfg, ComposedAdversary::new(d, composition), rounds),
            ),
        ];
        for (kind, bare) in cases {
            let strategy = Strategy::new(kind, d, &table).unwrap();
            assert_eq!(run_simulation(cfg, strategy, rounds), bare, "{kind:?}");
        }
        assert!(Strategy::new(StrategyKind::Composed(1), d, &table).is_none());
        assert!(Strategy::new(StrategyKind::Composed(0), d, &[]).is_none());
    }
}
