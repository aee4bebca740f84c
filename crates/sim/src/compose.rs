//! Composed adversaries: N sub-strategies acting **simultaneously**
//! over a shared mining-power budget.
//!
//! The paper's consistency bounds are adversary-agnostic — they hold
//! against *any* schedule the Δ-bounded adversary can produce, not just
//! the pure withholding, balancing, or selfish-mining strategies the
//! stationary simulator ships. The scenario layer (PR 3) lets those
//! strategies *alternate* across phases; this module lets them *run at
//! once*: a [`ComposedAdversary`] splits the corrupted miners across
//! sub-strategies by weight and, each round, hands every sub-strategy
//! the PoW successes its own miners scored.
//!
//! # Oracle-level success allocation
//!
//! The per-round allocation is not done by the adversary: the engine
//! configures the mining oracle with the sub-adversary miner counts
//! ([`crate::adversary::Adversary::sub_miner_counts`]), and the oracle
//! splits each sampled adversary total across the sub-populations by a
//! multivariate hypergeometric draw on the **per-trial mining stream**
//! (see [`crate::oracle::MiningOracle::set_adversary_split`]). Two
//! consequences:
//!
//! * the joint law over `[group 0, group 1, sub 1, …, sub m]` is
//!   exactly the flat hypergeometric split of the round total — each
//!   sub-adversary mines precisely like `weightᵢ/Σw` of the corrupted
//!   miners, and
//! * composition inherits the Monte-Carlo engine's determinism for
//!   free: aggregates are **bit-identical at any thread count**, and a
//!   degenerate composition (one sub-strategy, or zero-weight
//!   passengers) consumes no extra randomness, so it is bit-identical
//!   to the bare strategy.
//!
//! # Arbitration
//!
//! Sub-strategies share one block tree and one delivery network, so
//! their decisions interact: Balance's branch-levelling blocks raise
//! the public height Selfish reacts to, Selfish's revealed fork becomes
//! the tip Balance feeds its next balancing block to, and so on. Most
//! of that interplay composes naturally through the shared state; what
//! does *not* compose is **release scheduling** — a splitter (Balance)
//! needs the two honest groups to keep divergent views, while a
//! revealer (PrivateChain / Selfish / Honest) announces the same block
//! to *both* groups, merging the views the splitter is spending its
//! budget to keep apart.
//!
//! The arbiter resolves that conflict by **priority = sub order**:
//!
//! 1. duplicate directives for the same `(block, group)` are merged to
//!    the earliest delay, and
//! 2. while the two group views differ, a both-group release emitted by
//!    a sub-strategy ranked *below* an active Balance sub has its copy
//!    to the **leading** group delayed to the full Δ — the most the
//!    model's scheduling power allows — keeping the split alive up to
//!    Δ−1 more rounds while still honouring the release. Directives
//!    from sub-strategies ranked above every Balance sub pass
//!    unchanged.
//!
//! Put Balance first to protect the split; put the fork strategy first
//! to protect its reveal timing. [`ComposedAdversary::throttled_releases`]
//! counts how often rule 2 fired.
//!
//! # Example
//!
//! ```
//! use nakamoto_sim::compose::{ComposedAdversary, Composition, SubSpec};
//! use nakamoto_sim::config::SimConfig;
//! use nakamoto_sim::execution::run_simulation;
//! use nakamoto_sim::scenario::StrategyKind;
//!
//! let cfg = SimConfig::from_c(100, 4, 1.0, 0.4, 7)?;
//! let composition = Composition::new(vec![
//!     SubSpec::new(StrategyKind::Balance, 3),
//!     SubSpec::new(StrategyKind::Selfish, 1),
//! ])?;
//! let report = run_simulation(
//!     cfg,
//!     ComposedAdversary::new(cfg.delta, composition),
//!     50_000,
//! );
//! assert!(report.adversary_blocks > 0);
//! # Ok::<(), nakamoto_sim::config::ConfigError>(())
//! ```

use crate::adversary::{Adversary, ReleaseDirective, Strategy};
use crate::block::{BlockId, Round};
use crate::config::ConfigError;
use crate::scenario::StrategyKind;
use crate::tree::BlockTree;

/// One sub-strategy of a composition: a base strategy plus its share of
/// the corrupted miners, as an integer weight (shares are `weight / Σ
/// weights`; the actual miner counts are apportioned by largest
/// remainder, see [`apportion_miners`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubSpec {
    /// The sub-strategy (must not itself be
    /// [`StrategyKind::Composed`]; compositions do not nest).
    pub strategy: StrategyKind,
    /// Relative share of the corrupted miners. A zero-weight sub is a
    /// validated no-op: it never mines, is never consulted, and leaves
    /// the run bit-identical to the composition without it.
    pub weight: u64,
}

impl SubSpec {
    /// Creates a sub-strategy spec.
    #[must_use]
    pub fn new(strategy: StrategyKind, weight: u64) -> Self {
        SubSpec { strategy, weight }
    }
}

/// A validated list of sub-strategies with positive total weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Composition {
    subs: Vec<SubSpec>,
}

impl Composition {
    /// Validates and builds a composition.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `subs` is empty, the total weight is
    /// zero, or a sub-strategy is itself [`StrategyKind::Composed`]
    /// (compositions do not nest — a nested composition is just a
    /// flattened weight list).
    pub fn new(subs: Vec<SubSpec>) -> Result<Self, ConfigError> {
        if subs.is_empty() {
            return Err(ConfigError::new(
                "a composition needs at least one sub-strategy",
            ));
        }
        if subs.iter().map(|s| s.weight).sum::<u64>() == 0 {
            return Err(ConfigError::new(
                "a composition needs positive total weight",
            ));
        }
        for (i, sub) in subs.iter().enumerate() {
            if matches!(sub.strategy, StrategyKind::Composed(_)) {
                return Err(ConfigError::new(format!(
                    "sub-strategy {i} is itself a composition; compositions do not nest"
                )));
            }
        }
        Ok(Composition { subs })
    }

    /// The sub-strategies, in priority order.
    #[must_use]
    pub fn subs(&self) -> &[SubSpec] {
        &self.subs
    }
}

/// Apportions `total` miners across integer `weights` by largest
/// remainder (quota = `total·wᵢ/Σw`, floors first, leftover miners to
/// the largest fractional remainders, ties to the lowest index) — the
/// single deterministic policy shared by engine configuration and
/// re-configuration, mirroring how `split_honest` pins the honest
/// split.
///
/// # Panics
///
/// Panics if `weights` sums to zero (ruled out by
/// [`Composition::new`]).
#[must_use]
pub fn apportion_miners(total: u64, weights: &[u64]) -> Vec<u64> {
    let w_total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    assert!(w_total > 0, "apportionment over zero total weight");
    let mut counts = Vec::with_capacity(weights.len());
    let mut remainders = Vec::with_capacity(weights.len());
    for (i, &w) in weights.iter().enumerate() {
        let num = u128::from(total) * u128::from(w);
        counts.push((num / w_total) as u64);
        remainders.push((num % w_total, i));
    }
    let leftover = total - counts.iter().sum::<u64>();
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in remainders.iter().take(leftover as usize) {
        counts[i] += 1;
    }
    counts
}

/// N sub-strategies running concurrently over a shared mining-power
/// budget, with oracle-level hypergeometric success allocation and a
/// priority-ordered release arbiter (see the [module docs](self)).
///
/// It is round-invariant (see [`Adversary::act`]): every sub is, a
/// quiet round allocates and draws nothing, and the arbiter reads only
/// observable state.
#[derive(Debug, Clone)]
pub struct ComposedAdversary {
    delta: u64,
    weights: Vec<u64>,
    subs: Vec<Strategy>,
    /// Priority index of the first active Balance sub, if any — the
    /// boundary below which rule 2 of the arbiter applies.
    first_balance: Option<usize>,
    throttled_releases: u64,
}

impl ComposedAdversary {
    /// Builds the composed adversary for delay bound `delta`.
    #[must_use]
    pub fn new(delta: u64, composition: Composition) -> Self {
        // `Composition::new` rejects nested compositions, so every sub
        // is monolithic and builds without a table.
        let (weights, subs): (Vec<u64>, Vec<Strategy>) = composition
            .subs()
            .iter()
            .filter_map(|s| Some((s.weight, Strategy::new(s.strategy, delta, &[])?)))
            .unzip();
        let first_balance = subs
            .iter()
            .zip(&weights)
            .position(|(sub, &w)| w > 0 && matches!(sub, Strategy::Balance(_)));
        ComposedAdversary {
            delta,
            weights,
            subs,
            first_balance,
            throttled_releases: 0,
        }
    }

    /// How often the arbiter's split-preservation rule delayed a
    /// view-merging release (see the [module docs](self)).
    #[must_use]
    pub fn throttled_releases(&self) -> u64 {
        self.throttled_releases
    }

    /// Dormant-fork bookkeeping (see [`Strategy`]), applied to every
    /// active sub: frozen sub-forks are abandoned once overtaken and
    /// empty fork bases follow the public tip instead of pinning the
    /// pruner.
    pub(crate) fn track_dormant(&mut self, best: BlockId, tree: &BlockTree) {
        for (sub, &w) in self.subs.iter_mut().zip(&self.weights) {
            if w > 0 {
                sub.track_dormant(best, tree);
            }
        }
    }

    /// The arbiter (module docs, rules 1–2), applied to the directives
    /// this round appended (`releases[start..]`).
    fn arbitrate(
        &mut self,
        group_tips: &[BlockId; 2],
        tree: &BlockTree,
        releases: &mut Vec<ReleaseDirective>,
        start: usize,
        guard_start: Option<usize>,
    ) {
        // Rule 2: below an active Balance sub, both-group releases have
        // their leading-group copy delayed to Δ while the views differ.
        if let Some(guard) = guard_start {
            if group_tips[0] != group_tips[1] {
                let lagging = if tree.height(group_tips[0]) <= tree.height(group_tips[1]) {
                    0
                } else {
                    1
                };
                let leading = 1 - lagging;
                for i in guard..releases.len() {
                    if releases[i].group != leading || releases[i].delay >= self.delta {
                        continue;
                    }
                    let block = releases[i].block;
                    let merging = releases[guard..] // detlint: allow(panic-slice-index) -- inside `for i in guard..releases.len()`, so guard < len
                        .iter()
                        .any(|r| r.block == block && r.group == lagging);
                    if merging {
                        releases[i].delay = self.delta;
                        self.throttled_releases += 1;
                    }
                }
            }
        }
        // Rule 1: merge duplicate (block, group) directives to the
        // earliest delay, keeping first-occurrence order.
        let mut i = start;
        while i < releases.len() {
            let mut j = i + 1;
            while j < releases.len() {
                if releases[j].block == releases[i].block && releases[j].group == releases[i].group
                {
                    let delay = releases[i].delay.min(releases[j].delay);
                    releases[i].delay = delay;
                    releases.remove(j);
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
    }
}

impl Adversary for ComposedAdversary {
    fn group_count(&self) -> usize {
        // Same predicate as the arbiter guard: an active Balance sub
        // is what splits the honest views.
        if self.first_balance.is_some() {
            2
        } else {
            1
        }
    }

    fn honest_delay(&mut self, round: Round, from: usize, to: usize) -> u64 {
        // The most adversarial request among the active sub-strategies:
        // the composition controls the network at least as tightly as
        // each of its parts (the engine clamps to [1, Δ]).
        let mut delay = 1;
        for (sub, &w) in self.subs.iter_mut().zip(&self.weights) {
            if w > 0 {
                delay = delay.max(sub.honest_delay(round, from, to));
            }
        }
        delay
    }

    fn sub_miner_counts(&self, n_adversary: u64) -> Option<Vec<u64>> {
        Some(apportion_miners(n_adversary, &self.weights))
    }

    fn act(
        &mut self,
        round: Round,
        group_tips: &[BlockId; 2],
        tree: &mut BlockTree,
        successes: &[u64],
        releases: &mut Vec<ReleaseDirective>,
    ) {
        let start = releases.len();
        let mut guard_start = None;
        for (i, (sub, &w)) in self.subs.iter_mut().zip(&self.weights).enumerate() {
            if w == 0 {
                continue;
            }
            // Sub `i`'s wins; a round without wins passes no entries.
            let won = successes.get(i).copied().unwrap_or(0);
            sub.act(round, group_tips, tree, &[won], releases);
            if self.first_balance == Some(i) {
                guard_start = Some(releases.len());
            }
        }
        self.arbitrate(group_tips, tree, releases, start, guard_start);
    }

    fn live_blocks(&self) -> Vec<BlockId> {
        let mut blocks = Vec::new();
        for (sub, &w) in self.subs.iter().zip(&self.weights) {
            if w > 0 {
                blocks.extend(sub.live_blocks());
            }
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BalanceAdversary, ImmediateReleaseAdversary, PrivateChainAdversary};
    use crate::config::SimConfig;
    use crate::execution::{run_simulation, Simulation};
    use crate::metrics::SimReport;
    use crate::montecarlo::{aggregate_reports, trial_streams, TrialPlan};
    use crate::selfish::SelfishMiningAdversary;

    fn composition(specs: &[(StrategyKind, u64)]) -> Composition {
        Composition::new(
            specs
                .iter()
                .map(|&(strategy, weight)| SubSpec::new(strategy, weight))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn composition_validation() {
        assert!(Composition::new(vec![]).is_err(), "empty");
        assert!(
            Composition::new(vec![SubSpec::new(StrategyKind::Balance, 0)]).is_err(),
            "zero total weight"
        );
        assert!(
            Composition::new(vec![SubSpec::new(StrategyKind::Composed(0), 1)]).is_err(),
            "nested composition"
        );
        let c = composition(&[(StrategyKind::Balance, 2), (StrategyKind::Selfish, 1)]);
        assert_eq!(ComposedAdversary::new(4, c).group_count(), 2);
        let c = composition(&[(StrategyKind::Balance, 0), (StrategyKind::Selfish, 1)]);
        assert_eq!(
            ComposedAdversary::new(4, c).group_count(),
            1,
            "zero-weight balance forces nothing"
        );
    }

    #[test]
    fn apportionment_is_exact_and_deterministic() {
        assert_eq!(apportion_miners(10, &[1, 1]), vec![5, 5]);
        assert_eq!(apportion_miners(10, &[3, 1]), vec![8, 2]);
        assert_eq!(apportion_miners(0, &[3, 1]), vec![0, 0]);
        assert_eq!(
            apportion_miners(7, &[1, 0, 1]),
            vec![4, 0, 3],
            "tie → low index"
        );
        assert_eq!(apportion_miners(1, &[1, 1, 1]), vec![1, 0, 0]);
        for total in [0u64, 1, 7, 40, 1000] {
            for weights in [&[1u64, 2, 3][..], &[5, 0, 5], &[7], &[2, 2, 2, 1]] {
                let counts = apportion_miners(total, weights);
                assert_eq!(
                    counts.iter().sum::<u64>(),
                    total,
                    "{total} over {weights:?}"
                );
                for (c, &w) in counts.iter().zip(weights) {
                    assert!(w > 0 || *c == 0, "zero weight must get zero miners");
                }
            }
        }
    }

    #[test]
    fn arbiter_merges_duplicate_directives() {
        let mut adv = ComposedAdversary::new(
            4,
            composition(&[(StrategyKind::Honest, 1), (StrategyKind::Honest, 1)]),
        );
        let tree = BlockTree::new();
        let block = BlockId::GENESIS;
        let mut releases = vec![
            ReleaseDirective {
                block,
                group: 0,
                delay: 3,
            },
            ReleaseDirective {
                block,
                group: 1,
                delay: 1,
            },
            ReleaseDirective {
                block,
                group: 0,
                delay: 1,
            },
        ];
        adv.arbitrate(&[block, block], &tree, &mut releases, 0, None);
        assert_eq!(
            releases,
            vec![
                ReleaseDirective {
                    block,
                    group: 0,
                    delay: 1
                },
                ReleaseDirective {
                    block,
                    group: 1,
                    delay: 1
                },
            ],
            "duplicates merged to the earliest delay, order kept"
        );
    }

    /// Tentpole degenerate case: a single-sub composition must be
    /// bit-identical to the bare strategy — the composition layer, the
    /// oracle sub-split, and the arbiter all add zero behaviour and
    /// zero randomness.
    #[test]
    fn single_sub_composition_equals_bare_strategy() {
        let rounds = 30_000;
        let cases: [(StrategyKind, u64); 4] = [
            (StrategyKind::Honest, 31),
            (StrategyKind::PrivateChain, 32),
            (StrategyKind::Balance, 33),
            (StrategyKind::Selfish, 34),
        ];
        for (kind, seed) in cases {
            let cfg = SimConfig::from_c(100, 4, 1.0, 0.35, seed).unwrap();
            let composed = run_simulation(
                cfg,
                ComposedAdversary::new(cfg.delta, composition(&[(kind, 7)])),
                rounds,
            );
            let bare = match kind {
                StrategyKind::Honest => {
                    run_simulation(cfg, ImmediateReleaseAdversary::new(), rounds)
                }
                StrategyKind::PrivateChain => {
                    run_simulation(cfg, PrivateChainAdversary::new(cfg.delta), rounds)
                }
                StrategyKind::Balance => {
                    run_simulation(cfg, BalanceAdversary::new(cfg.delta), rounds)
                }
                StrategyKind::Selfish => {
                    run_simulation(cfg, SelfishMiningAdversary::new(cfg.delta), rounds)
                }
                StrategyKind::Composed(_) => unreachable!(),
            };
            assert_eq!(composed, bare, "{kind:?}");
        }
    }

    /// Tentpole degenerate case: a zero-power sub-adversary is a no-op —
    /// the run is bit-identical with and without the passenger, for any
    /// passenger kind and position.
    #[test]
    fn zero_power_sub_adversary_is_a_noop() {
        let rounds = 30_000;
        let cfg = SimConfig::from_c(100, 4, 1.0, 0.4, 41).unwrap();
        let reference = run_simulation(
            cfg,
            ComposedAdversary::new(cfg.delta, composition(&[(StrategyKind::PrivateChain, 3)])),
            rounds,
        );
        for passenger in [
            StrategyKind::Honest,
            StrategyKind::PrivateChain,
            StrategyKind::Balance,
            StrategyKind::Selfish,
        ] {
            for specs in [
                &[(StrategyKind::PrivateChain, 3), (passenger, 0)][..],
                &[(passenger, 0), (StrategyKind::PrivateChain, 3)][..],
            ] {
                let padded = run_simulation(
                    cfg,
                    ComposedAdversary::new(cfg.delta, composition(specs)),
                    rounds,
                );
                assert_eq!(padded, reference, "passenger {passenger:?} in {specs:?}");
            }
        }
        // And against the bare strategy itself.
        let bare = run_simulation(cfg, PrivateChainAdversary::new(cfg.delta), rounds);
        assert_eq!(reference, bare);
    }

    /// A genuine two-sub composition splits the block budget by weight:
    /// each sub-population mines ≈ its share of the adversary rate, and
    /// both strategies leave their signature on the run.
    #[test]
    fn two_sub_composition_splits_budget_by_weight() {
        let cfg = SimConfig::from_c(100, 4, 1.0, 0.4, 47).unwrap();
        let mut sim = Simulation::new(
            cfg,
            ComposedAdversary::new(
                cfg.delta,
                composition(&[(StrategyKind::Balance, 3), (StrategyKind::PrivateChain, 1)]),
            ),
        );
        sim.run(200_000);
        let report = sim.report();
        // 0.4 × 100 = 40 adversary miners → 30/10 split; adversary rate
        // is pνn per round.
        let expected = 200_000.0 * cfg.hardness * 40.0;
        let got = report.adversary_blocks as f64;
        assert!(
            (got - expected).abs() < 0.1 * expected,
            "rate {got} vs {expected}"
        );
        assert_eq!(report.group_tips.len(), 2, "balance sub forces two groups");
        assert!(
            report.max_divergence_depth >= 2,
            "balance sub splits the views"
        );
        assert!(report.reorg_count > 0, "private sub forces reorgs");
    }

    /// The arbiter's split-preservation rule fires when a revealer is
    /// ranked below Balance, and is structurally silent when Balance is
    /// ranked last.
    #[test]
    fn arbiter_throttles_view_merging_releases_below_balance() {
        let cfg = SimConfig::from_c(100, 4, 1.0, 0.45, 53).unwrap();
        let run = |specs: &[(StrategyKind, u64)]| {
            let mut sim =
                Simulation::new(cfg, ComposedAdversary::new(cfg.delta, composition(specs)));
            sim.run(200_000);
            sim.adversary().throttled_releases()
        };
        let protected = run(&[(StrategyKind::Balance, 2), (StrategyKind::PrivateChain, 2)]);
        assert!(
            protected > 0,
            "a private-chain reveal below balance must get throttled"
        );
        let unprotected = run(&[(StrategyKind::PrivateChain, 2), (StrategyKind::Balance, 2)]);
        assert_eq!(
            unprotected, 0,
            "above balance, reveals pass through untouched"
        );
    }

    /// Acceptance: composed-adversary Monte-Carlo aggregates on the pool
    /// are bit-identical to a plain sequential loop over the
    /// jump-derived trial streams (the oracle-level allocation rides
    /// the per-trial mining stream, so composition adds no
    /// scheduling-sensitive randomness).
    #[test]
    fn composed_aggregate_matches_sequential_reference() {
        let cfg = SimConfig::from_c(80, 3, 1.0, 0.4, 61).unwrap();
        let make = move || {
            ComposedAdversary::new(
                cfg.delta,
                composition(&[
                    (StrategyKind::Balance, 2),
                    (StrategyKind::Selfish, 1),
                    (StrategyKind::PrivateChain, 1),
                ]),
            )
        };
        let plan = TrialPlan::new(cfg, 5_000, 8)
            .unwrap()
            .thresholds(vec![0, 6, 12]);
        let pooled = plan.run(move |_| make());
        let reports: Vec<SimReport> = trial_streams(cfg.seed, 8)
            .into_iter()
            .map(|rng| {
                let mut sim = Simulation::with_rng(cfg, make(), rng);
                sim.run(5_000);
                sim.report()
            })
            .collect();
        let sequential = aggregate_reports(&reports, 5_000, &[0, 6, 12]);
        assert_eq!(pooled.aggregate.trials, 8);
        assert!(pooled.aggregate.total_adversary_blocks > 0);
        assert_eq!(pooled.aggregate, sequential);
    }

    #[test]
    fn live_blocks_union_over_active_subs() {
        let mut adv = ComposedAdversary::new(
            4,
            composition(&[
                (StrategyKind::PrivateChain, 1),
                (StrategyKind::Selfish, 1),
                (StrategyKind::PrivateChain, 0),
            ]),
        );
        let mut tree = BlockTree::new();
        let mut releases = Vec::new();
        // Both active fork subs mine one withheld block each.
        adv.act(
            1,
            &[BlockId::GENESIS, BlockId::GENESIS],
            &mut tree,
            &[1, 1, 0],
            &mut releases,
        );
        let live = adv.live_blocks();
        assert_eq!(live.len(), 2, "one live tip per active fork sub");
        assert_ne!(live[0], live[1], "independent forks");
    }
}
