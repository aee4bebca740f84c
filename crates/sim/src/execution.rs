//! The round-loop engine tying oracle, network, adversary and detectors
//! together.
//!
//! Round `r` proceeds exactly as in the paper's Section III:
//!
//! 1. **Receive** — deliveries scheduled for round `r` become visible;
//!    each honest group adopts the longest chain it now knows
//!    (first-seen tie-break).
//! 2. **Mine** — every miner makes its one hash query; honest successes
//!    extend their group's tip (parallel queries: same-round honest
//!    blocks of one group are siblings, so honest height grows by ≤ 1);
//!    the adversary's `q` successes are sequential and mine wherever its
//!    strategy chooses.
//! 3. **Schedule** — honest blocks reach their own group immediately and
//!    other groups after the adversary-chosen delay `∈ [1, Δ]`;
//!    adversary releases are scheduled likewise.
//!
//! # Hot path
//!
//! The engine is generic over the adversary, so strategy calls are
//! statically dispatched ([`run_simulation`]). A strategy chosen at run
//! time is a [`crate::adversary::Strategy`], whose calls each go
//! through a `match`; stationary plans unwrap it once and run the bare
//! type (see [`crate::spec::ExperimentPlan::execute`]).
//!
//! Mining is sampled through the oracle's gap interface: instead of
//! drawing block counts round by round, the engine draws the geometric
//! gap to the next proof-of-work success and buffers that round's
//! outcome. In [`Simulation::run`], quiet stretches of a gap with no
//! pending delivery are then skipped in O(1), which every strategy's
//! round-invariance contract (see [`Adversary::act`]) allows — in the
//! paper's interesting regimes (`c ≥ 1`, i.e. most rounds mine nothing)
//! this is the difference between O(T) and O(#blocks · Δ) work per run.
//!
//! Long runs also stay in bounded memory: every
//! [`DEFAULT_PRUNE_INTERVAL`] rounds the engine prunes the block
//! tree (and the trackers' chain storage) below the common ancestor of
//! every *live* block — group tips, in-flight deliveries, and blocks
//! the adversary still references — which no future reorg can cross.

use crate::adversary::Adversary;
use crate::block::{BlockId, Provenance, Round};
use crate::config::SimConfig;
use crate::consistency::ChainTracker;
use crate::events::{ConvergenceDetector, RoundState, SuffixTracker};
use crate::metrics::SimReport;
use crate::network::Network;
use crate::oracle::{MiningOracle, RoundOutcome};
use crate::tree::BlockTree;
use probability::rng::Xoshiro256PlusPlus;

/// Default number of rounds between automatic prunes of the block tree
/// and tracker storage (see [`Simulation::set_prune_interval`]).
pub const DEFAULT_PRUNE_INTERVAL: u64 = 4_096;

/// Even split of the honest miners across the delivery groups — the
/// single policy shared by construction and mid-run oracle
/// re-derivation, so a reconfigured engine can never disagree with a
/// freshly built one about who mines.
fn split_honest(n_groups: usize, n_honest: u64) -> [u64; 2] {
    if n_groups == 1 {
        [n_honest, 0]
    } else {
        [n_honest / 2, n_honest - n_honest / 2]
    }
}

/// Per-round record kept when round logging is enabled (see
/// [`Simulation::enable_round_log`]); feeds the sliding-window Lemma-1
/// analysis in `consistency-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundRecord {
    /// Honest blocks mined this round.
    pub honest: u32,
    /// Adversary blocks mined this round.
    pub adversary: u32,
    /// Whether a convergence opportunity completed this round.
    pub convergence_completed: bool,
}

/// A running simulation, generic over the adversary strategy so the
/// per-round strategy calls are statically dispatched.
///
/// A simulation with a `Clone` adversary is itself `Clone`: the
/// splitting estimator snapshots entrance states this way, copies one
/// into a working engine with `clone_from` (which reuses the working
/// engine's allocations) and restarts it on a fresh stream via
/// [`Simulation::reseed_mining`].
pub struct Simulation<A: Adversary> {
    config: SimConfig,
    tree: BlockTree,
    network: Network,
    tracker: ChainTracker,
    oracle: MiningOracle,
    adversary: A,
    suffix: SuffixTracker,
    convergence: ConvergenceDetector,
    round: Round,
    honest_blocks: u64,
    adversary_blocks: u64,
    h_rounds: u64,
    h1_rounds: u64,
    round_log: Option<Vec<RoundRecord>>,
    /// Reusable buffer for the per-round delivery drain.
    delivery_buf: Vec<crate::network::Delivery>,
    /// Reusable buffer for the per-round adversary releases.
    release_buf: Vec<crate::adversary::ReleaseDirective>,
    /// Buffered mining outcome: `Some((k, out))` means the next `k − 1`
    /// rounds are quiet and the `k`-th applies `out` (which has ≥ 1
    /// success). Refilled from the oracle's gap sampler only when empty,
    /// so the oracle's latest sub-adversary split
    /// ([`MiningOracle::adversary_split`]) is always the buffered
    /// outcome's.
    pending_outcome: Option<(u64, RoundOutcome)>,
    /// Rounds between automatic prunes; `None` disables pruning.
    prune_interval: Option<u64>,
    last_prune: Round,
}

/// The two per-round buffers are scratch, not state: a clone starts
/// with empty ones, and `clone_from` keeps its own.
impl<A: Adversary + Clone> Clone for Simulation<A> {
    fn clone(&self) -> Self {
        Simulation {
            config: self.config,
            tree: self.tree.clone(),
            network: self.network.clone(),
            tracker: self.tracker.clone(),
            oracle: self.oracle.clone(),
            adversary: self.adversary.clone(),
            suffix: self.suffix.clone(),
            convergence: self.convergence.clone(),
            round: self.round,
            honest_blocks: self.honest_blocks,
            adversary_blocks: self.adversary_blocks,
            h_rounds: self.h_rounds,
            h1_rounds: self.h1_rounds,
            round_log: self.round_log.clone(),
            delivery_buf: Vec::new(),
            release_buf: Vec::new(),
            pending_outcome: self.pending_outcome,
            prune_interval: self.prune_interval,
            last_prune: self.last_prune,
        }
    }

    /// Copies `source` into this engine, reusing the allocations of its
    /// block tree, network, trackers and round log. The pattern names
    /// every field, so a field added later must be copied here too or
    /// the build fails.
    fn clone_from(&mut self, source: &Self) {
        let Simulation {
            config,
            tree,
            network,
            tracker,
            oracle,
            adversary,
            suffix,
            convergence,
            round,
            honest_blocks,
            adversary_blocks,
            h_rounds,
            h1_rounds,
            round_log,
            delivery_buf: _,
            release_buf: _,
            pending_outcome,
            prune_interval,
            last_prune,
        } = source;
        self.config = *config;
        self.tree.clone_from(tree);
        self.network.clone_from(network);
        self.tracker.clone_from(tracker);
        self.oracle.clone_from(oracle);
        self.adversary.clone_from(adversary);
        self.suffix.clone_from(suffix);
        self.convergence.clone_from(convergence);
        self.round = *round;
        self.honest_blocks = *honest_blocks;
        self.adversary_blocks = *adversary_blocks;
        self.h_rounds = *h_rounds;
        self.h1_rounds = *h1_rounds;
        self.round_log.clone_from(round_log);
        self.pending_outcome = *pending_outcome;
        self.prune_interval = *prune_interval;
        self.last_prune = *last_prune;
    }
}

impl<A: Adversary> std::fmt::Debug for Simulation<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("config", &self.config)
            .field("round", &self.round)
            .field("adversary", &std::any::type_name::<A>())
            .field("blocks", &self.tree.len())
            .finish()
    }
}

impl<A: Adversary> Simulation<A> {
    /// Creates a simulation from a validated config and a strategy,
    /// seeding the mining RNG from `config.seed`.
    ///
    /// Honest miners are split evenly across the delivery groups the
    /// strategy requests (1 or 2).
    pub fn new(config: SimConfig, adversary: A) -> Self {
        let rng = Xoshiro256PlusPlus::seed_from_u64(config.seed);
        Simulation::with_rng(config, adversary, rng)
    }

    /// Creates a simulation driving mining from an explicit generator,
    /// ignoring `config.seed`. This is how the Monte-Carlo engine hands
    /// each trial its own `jump()`-derived disjoint stream.
    pub fn with_rng(config: SimConfig, adversary: A, rng: Xoshiro256PlusPlus) -> Self {
        let n_groups = adversary.group_count();
        assert!(n_groups == 1 || n_groups == 2, "1 or 2 honest groups");
        let group_sizes = split_honest(n_groups, config.n_honest());
        let mut oracle = MiningOracle::new(group_sizes, config.n_adversary(), config.hardness, rng);
        oracle.set_adversary_split(adversary.sub_miner_counts(config.n_adversary()).as_deref());
        Simulation {
            tree: BlockTree::new(),
            network: Network::new(),
            tracker: ChainTracker::new(n_groups),
            oracle,
            adversary,
            suffix: SuffixTracker::new(config.delta),
            convergence: ConvergenceDetector::new(config.delta),
            round: 0,
            honest_blocks: 0,
            adversary_blocks: 0,
            h_rounds: 0,
            h1_rounds: 0,
            round_log: None,
            delivery_buf: Vec::new(),
            release_buf: Vec::new(),
            pending_outcome: None,
            prune_interval: Some(DEFAULT_PRUNE_INTERVAL),
            last_prune: 0,
            config,
        }
    }

    /// Turns on per-round logging (honest/adversary block counts and
    /// convergence completions). Must be called before stepping.
    /// Disables the quiet-gap bulk skip (each logged round needs its
    /// own record) but not gap-based sampling.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already advanced.
    pub fn enable_round_log(&mut self) {
        assert_eq!(self.round, 0, "enable logging before the first step");
        self.round_log = Some(Vec::new());
    }

    /// The per-round log, if enabled.
    pub fn round_log(&self) -> Option<&[RoundRecord]> {
        self.round_log.as_deref()
    }

    /// The simulation's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Current round number.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Read access to the block tree.
    pub fn tree(&self) -> &BlockTree {
        &self.tree
    }

    /// Read access to the adversary strategy.
    pub fn adversary(&self) -> &A {
        &self.adversary
    }

    /// Mutable access to the adversary strategy. The scenario layer
    /// uses this at phase boundaries (between [`Simulation::run`]
    /// segments) to switch the active strategy or network regime; a
    /// strategy must only be mutated between segments, never mid-run,
    /// or the quiet-gap skip could miss the change.
    pub fn adversary_mut(&mut self) -> &mut A {
        &mut self.adversary
    }

    /// Replaces the mining generator with `rng`, discarding the
    /// buffered quiet-gap outcome sampled from the old stream. This is
    /// the splitting estimator's replica restart: a cloned entrance
    /// state continues under its own disjoint stream, and because
    /// geometric gaps are memoryless, restarting the gap at the
    /// boundary leaves the process law identical to never having
    /// buffered at all (the same argument
    /// [`Simulation::reconfigure_mining`] relies on).
    pub fn reseed_mining(&mut self, rng: Xoshiro256PlusPlus) {
        self.oracle.replace_rng(rng);
        self.pending_outcome = None;
    }

    /// The run's consistency depth so far: the deeper of the deepest
    /// single-group reorg and the deepest simultaneous cross-group
    /// divergence. `T`-consistency has been violated iff this exceeds
    /// `T` (see [`SimReport::is_consistent`]) — which makes the depth a
    /// monotone level function for the splitting estimator: it never
    /// decreases, and it can only change inside [`Simulation::step`],
    /// never during a quiet-gap skip (no deliveries, no mining).
    #[must_use]
    pub fn consistency_depth(&self) -> u64 {
        self.tracker
            .max_reorg_depth()
            .max(self.tracker.max_divergence_depth())
    }

    /// Re-derives the mining oracle for a new adversary fraction and
    /// hardness, continuing the current random stream. This is the
    /// engine half of a scenario *power shift*: subpopulation sizes and
    /// all gap-sampler constants are recomputed, and the buffered
    /// quiet-gap outcome — sampled under the old law — is discarded, so
    /// mining from here on is distributed exactly as in a fresh engine
    /// started at this round (geometric gaps are memoryless, so
    /// restarting the gap at the boundary does not skew the law).
    ///
    /// `Δ` is deliberately *not* reconfigurable: the streaming suffix
    /// and convergence detectors are derived from it at construction,
    /// so the model's delay bound is fixed for the lifetime of a run.
    /// Scenario network regimes vary the realised delays *within*
    /// `[1, Δ]` instead.
    ///
    /// The adversary's sub-adversary split is re-derived at the same
    /// time (a scenario strategy switch into or out of a composed phase
    /// changes it even when ν and p do not), so the oracle-level
    /// success allocation always matches the active strategy.
    ///
    /// No-op when the parameters *and* the sub split are unchanged (so
    /// a phase boundary between identical phases leaves the run
    /// bit-identical to an unsplit run).
    ///
    /// # Panics
    ///
    /// Panics if the new parameters violate the model constraints of
    /// [`SimConfig::validate`].
    pub fn reconfigure_mining(&mut self, adversary_fraction: f64, hardness: f64) {
        let params_changed = adversary_fraction != self.config.adversary_fraction
            || hardness != self.config.hardness;
        let mut new_config = self.config;
        new_config.adversary_fraction = adversary_fraction;
        new_config.hardness = hardness;
        let new_subs = self.adversary.sub_miner_counts(new_config.n_adversary());
        if !params_changed && new_subs.as_deref() == self.oracle.adversary_sub_sizes() {
            return;
        }
        new_config
            .validate()
            .expect("reconfigured parameters must satisfy the model constraints"); // detlint: allow(panic-expect) -- scenario phases are validated by Scenario::new before any reconfigure
        self.config = new_config;
        let group_sizes = split_honest(self.tracker.n_groups(), self.config.n_honest());
        self.oracle
            .reconfigure(group_sizes, self.config.n_adversary(), hardness);
        self.oracle.set_adversary_split(new_subs.as_deref());
        // The buffered gap was sampled under the old law; discard it —
        // gaps are memoryless, so this does not skew the post-boundary
        // distribution.
        self.pending_outcome = None;
    }

    /// Re-derives both streaming detectors for a new *effective* delay
    /// bound — the scenario layer's per-phase `Δ_effective` hook,
    /// mirroring [`Simulation::reconfigure_mining`] for the measurement
    /// side. The suffix tracker restarts as a fresh tracker for
    /// `delta` (its state space is Δ-dependent); the convergence
    /// detector resets its pattern machinery but carries the cumulative
    /// opportunity count, so per-phase counts remain snapshot diffs.
    /// Both resets are proven equivalent to constructing fresh
    /// detectors at the boundary (see the detector `reconfigure_*`
    /// tests in [`crate::events`]).
    ///
    /// The *network* bound Δ is untouched: realised delays are still
    /// clamped to the config's `[1, Δ]`. `Δ_effective` only changes
    /// what the detectors treat as a long-enough quiet gap — e.g. a
    /// calm phase measured at `Δ_eff = 1` counts every isolated honest
    /// block as a convergence opportunity.
    ///
    /// Must only be called between [`Simulation::run`] segments.
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0`.
    pub fn reconfigure_detectors(&mut self, delta: u64) {
        self.suffix.reconfigure(delta);
        self.convergence.reconfigure(delta);
    }

    /// The delay bound the streaming detectors are currently derived
    /// from: the config's Δ unless re-derived through
    /// [`Simulation::reconfigure_detectors`].
    #[must_use]
    pub fn detector_delta(&self) -> u64 {
        debug_assert_eq!(self.suffix.delta(), self.convergence.delta());
        self.suffix.delta()
    }

    /// Sets the automatic prune cadence (`None` disables pruning, e.g.
    /// to keep the full tree for post-run forensics). Pruning never
    /// changes any simulation observable — it only bounds memory — so
    /// the default ([`DEFAULT_PRUNE_INTERVAL`]) is safe for all runs.
    pub fn set_prune_interval(&mut self, interval: Option<u64>) {
        assert!(interval != Some(0), "prune interval must be ≥ 1 round");
        self.prune_interval = interval;
    }

    /// Both group tips (duplicated in the single-group setting).
    fn group_tips(&self) -> [BlockId; 2] {
        if self.tracker.n_groups() == 1 {
            [self.tracker.tip(0), self.tracker.tip(0)]
        } else {
            [self.tracker.tip(0), self.tracker.tip(1)]
        }
    }

    /// Advances the simulation by one round.
    pub fn step(&mut self) {
        self.round += 1;
        let round = self.round;
        let delta = self.config.delta;
        let n_groups = self.tracker.n_groups();

        // 1. Receive. Most executed rounds have nothing due, so the
        // drain (and its buffer dance) is gated on the ring's next-due
        // line; the drain line still advances so the ring's window
        // arithmetic stays tight for later schedules.
        let mut delivered = false;
        if self.network.next_due().is_some_and(|due| due <= round) {
            let mut deliveries = std::mem::take(&mut self.delivery_buf);
            self.network.drain_due_into(round, &mut deliveries);
            for delivery in &deliveries {
                if delivery.group < n_groups {
                    self.tracker
                        .consider(delivery.group, delivery.block, &self.tree);
                }
            }
            delivered = !deliveries.is_empty();
            self.delivery_buf = deliveries;
        } else {
            self.network.advance_drained(round);
        }

        // 2. Mine (honest). The outcome comes from the gap buffer: when
        // it is empty the oracle samples how many all-quiet rounds
        // precede the next success together with that round's counts.
        // `applied_success` marks the round that consumes the buffered
        // success outcome — the only round whose sub-adversary split
        // (the oracle's latest) is nonzero.
        let mut applied_success = false;
        let outcome = match &mut self.pending_outcome {
            Some((1, out)) => {
                applied_success = true;
                let out = *out;
                self.pending_outcome = None;
                out
            }
            // Decrement in place: the common buffered-quiet round never
            // rewrites the whole option.
            Some((left, _)) => {
                *left -= 1;
                RoundOutcome::quiet()
            }
            None => match self.oracle.sample_gap_to_success() {
                Some((1, out)) => {
                    applied_success = true;
                    out
                }
                Some((gap, out)) => {
                    self.pending_outcome = Some((gap - 1, out));
                    RoundOutcome::quiet()
                }
                // No miners exist: every round is quiet.
                None => RoundOutcome::quiet(),
            },
        };
        let honest_total = outcome.honest_total();
        self.honest_blocks += honest_total;
        if honest_total >= 1 {
            self.h_rounds += 1;
        }
        if honest_total == 1 {
            self.h1_rounds += 1;
        }
        for group in 0..n_groups {
            let successes = outcome.honest_per_group[group];
            if successes == 0 {
                continue;
            }
            // Parallel queries: all of this group's blocks extend the
            // pre-mining tip and are siblings.
            let base = self.tracker.tip(group);
            let mut first_new = None;
            for _ in 0..successes {
                let block = self.tree.add_block(base, round, Provenance::Honest(group));
                if first_new.is_none() {
                    first_new = Some(block);
                }
                // Other groups hear about every mined block after the
                // adversary-chosen delay.
                for other in 0..n_groups {
                    if other == group {
                        continue;
                    }
                    let delay = self
                        .adversary
                        .honest_delay(round, group, other)
                        .clamp(1, delta);
                    self.network.schedule(block, other, round + delay);
                }
            }
            // The mining group sees its own first block immediately.
            if let Some(block) = first_new {
                self.tracker.consider(group, block, &self.tree);
            }
        }

        // 3. Adversary mining and releases. On executed rounds with no
        // successes and no deliveries, `act` is a no-op by the same
        // round-invariance contract the quiet-gap bulk skip relies on
        // (nothing the strategy observes has changed since its last
        // call), so the call — and the release buffer dance — is elided.
        self.adversary_blocks += outcome.adversary;
        let eventless = honest_total == 0 && outcome.adversary == 0 && !delivered;
        if !eventless {
            let tips = self.group_tips();
            let mut releases = std::mem::take(&mut self.release_buf);
            releases.clear();
            // A split strategy gets the per-sub-adversary counts the
            // oracle allocated for this round, a monolithic one the
            // total; a round without wins passes no entries.
            let total = [outcome.adversary];
            let composed = self.oracle.adversary_sub_sizes().is_some();
            let successes: &[u64] = match (composed, applied_success) {
                (true, true) => self.oracle.adversary_split(),
                (false, _) if outcome.adversary > 0 => &total,
                _ => &[],
            };
            debug_assert_eq!(successes.iter().sum::<u64>(), outcome.adversary);
            self.adversary
                .act(round, &tips, &mut self.tree, successes, &mut releases);
            for release in &releases {
                if release.group >= n_groups {
                    continue;
                }
                let delay = release.delay.clamp(1, delta);
                self.network
                    .schedule(release.block, release.group, round + delay);
            }
            self.release_buf = releases;
        }
        // Engine invariant: every delay is clamped to ≥ 1 above, so no
        // engine-originated schedule can land at or before the drain
        // line and trip the network's re-timing fallback (see
        // `Network::schedule`'s contract).
        debug_assert_eq!(
            self.network.late_schedules(),
            0,
            "engine scheduled into the past"
        );

        // 4. Detectors.
        self.suffix.update(RoundState::from_count(honest_total));
        let before = self.convergence.count();
        self.convergence.update(honest_total);
        if let Some(log) = &mut self.round_log {
            log.push(RoundRecord {
                honest: honest_total.min(u32::MAX as u64) as u32,
                adversary: outcome.adversary.min(u32::MAX as u64) as u32,
                convergence_completed: self.convergence.count() > before,
            });
        }

        // 5. Housekeeping.
        self.maybe_prune();
    }

    /// Runs `rounds` further rounds.
    ///
    /// Unless round logging is on, stretches of buffered quiet rounds
    /// with no delivery due are consumed in bulk: by the round-invariance
    /// contract of [`Adversary::act`] the skipped calls are no-ops,
    /// deliveries cannot materialise out of thin air, and the detectors
    /// advance by closed form, so the result is bit-identical to
    /// stepping round by round (see the `step_by_step_equals_run` test).
    pub fn run(&mut self, rounds: u64) {
        let target = self.round + rounds;
        let fast = self.fast_forward_enabled();
        while self.round < target {
            self.step();
            if !fast {
                continue;
            }
            let skip = self.plan_quiet_skip(target);
            if skip > 0 {
                self.skip_quiet(skip);
            }
        }
    }

    /// Whether the quiet-gap bulk skip applies to this run: no
    /// per-round log demands that every round execute for real.
    /// Constant for the lifetime of a run (logging can only be enabled
    /// at round zero), so the run loops evaluate it once per run
    /// segment.
    fn fast_forward_enabled(&self) -> bool {
        self.round_log.is_none()
    }

    /// The fast-path epilogue of one run-loop iteration: eagerly
    /// refills the gap buffer and returns how many quiet rounds may be
    /// consumed in bulk before `target`, the next buffered success, or
    /// the next delivery — whichever is nearest. Shared between
    /// [`Simulation::run`] and [`Simulation::run_until_depth`] so both
    /// drivers advance a run through the identical op sequence (and
    /// hence the identical random stream).
    fn plan_quiet_skip(&mut self, target: u64) -> u64 {
        // Refill the gap buffer eagerly: sampling order (and hence
        // the random stream) is unchanged, but the round that would
        // otherwise execute just to draw the next gap becomes
        // skippable like the rest of the quiet stretch.
        if self.pending_outcome.is_none() {
            self.pending_outcome = self.oracle.sample_gap_to_success();
        }
        let Some((left, _)) = self.pending_outcome else {
            return 0;
        };
        // Rounds strictly before the buffered success round are
        // quiet; stop early for the run target and for the next
        // delivery (its round must execute for real).
        let mut skip = (left - 1).min(target - self.round);
        if let Some(due) = self.network.next_due() {
            skip = skip.min(due.saturating_sub(self.round + 1));
        }
        skip
    }

    /// Runs until the consistency depth reaches `depth` or the round
    /// counter reaches the absolute round `horizon`, whichever comes
    /// first; returns whether the depth was reached. Unlike
    /// [`Simulation::run`]'s relative `rounds`, `horizon` is absolute
    /// so a cloned replica resumed mid-run races toward the same finish
    /// line as its parent.
    ///
    /// Uses the same quiet-gap bulk skip as [`Simulation::run`]; the
    /// depth check after each real step is exact because the depth can
    /// only change inside [`Simulation::step`] (skipped rounds deliver
    /// nothing and mine nothing).
    pub fn run_until_depth(&mut self, horizon: u64, depth: u64) -> bool {
        if self.consistency_depth() >= depth {
            return true;
        }
        let fast = self.fast_forward_enabled();
        while self.round < horizon {
            self.step();
            if self.consistency_depth() >= depth {
                return true;
            }
            if !fast {
                continue;
            }
            let skip = self.plan_quiet_skip(horizon);
            if skip > 0 {
                self.skip_quiet(skip);
            }
        }
        false
    }

    /// Consumes `k` quiet rounds in O(min(k, Δ)): no mining, no
    /// deliveries, no strategy calls — only the round counter, the gap
    /// buffer, and the streaming detectors advance.
    fn skip_quiet(&mut self, k: u64) {
        debug_assert!(self.network.next_due().map_or(true, |d| d > self.round + k));
        self.round += k;
        if let Some((left, _)) = &mut self.pending_outcome {
            debug_assert!(*left > k);
            *left -= k;
        }
        self.suffix.advance_n_run(k);
        self.convergence.advance_n_run(k);
        self.maybe_prune();
    }

    fn maybe_prune(&mut self) {
        let Some(interval) = self.prune_interval else {
            return;
        };
        if self.round - self.last_prune < interval {
            return;
        }
        self.last_prune = self.round;
        self.prune_to_live_root();
    }

    /// The finalized point: the common ancestor of everything that can
    /// still influence the future — group tips, blocks in flight, and
    /// blocks the adversary holds. Every future block descends from one
    /// of these, so no later reorg can cross it.
    pub(crate) fn live_root(&self) -> BlockId {
        let mut root = self.tracker.tip(0);
        for g in 1..self.tracker.n_groups() {
            root = self.tree.common_ancestor(root, self.tracker.tip(g));
        }
        for block in self.network.pending_blocks() {
            root = self.tree.common_ancestor(root, block);
        }
        for block in self.adversary.live_blocks() {
            root = self.tree.common_ancestor(root, block);
        }
        root
    }

    fn prune_to_live_root(&mut self) {
        let root = self.live_root();
        if root != self.tree.root() {
            self.tree.prune_to(root);
            self.tracker.prune_below(self.tree.height(root));
        }
    }

    /// A boxed copy to store rather than step: the block tree and chain
    /// trackers are pruned to the live root first, whatever the prune
    /// cadence, and the copy's buffers hold exactly their contents, with
    /// empty scratch. The splitting estimator stores each entrance state
    /// this way, so a stored state costs its live fork window, not its
    /// history. Like the periodic prune, this changes no observable of
    /// the continued run, of `self` or of the copy.
    pub(crate) fn stored_copy(&mut self) -> Box<Self>
    where
        A: Clone,
    {
        self.prune_to_live_root();
        Box::new(self.clone())
    }

    /// Produces the aggregated report for everything simulated so far.
    pub fn report(&self) -> SimReport {
        let n_groups = self.tracker.n_groups();
        let group_tips: Vec<BlockId> = (0..n_groups).map(|g| self.tracker.tip(g)).collect();
        let group_heights: Vec<u64> = (0..n_groups).map(|g| self.tracker.height(g)).collect();
        let (chain_honest, chain_adversary) = self.tree.chain_composition(group_tips[0]);
        SimReport {
            rounds: self.round,
            honest_blocks: self.honest_blocks,
            adversary_blocks: self.adversary_blocks,
            convergence_opportunities: self.convergence.count(),
            h_rounds: self.h_rounds,
            h1_rounds: self.h1_rounds,
            suffix_occupancy: self.suffix.occupancy().to_vec(),
            suffix_rounds: self.suffix.rounds_counted(),
            group_tips,
            group_heights,
            max_reorg_depth: self.tracker.max_reorg_depth(),
            max_divergence_depth: self.tracker.max_divergence_depth(),
            reorg_count: self.tracker.reorg_count(),
            chain_honest_blocks: chain_honest,
            chain_adversary_blocks: chain_adversary,
        }
    }
}

/// Statically dispatched convenience wrapper: builds, runs and reports
/// in one call. This is the hot-path entry point — the adversary's
/// methods are monomorphized into the round loop.
///
/// ```
/// use nakamoto_sim::config::SimConfig;
/// use nakamoto_sim::adversary::PrivateChainAdversary;
/// use nakamoto_sim::execution::run_simulation;
///
/// let cfg = SimConfig::new(100, 0.2, 1e-3, 2, 42)?;
/// let report = run_simulation(cfg, PrivateChainAdversary::new(2), 10_000);
/// assert!(report.honest_blocks > 0);
/// # Ok::<(), nakamoto_sim::config::ConfigError>(())
/// ```
pub fn run_simulation<A: Adversary>(config: SimConfig, adversary: A, rounds: u64) -> SimReport {
    let mut sim = Simulation::new(config, adversary);
    sim.run(rounds);
    sim.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BalanceAdversary, ImmediateReleaseAdversary, PrivateChainAdversary};

    impl<A: Adversary> Simulation<A> {
        /// Snapshot of the mining generator state; the scenario
        /// phase-boundary tests use this to compare a reconfigured
        /// engine against a from-scratch engine started at the boundary.
        pub(crate) fn mining_rng(&self) -> Xoshiro256PlusPlus {
            self.oracle.rng_clone()
        }
    }
    use crate::compose::{ComposedAdversary, Composition, SubSpec};
    use crate::scenario::StrategyKind;
    use crate::selfish::SelfishMiningAdversary;

    fn cfg(n: u64, nu: f64, p: f64, delta: u64, seed: u64) -> SimConfig {
        SimConfig::new(n, nu, p, delta, seed).unwrap()
    }

    #[test]
    fn honest_only_run_grows_chain() {
        let report = run_simulation(
            cfg(100, 0.0, 1e-3, 2, 1),
            ImmediateReleaseAdversary::new(),
            50_000,
        );
        assert_eq!(report.adversary_blocks, 0);
        assert!(report.honest_blocks > 0);
        // E[honest] = T·np = 50000 · 0.1 = 5000; allow wide tolerance.
        let expected = 50_000.0 * 100.0 * 1e-3;
        assert!(
            (report.honest_blocks as f64 - expected).abs() < 0.1 * expected,
            "honest {} vs expected {expected}",
            report.honest_blocks
        );
        assert!(report.group_heights[0] > 0);
        assert_eq!(report.chain_adversary_blocks, 0);
        assert_eq!(report.chain_quality(), 1.0);
    }

    #[test]
    fn single_group_immediate_release_has_no_divergence() {
        let report = run_simulation(
            cfg(50, 0.2, 1e-3, 3, 2),
            ImmediateReleaseAdversary::new(),
            30_000,
        );
        assert_eq!(report.max_divergence_depth, 0, "one group cannot diverge");
        // Immediate release keeps reorgs shallow (height ties only).
        assert!(
            report.max_reorg_depth <= 2,
            "reorg {}",
            report.max_reorg_depth
        );
    }

    #[test]
    fn adversary_block_rate_matches_eq_27() {
        let n = 200u64;
        let nu = 0.3;
        let p = 2e-3;
        let rounds = 100_000u64;
        let report = run_simulation(
            cfg(n, nu, p, 2, 3),
            ImmediateReleaseAdversary::new(),
            rounds,
        );
        // E[A] = T·νn·p = 100000 · 60 · 0.002 = 12000.
        let expected = rounds as f64 * nu * n as f64 * p;
        let got = report.adversary_blocks as f64;
        assert!(
            (got - expected).abs() < 0.05 * expected,
            "A = {got} vs {expected}"
        );
    }

    #[test]
    fn convergence_margin_positive_in_good_regime() {
        // c = 1/(pnΔ) = 1/(1e-4·100·2) = 50 ≫ 2µ/ln(µ/ν): very safe.
        let report = run_simulation(
            cfg(100, 0.1, 1e-5, 2, 4),
            PrivateChainAdversary::new(2),
            400_000,
        );
        assert!(
            report.convergence_opportunities > report.adversary_blocks,
            "C = {} should exceed A = {}",
            report.convergence_opportunities,
            report.adversary_blocks
        );
        assert!(report.convergence_margin() > 0);
    }

    #[test]
    fn private_chain_adversary_causes_reorgs() {
        // Slow-ish chain, strong adversary: reorgs must appear.
        let report = run_simulation(
            cfg(100, 0.4, 5e-3, 4, 5),
            PrivateChainAdversary::new(4),
            100_000,
        );
        assert!(report.reorg_count > 0, "expected reorgs");
        assert!(report.max_reorg_depth >= 1);
        // The adversary's released blocks appear on the honest chain.
        assert!(report.chain_adversary_blocks > 0);
        assert!(report.chain_quality() < 1.0);
    }

    #[test]
    fn balance_adversary_splits_views() {
        let report = run_simulation(cfg(100, 0.4, 5e-3, 8, 6), BalanceAdversary::new(8), 100_000);
        assert_eq!(report.group_tips.len(), 2);
        assert!(
            report.max_divergence_depth >= 2,
            "balance attack should create divergence, got {}",
            report.max_divergence_depth
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_simulation(
            cfg(80, 0.25, 1e-3, 3, 99),
            PrivateChainAdversary::new(3),
            20_000,
        );
        let b = run_simulation(
            cfg(80, 0.25, 1e-3, 3, 99),
            PrivateChainAdversary::new(3),
            20_000,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn h_round_counts_consistent() {
        let report = run_simulation(
            cfg(100, 0.2, 1e-3, 2, 12),
            ImmediateReleaseAdversary::new(),
            50_000,
        );
        assert!(report.h1_rounds <= report.h_rounds);
        assert!(report.h_rounds <= report.rounds);
        assert!(report.honest_blocks >= report.h_rounds);
        // Suffix occupancy covers all counted rounds.
        assert_eq!(
            report.suffix_occupancy.iter().sum::<u64>(),
            report.suffix_rounds
        );
        assert!(report.suffix_rounds <= report.rounds);
    }

    #[test]
    fn step_by_step_equals_run() {
        // `run` bulk-skips quiet gaps; `step` executes every round. The
        // reports must be bit-identical for every strategy.
        for delta in [1u64, 2, 4] {
            let mut a = Simulation::new(
                cfg(60, 0.2, 1e-3, delta, 5),
                ImmediateReleaseAdversary::new(),
            );
            let mut b = Simulation::new(
                cfg(60, 0.2, 1e-3, delta, 5),
                ImmediateReleaseAdversary::new(),
            );
            a.run(5000);
            for _ in 0..5000 {
                b.step();
            }
            assert_eq!(a.report(), b.report(), "Δ = {delta}");
        }
        let mut a = Simulation::new(cfg(60, 0.3, 2e-3, 3, 7), PrivateChainAdversary::new(3));
        let mut b = Simulation::new(cfg(60, 0.3, 2e-3, 3, 7), PrivateChainAdversary::new(3));
        a.run(20_000);
        for _ in 0..20_000 {
            b.step();
        }
        assert_eq!(a.report(), b.report());
        let mut a = Simulation::new(cfg(60, 0.3, 2e-3, 3, 8), BalanceAdversary::new(3));
        let mut b = Simulation::new(cfg(60, 0.3, 2e-3, 3, 8), BalanceAdversary::new(3));
        a.run(20_000);
        for _ in 0..20_000 {
            b.step();
        }
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn pruning_never_changes_results() {
        // Satellite regression: 50k-round private-chain run, pruned
        // vs unpruned trees must agree on every observable, including
        // the consistency depths.
        let mk = || {
            Simulation::new(
                SimConfig::from_c(100, 4, 1.0, 0.35, 1234).unwrap(),
                PrivateChainAdversary::new(4),
            )
        };
        let mut pruned = mk();
        let mut unpruned = mk();
        unpruned.set_prune_interval(None);
        pruned.run(50_000);
        unpruned.run(50_000);
        let a = pruned.report();
        let b = unpruned.report();
        assert_eq!(a, b, "pruning must be behaviour-invisible");
        assert_eq!(a.max_reorg_depth, b.max_reorg_depth);
        assert_eq!(a.max_divergence_depth, b.max_divergence_depth);
        assert!(
            pruned.tree().len() < unpruned.tree().len(),
            "pruned {} vs unpruned {}",
            pruned.tree().len(),
            unpruned.tree().len()
        );
        // Same check under the balance attack (two groups, divergence).
        let mk = || {
            Simulation::new(
                SimConfig::from_c(100, 4, 1.0, 0.4, 77).unwrap(),
                BalanceAdversary::new(4),
            )
        };
        let mut pruned = mk();
        let mut unpruned = mk();
        unpruned.set_prune_interval(None);
        pruned.run(50_000);
        unpruned.run(50_000);
        assert_eq!(pruned.report(), unpruned.report());

        // Compaction mid-run (the splitting estimator's stored entrance
        // states) is just as invisible, for every strategy: a compacted
        // clone continues exactly like the untouched original, through
        // both run drivers.
        let composition = Composition::new(vec![
            SubSpec::new(StrategyKind::Balance, 1),
            SubSpec::new(StrategyKind::Selfish, 1),
        ])
        .unwrap();
        let config = SimConfig::from_c(100, 4, 1.0, 0.35, 4321).unwrap();
        assert_compaction_invisible("private-chain", config, PrivateChainAdversary::new(4));
        assert_compaction_invisible("balance", config, BalanceAdversary::new(4));
        assert_compaction_invisible("selfish", config, SelfishMiningAdversary::new(4));
        assert_compaction_invisible(
            "balance:selfish",
            config,
            ComposedAdversary::new(4, composition),
        );
    }

    fn assert_compaction_invisible<A: Adversary + Clone>(
        name: &str,
        config: SimConfig,
        adversary: A,
    ) {
        let mut original = Simulation::new(config, adversary);
        original.run(3_000);
        let mut compacted = *original.clone().stored_copy();
        assert!(
            compacted.tree().len() < original.tree().len(),
            "{name}: compaction dropped no block"
        );
        let depth = original.consistency_depth() + 2;
        let reached = original.run_until_depth(30_000, depth);
        assert_eq!(compacted.run_until_depth(30_000, depth), reached, "{name}");
        assert_eq!(compacted.round(), original.round(), "{name}");
        original.run(20_000);
        compacted.run(20_000);
        assert_eq!(compacted.report(), original.report(), "{name}");
        assert_eq!(
            compacted.consistency_depth(),
            original.consistency_depth(),
            "{name}"
        );
    }

    /// `clone_from` leaves nothing of the engine it overwrites: an
    /// engine that ran longer on another seed, unpruned, so its buffers
    /// are larger and hold other blocks, copies a shorter run that has
    /// pruned once and then continues exactly like it on one reseeded
    /// stream, for every strategy.
    #[test]
    fn clone_from_continues_exactly_like_its_source() {
        let composition = Composition::new(vec![
            SubSpec::new(StrategyKind::Balance, 1),
            SubSpec::new(StrategyKind::Selfish, 1),
        ])
        .unwrap();
        let config = SimConfig::from_c(100, 4, 1.0, 0.35, 4321).unwrap();
        assert_clone_from_exact("private-chain", config, PrivateChainAdversary::new(4));
        assert_clone_from_exact("balance", config, BalanceAdversary::new(4));
        assert_clone_from_exact("selfish", config, SelfishMiningAdversary::new(4));
        assert_clone_from_exact(
            "balance:selfish",
            config,
            ComposedAdversary::new(4, composition),
        );
    }

    fn assert_clone_from_exact<A: Adversary + Clone>(name: &str, config: SimConfig, adversary: A) {
        let mut source = Simulation::new(config, adversary.clone());
        source.run(DEFAULT_PRUNE_INTERVAL + 2_000);
        assert_ne!(source.last_prune, 0, "{name}: the source never pruned");
        let mut other = config;
        other.seed ^= 0x5eed;
        let mut copy = Simulation::new(other, adversary);
        copy.set_prune_interval(None);
        copy.run(20_000);
        assert!(copy.tree.len() > source.tree.len(), "{name}");
        copy.clone_from(&source);
        let stream = Xoshiro256PlusPlus::seed_from_u64(7);
        source.reseed_mining(stream.clone());
        copy.reseed_mining(stream);
        source.run(20_000);
        copy.run(20_000);
        assert_eq!(copy.report(), source.report(), "{name}");
        assert_eq!(
            copy.consistency_depth(),
            source.consistency_depth(),
            "{name}"
        );
        let debug = |sim: &Simulation<A>| {
            [
                format!("{:?}", sim.tree),
                format!("{:?}", sim.network),
                format!("{:?}", sim.tracker),
                format!("{:?}", sim.suffix),
                format!("{:?}", sim.convergence),
                format!("{:?}", sim.oracle),
            ]
        };
        assert_eq!(debug(&copy), debug(&source), "{name}");
    }

    /// The splitting estimator stores thousands of engine states at
    /// once, so the inline size of one is memory at its peak: the
    /// oracle's gap constants are shared between clones and a composed
    /// strategy's split is boxed in the oracle.
    #[test]
    fn a_stored_engine_state_stays_small() {
        let size = std::mem::size_of::<Simulation<BalanceAdversary>>();
        assert!(size <= 640, "Simulation<BalanceAdversary> is {size} bytes");
    }

    #[test]
    fn pruned_long_run_holds_bounded_tree() {
        // Acceptance: a 10⁷-round private-chain run keeps a bounded
        // resident block count. The bound covers the live fork window
        // (private lead + unfinalized suffix) plus up to one prune
        // interval of fresh blocks.
        let cfg = SimConfig::from_c(100, 4, 8.0, 0.3, 2024).unwrap();
        let mut sim = Simulation::new(cfg, PrivateChainAdversary::new(4));
        const CAP: usize = 8_192;
        let mut peak = 0usize;
        for _ in 0..1_000 {
            sim.run(10_000);
            peak = peak.max(sim.tree().len());
        }
        assert_eq!(sim.round(), 10_000_000);
        assert!(
            peak <= CAP,
            "peak resident block count {peak} exceeds {CAP}"
        );
        // Sanity: the run really did mine a deep chain.
        assert!(sim.report().group_heights[0] > 100_000);
    }
}
