//! Per-round state classification and the paper's pattern detectors.
//!
//! Each round is classified as `N` (no honest block), `H₁` (exactly one
//! honest block) or `H` with multiplicity (Eqs. 4–6). Two streaming
//! detectors consume that classification:
//!
//! * [`SuffixTracker`] — runs the paper's suffix Markov chain `C_F`
//!   (Fig. 2) forward and records state occupancies, so simulation runs
//!   can be compared against the closed-form stationary distribution
//!   (Eqs. 37a–37d).
//! * [`ConvergenceDetector`] — counts *convergence opportunities*: the
//!   pattern `H N^{≥Δ} H₁ N^Δ` of Section V-A, whose rate is
//!   `ᾱ^{2Δ}α₁` (Eq. 44).

/// Classification of a round by honest mining successes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundState {
    /// No honest block mined (`N`), probability `ᾱ`.
    NoHonest,
    /// Exactly one honest block mined (`H₁`), probability `α₁`.
    OneHonest,
    /// Two or more honest blocks mined, probability `α − α₁`.
    ManyHonest,
}

impl RoundState {
    /// Classifies a round from its honest block count.
    #[must_use]
    pub fn from_count(honest_blocks: u64) -> Self {
        match honest_blocks {
            0 => RoundState::NoHonest,
            1 => RoundState::OneHonest,
            _ => RoundState::ManyHonest,
        }
    }

    /// `true` for any `H` round (at least one honest block).
    #[must_use]
    pub fn is_h(self) -> bool {
        !matches!(self, RoundState::NoHonest)
    }
}

/// Index layout of the `2Δ+1` suffix states (matching Eq. 29):
///
/// | index | state |
/// |---|---|
/// | `0` | `HN^{≤Δ−1}H` |
/// | `a ∈ 1..Δ` | `HN^{≤Δ−1}HN^a` |
/// | `Δ` | `HN^{≥Δ}` |
/// | `Δ+1+b`, `b ∈ 0..Δ` | `HN^{≥Δ}HN^b` |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuffixState {
    /// `HN^{≤Δ−1}H`: an H round following a short (< Δ) N-run.
    RecentH,
    /// `HN^{≤Δ−1}HN^a`: `a ∈ 1..=Δ−1` N rounds since a [`SuffixState::RecentH`].
    ShortGap(u64),
    /// `HN^{≥Δ}`: at least Δ consecutive N rounds since the last H.
    LongGap,
    /// `HN^{≥Δ}HN^b`: an H after a long gap, followed by `b ∈ 0..=Δ−1` N rounds.
    AfterLongGap(u64),
}

impl SuffixState {
    /// Flat index in `0..2Δ+1` (see the module table).
    #[must_use]
    pub fn index(self, delta: u64) -> usize {
        match self {
            SuffixState::RecentH => 0,
            SuffixState::ShortGap(a) => {
                assert!(a >= 1 && a < delta, "ShortGap arm out of range");
                a as usize
            }
            SuffixState::LongGap => delta as usize,
            SuffixState::AfterLongGap(b) => {
                assert!(b < delta, "AfterLongGap arm out of range");
                (delta + 1 + b) as usize
            }
        }
    }

    /// Inverse of [`SuffixState::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ 2Δ+1`.
    #[must_use]
    pub fn from_index(index: usize, delta: u64) -> Self {
        let d = delta as usize;
        if index == 0 {
            SuffixState::RecentH
        } else if index < d {
            SuffixState::ShortGap(index as u64)
        } else if index == d {
            SuffixState::LongGap
        } else if index <= 2 * d {
            SuffixState::AfterLongGap((index - d - 1) as u64)
        } else {
            panic!("suffix state index {index} out of range for Δ={delta}"); // detlint: allow(panic-macro) -- callers enumerate indices below suffix_state_count
        }
    }

    /// Number of suffix states for a given Δ: `2Δ+1`.
    #[must_use]
    pub fn count(delta: u64) -> usize {
        2 * delta as usize + 1
    }
}

/// Streaming evaluation of the suffix chain `C_F`.
///
/// Occupancy counting starts once the tracker has seen enough history
/// for the suffix state to be well defined (two `H` rounds, as in the
/// paper's "sufficiently large t" proviso).
///
/// Internally the state is kept as its flat [`SuffixState::index`]
/// rather than the enum: the transition function is then pure index
/// arithmetic (`H` always returns to index 0 except out of `LongGap`;
/// `N` climbs consecutive indices until the absorbing `LongGap`),
/// which keeps the twice-per-event update off the branchy enum match.
/// Observable behaviour is identical to the enum-driven automaton.
#[derive(Debug)]
pub struct SuffixTracker {
    delta: u64,
    /// Flat state index, or [`SUFFIX_WARMUP`] while undefined.
    state_idx: u64,
    h_rounds_seen: u64,
    /// N rounds since the last H, maintained during warm-up so the first
    /// defined state can distinguish `HN^{<Δ}H` from `HN^{≥Δ}H`.
    warmup_gap: u64,
    occupancy: Vec<u64>,
    rounds_counted: u64,
}

/// Sentinel index for the warm-up phase (state not yet defined).
const SUFFIX_WARMUP: u64 = u64::MAX;

impl Clone for SuffixTracker {
    fn clone(&self) -> Self {
        SuffixTracker {
            delta: self.delta,
            state_idx: self.state_idx,
            h_rounds_seen: self.h_rounds_seen,
            warmup_gap: self.warmup_gap,
            occupancy: self.occupancy.clone(),
            rounds_counted: self.rounds_counted,
        }
    }

    /// Copies `source` into this tracker, reusing its occupancy
    /// buffer. The pattern names every field, so a field added later
    /// must be copied here too or the build fails.
    fn clone_from(&mut self, source: &Self) {
        let SuffixTracker {
            delta,
            state_idx,
            h_rounds_seen,
            warmup_gap,
            occupancy,
            rounds_counted,
        } = source;
        self.delta = *delta;
        self.state_idx = *state_idx;
        self.h_rounds_seen = *h_rounds_seen;
        self.warmup_gap = *warmup_gap;
        self.occupancy.clone_from(occupancy);
        self.rounds_counted = *rounds_counted;
    }
}

impl SuffixTracker {
    /// Creates a tracker for delay bound `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0`.
    #[must_use]
    pub fn new(delta: u64) -> Self {
        assert!(delta >= 1, "Δ must be at least 1");
        SuffixTracker {
            delta,
            state_idx: SUFFIX_WARMUP,
            h_rounds_seen: 0,
            warmup_gap: 0,
            occupancy: vec![0; SuffixState::count(delta)],
            rounds_counted: 0,
        }
    }

    /// The delay bound `Δ` the tracker was derived from. Both streaming
    /// detectors are parameterised by the *model bound* `Δ`, not by the
    /// realised per-message delays, so they remain valid across
    /// scenario phase boundaries that re-schedule delays within
    /// `[1, Δ]` (calm, adversarial, or eclipse regimes) — the engine
    /// asserts this invariant when reconfiguring mining mid-run.
    #[must_use]
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Re-derives the tracker for a new delay bound, mirroring
    /// [`crate::oracle::MiningOracle::reconfigure`] at a scenario phase
    /// boundary. The suffix state space (`2Δ+1` states) and the meaning
    /// of every occupancy slot depend on `Δ`, so tallies under different
    /// bounds cannot be merged: after `reconfigure` the tracker is
    /// **bit-identical to a freshly constructed `SuffixTracker::new
    /// (delta)`** — warm-up restarts and the occupancy tally is empty
    /// (see the `reconfigure_equals_fresh_tracker` test). Callers that
    /// want the pre-boundary occupancy must snapshot it first, exactly
    /// as the scenario layer snapshots reports at phase boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0`.
    pub fn reconfigure(&mut self, delta: u64) {
        *self = SuffixTracker::new(delta);
    }

    /// The current suffix state, if defined yet.
    #[must_use]
    pub fn state(&self) -> Option<SuffixState> {
        (self.state_idx != SUFFIX_WARMUP)
            .then(|| SuffixState::from_index(self.state_idx as usize, self.delta))
    }

    /// Per-state visit counts (indexed per [`SuffixState::index`]).
    #[must_use]
    pub fn occupancy(&self) -> &[u64] {
        &self.occupancy
    }

    /// Number of rounds included in [`SuffixTracker::occupancy`].
    #[must_use]
    pub fn rounds_counted(&self) -> u64 {
        self.rounds_counted
    }

    /// Consumes one round.
    pub fn update(&mut self, round_state: RoundState) {
        let is_h = round_state.is_h();
        let delta = self.delta;
        if self.state_idx == SUFFIX_WARMUP {
            // Warm-up: the suffix needs two H's of history. On the
            // second H the state is HN^{≤Δ−1}H or HN^{≥Δ}H depending on
            // the tracked gap between the two H's.
            if is_h {
                self.h_rounds_seen += 1;
                if self.h_rounds_seen >= 2 {
                    let idx = if self.warmup_gap >= delta {
                        delta + 1
                    } else {
                        0
                    };
                    self.state_idx = idx;
                    self.occupancy[idx as usize] += 1;
                    self.rounds_counted += 1;
                } else {
                    self.warmup_gap = 0;
                }
            } else if self.h_rounds_seen > 0 {
                self.warmup_gap += 1;
            }
            return;
        }
        self.h_rounds_seen += u64::from(is_h);
        // Index-arithmetic transitions (see the layout table above):
        // an H round lands on RecentH (0) except out of LongGap, which
        // starts an AfterLongGap run; an N round climbs the current
        // consecutive-index run, wrapping into the absorbing LongGap
        // from either run's end (ShortGap(Δ−1) = Δ−1, AfterLongGap(Δ−1)
        // = 2Δ).
        let idx = self.state_idx;
        let next = if is_h {
            if idx == delta {
                delta + 1
            } else {
                0
            }
        } else if idx == delta || idx == 2 * delta {
            delta
        } else {
            idx + 1
        };
        self.state_idx = next;
        self.occupancy[next as usize] += 1;
        self.rounds_counted += 1;
    }

    /// Consumes `k` consecutive `N` (no-honest-block) rounds at once.
    ///
    /// Exactly equivalent to `k` calls of
    /// `update(RoundState::NoHonest)`, but O(min(k, Δ)): the suffix
    /// state reaches the absorbing-on-`N` state `HN^{≥Δ}` after at most
    /// Δ transitions, so the remaining occupancy is added in bulk. This
    /// is what lets the simulator fast-forward quiet gaps in O(1).
    pub fn advance_n_run(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        let idx = self.state_idx;
        if idx == SUFFIX_WARMUP {
            // Warm-up: N rounds only grow the tracked gap (and only
            // once an H has been seen); nothing is counted.
            if self.h_rounds_seen > 0 {
                self.warmup_gap += k;
            }
            return;
        }
        let delta = self.delta;
        self.rounds_counted += k;
        if idx == delta {
            // Already absorbed: the whole run is charged to LongGap.
            self.occupancy[delta as usize] += k;
            return;
        }
        // Under N the state climbs consecutive indices (idx+1, idx+2, …)
        // up to the end of its run — index Δ (which *is* LongGap) for a
        // ShortGap run, index 2Δ for an AfterLongGap run — after which
        // LongGap absorbs the remainder. The climbed slots are
        // consecutive, so the occupancy charge is a plain slice sweep.
        let stop = if idx < delta { delta } else { 2 * delta };
        let climb = (stop - idx).min(k);
        // detlint: allow(panic-slice-index) -- idx + climb <= stop <= 2*delta, the last occupancy slot
        for slot in &mut self.occupancy[(idx + 1) as usize..=(idx + climb) as usize] {
            *slot += 1;
        }
        if k > stop - idx {
            self.occupancy[delta as usize] += k - (stop - idx);
            self.state_idx = delta;
        } else {
            self.state_idx = idx + climb;
        }
    }
}

/// Streaming count of convergence opportunities
/// (`… H N^{≥Δ} H₁ N^Δ`, Section V-A).
///
/// A convergence opportunity completes at round `t` when:
/// 1. some earlier `H` round exists,
/// 2. followed by ≥ Δ consecutive `N` rounds,
/// 3. then an `H₁` round (exactly one honest block) at `t − Δ`,
/// 4. then Δ consecutive `N` rounds through `t`.
#[derive(Debug, Clone)]
pub struct ConvergenceDetector {
    delta: u64,
    n_run: u64,
    seen_h: bool,
    /// Rounds of `N` still needed to complete a pending pattern.
    pending: Option<u64>,
    count: u64,
}

impl ConvergenceDetector {
    /// Creates a detector for delay bound `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0`.
    #[must_use]
    pub fn new(delta: u64) -> Self {
        assert!(delta >= 1, "Δ must be at least 1");
        ConvergenceDetector {
            delta,
            n_run: 0,
            seen_h: false,
            pending: None,
            count: 0,
        }
    }

    /// The delay bound `Δ` the detector was derived from (fixed for the
    /// detector's lifetime; see [`SuffixTracker::delta`] for why this
    /// is safe across scenario phase boundaries).
    #[must_use]
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Re-derives the detector for a new delay bound, mirroring
    /// [`crate::oracle::MiningOracle::reconfigure`] at a scenario phase
    /// boundary. The pattern machinery (`N`-run length, pending tail,
    /// leading-`H` memory) is Δ-dependent and resets exactly as in a
    /// fresh detector, while the cumulative opportunity [`count`] — a
    /// plain additive counter, like the engine's block tallies — is
    /// carried across the boundary. Equivalently: after `reconfigure`,
    /// the detector behaves **bit-identically to a freshly constructed
    /// `ConvergenceDetector::new(delta)` whose count starts at the
    /// boundary value** (see the `reconfigure_equals_fresh_detector`
    /// test), so per-phase opportunity counts are still snapshot diffs.
    ///
    /// [`count`]: ConvergenceDetector::count
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0`.
    pub fn reconfigure(&mut self, delta: u64) {
        let carried = self.count;
        *self = ConvergenceDetector::new(delta);
        self.count = carried;
    }

    /// Number of completed convergence opportunities so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Consumes one round given its honest block count.
    pub fn update(&mut self, honest_blocks: u64) {
        match RoundState::from_count(honest_blocks) {
            RoundState::NoHonest => {
                if let Some(remaining) = self.pending {
                    if remaining == 1 {
                        self.count += 1;
                        self.pending = None;
                    } else {
                        self.pending = Some(remaining - 1);
                    }
                }
                self.n_run += 1;
            }
            state => {
                // Any H round cancels a pending pattern (the N^Δ tail is
                // broken) and may start a new one.
                let qualifies =
                    state == RoundState::OneHonest && self.seen_h && self.n_run >= self.delta;
                self.pending = if qualifies { Some(self.delta) } else { None };
                self.seen_h = true;
                self.n_run = 0;
            }
        }
    }

    /// Consumes `k` consecutive `N` rounds at once; O(1) and exactly
    /// equivalent to `k` calls of `update(0)` (the quiet-gap
    /// fast-forward path of the simulator).
    pub fn advance_n_run(&mut self, k: u64) {
        if let Some(remaining) = self.pending {
            if remaining <= k {
                self.count += 1;
                self.pending = None;
            } else {
                self.pending = Some(remaining - k);
            }
        }
        self.n_run += k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(detector: &mut ConvergenceDetector, pattern: &str) {
        // 'h' = H₁, 'H' = many honest, '.' = N.
        for ch in pattern.chars() {
            match ch {
                'h' => detector.update(1),
                'H' => detector.update(3),
                '.' => detector.update(0),
                _ => panic!("bad pattern char {ch}"),
            }
        }
    }

    #[test]
    fn round_state_classification() {
        assert_eq!(RoundState::from_count(0), RoundState::NoHonest);
        assert_eq!(RoundState::from_count(1), RoundState::OneHonest);
        assert_eq!(RoundState::from_count(5), RoundState::ManyHonest);
        assert!(!RoundState::NoHonest.is_h());
        assert!(RoundState::OneHonest.is_h());
        assert!(RoundState::ManyHonest.is_h());
    }

    #[test]
    fn basic_pattern_detected() {
        // Δ = 2: H, then ≥2 N, then H1, then 2 N → one opportunity.
        let mut d = ConvergenceDetector::new(2);
        feed(&mut d, "h..h..");
        assert_eq!(d.count(), 1);
    }

    #[test]
    fn pattern_requires_leading_h() {
        // No H before the N-run: not an opportunity.
        let mut d = ConvergenceDetector::new(2);
        feed(&mut d, "..h..");
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn pattern_requires_h1_not_many() {
        let mut d = ConvergenceDetector::new(2);
        feed(&mut d, "h..H..");
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn pattern_requires_long_enough_leading_gap() {
        let mut d = ConvergenceDetector::new(3);
        feed(&mut d, "h..h...");
        assert_eq!(d.count(), 0, "only 2 < Δ = 3 leading N rounds");
        let mut d = ConvergenceDetector::new(3);
        feed(&mut d, "h...h...");
        assert_eq!(d.count(), 1);
    }

    #[test]
    fn tail_interrupted_by_h_cancels() {
        let mut d = ConvergenceDetector::new(3);
        feed(&mut d, "h...h..h");
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn consecutive_opportunities() {
        // Δ = 1: pattern is H N h N; chain several.
        let mut d = ConvergenceDetector::new(1);
        feed(&mut d, "h.h.h.h.");
        // After the first "h." warm-up, every "h." completes: h(1).h(2).h(3).
        assert_eq!(d.count(), 3);
    }

    #[test]
    fn opportunity_counted_exactly_at_completion() {
        let mut d = ConvergenceDetector::new(2);
        feed(&mut d, "h..h.");
        assert_eq!(d.count(), 0, "tail N^Δ not yet complete");
        feed(&mut d, ".");
        assert_eq!(d.count(), 1);
    }

    #[test]
    fn suffix_state_index_bijection() {
        for delta in [1u64, 2, 3, 8] {
            let n = SuffixState::count(delta);
            assert_eq!(n, 2 * delta as usize + 1);
            for i in 0..n {
                let s = SuffixState::from_index(i, delta);
                assert_eq!(s.index(delta), i, "Δ={delta} index {i}");
            }
        }
    }

    #[test]
    fn suffix_tracker_follows_paper_example() {
        // Paper's worked example (Section V-A): Δ = 3, states
        // H,N,H,H,N,N,H,N,N,N give F₇..F₁₀ = RecentH, ShortGap(1),
        // ShortGap(2), LongGap.
        let mut t = SuffixTracker::new(3);
        let rounds = [1u64, 0, 1, 1, 0, 0, 1, 0, 0, 0];
        let mut states = Vec::new();
        for &h in &rounds {
            t.update(RoundState::from_count(h));
            states.push(t.state());
        }
        assert_eq!(states[6], Some(SuffixState::RecentH), "F₇");
        assert_eq!(states[7], Some(SuffixState::ShortGap(1)), "F₈");
        assert_eq!(states[8], Some(SuffixState::ShortGap(2)), "F₉");
        assert_eq!(states[9], Some(SuffixState::LongGap), "F₁₀");
    }

    #[test]
    fn suffix_tracker_long_gap_then_h() {
        let mut t = SuffixTracker::new(2);
        // H H (warm up) N N N (long gap) H → AfterLongGap(0), N → AfterLongGap(1), N → LongGap.
        for &h in &[1u64, 1, 0, 0, 0, 1, 0, 0] {
            t.update(RoundState::from_count(h));
        }
        assert_eq!(t.state(), Some(SuffixState::LongGap));
        let mut t2 = SuffixTracker::new(2);
        for &h in &[1u64, 1, 0, 0, 0, 1, 0] {
            t2.update(RoundState::from_count(h));
        }
        assert_eq!(t2.state(), Some(SuffixState::AfterLongGap(1)));
    }

    #[test]
    fn suffix_tracker_delta_one_has_no_short_gap() {
        let mut t = SuffixTracker::new(1);
        for &h in &[1u64, 1, 0] {
            t.update(RoundState::from_count(h));
        }
        // With Δ = 1 a single N jumps straight to LongGap.
        assert_eq!(t.state(), Some(SuffixState::LongGap));
        assert_eq!(SuffixState::count(1), 3);
    }

    #[test]
    fn warmup_skips_undefined_prefix() {
        let mut t = SuffixTracker::new(2);
        t.update(RoundState::NoHonest);
        t.update(RoundState::NoHonest);
        assert_eq!(t.state(), None);
        assert_eq!(t.rounds_counted(), 0);
        t.update(RoundState::OneHonest); // first H
        assert_eq!(t.state(), None, "one H is not enough history");
        t.update(RoundState::OneHonest); // second H
        assert_eq!(t.state(), Some(SuffixState::RecentH));
        assert_eq!(t.rounds_counted(), 1);
    }

    /// Brute-force reference for the detector: O(T·Δ) direct pattern
    /// scan, used to validate the streaming automaton (also by the
    /// randomized sweeps below).
    pub(super) fn naive_convergence_count(rounds: &[u64], delta: u64) -> u64 {
        let d = delta as usize;
        let mut count = 0;
        // A pattern completes at index t with H₁ at u = t − Δ.
        for t in d..rounds.len() {
            let u = t - d;
            if rounds[u] != 1 {
                continue;
            }
            if rounds[u + 1..=t].iter().any(|&h| h != 0) {
                continue;
            }
            // Count the maximal N-run immediately before u.
            let mut gap = 0usize;
            while gap < u && rounds[u - 1 - gap] == 0 {
                gap += 1;
            }
            // Need ≥ Δ N's and an H round before the run.
            if gap >= d && u > gap && rounds[u - 1 - gap] >= 1 {
                count += 1;
            }
        }
        count
    }

    #[test]
    fn detector_matches_naive_reference_on_fixed_cases() {
        let cases: [(&[u64], u64); 4] = [
            (&[1, 0, 0, 1, 0, 0], 2),
            (&[1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0], 3),
            (&[2, 0, 1, 0, 1, 0, 1, 0], 1),
            (&[0, 0, 1, 0, 0, 1, 0, 0], 2),
        ];
        for (rounds, delta) in cases {
            let mut d = ConvergenceDetector::new(delta);
            for &h in rounds {
                d.update(h);
            }
            assert_eq!(
                d.count(),
                naive_convergence_count(rounds, delta),
                "Δ={delta}, rounds {rounds:?}"
            );
        }
    }

    #[test]
    fn detectors_expose_their_delta() {
        assert_eq!(SuffixTracker::new(5).delta(), 5);
        assert_eq!(ConvergenceDetector::new(3).delta(), 3);
    }

    #[test]
    fn occupancy_sums_to_rounds_counted() {
        let mut t = SuffixTracker::new(3);
        let pattern = [1u64, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1];
        for &h in &pattern {
            t.update(RoundState::from_count(h));
        }
        let sum: u64 = t.occupancy().iter().sum();
        assert_eq!(sum, t.rounds_counted());
    }
}

// Deterministic randomized sweeps (in-tree RNG; proptest is unavailable
// in the offline build environment).
#[cfg(test)]
mod randomized_tests {
    use super::tests::naive_convergence_count;
    use super::*;
    use probability::rng::{RandomSource, SplitMix64};

    #[test]
    fn streaming_detector_equals_naive_reference() {
        let mut rng = SplitMix64::new(0xE7_01);
        for _ in 0..256 {
            let delta = rng.next_range(1, 5);
            let len = rng.next_below(200) as usize;
            // Biased towards N rounds so long gaps actually occur
            // (weights 4:2:1 for h = 0, 1, 2).
            let rounds: Vec<u64> = (0..len)
                .map(|_| match rng.next_below(7) {
                    0..=3 => 0,
                    4 | 5 => 1,
                    _ => 2,
                })
                .collect();
            let mut detector = ConvergenceDetector::new(delta);
            for &h in &rounds {
                detector.update(h);
            }
            assert_eq!(
                detector.count(),
                naive_convergence_count(&rounds, delta),
                "detector disagrees with naive reference: delta={delta} rounds={rounds:?}"
            );
        }
    }

    /// Bulk quiet advance must be indistinguishable from per-round
    /// updates for both detectors, from any reachable starting state.
    #[test]
    fn advance_n_run_equals_per_round_updates() {
        let mut rng = SplitMix64::new(0xE7_03);
        for _ in 0..256 {
            let delta = rng.next_range(1, 6);
            // Random warm-up prefix to land in an arbitrary state.
            let prefix_len = rng.next_below(30) as usize;
            let prefix: Vec<u64> = (0..prefix_len).map(|_| rng.next_below(3)).collect();
            let k = rng.next_below(40);
            let mut bulk_suffix = SuffixTracker::new(delta);
            let mut step_suffix = SuffixTracker::new(delta);
            let mut bulk_conv = ConvergenceDetector::new(delta);
            let mut step_conv = ConvergenceDetector::new(delta);
            for &h in &prefix {
                bulk_suffix.update(RoundState::from_count(h));
                step_suffix.update(RoundState::from_count(h));
                bulk_conv.update(h);
                step_conv.update(h);
            }
            bulk_suffix.advance_n_run(k);
            bulk_conv.advance_n_run(k);
            for _ in 0..k {
                step_suffix.update(RoundState::NoHonest);
                step_conv.update(0);
            }
            assert_eq!(bulk_suffix.state(), step_suffix.state(), "Δ={delta} k={k}");
            assert_eq!(
                bulk_suffix.occupancy(),
                step_suffix.occupancy(),
                "Δ={delta} k={k} prefix={prefix:?}"
            );
            assert_eq!(bulk_suffix.rounds_counted(), step_suffix.rounds_counted());
            assert_eq!(bulk_conv.count(), step_conv.count(), "Δ={delta} k={k}");
            // Continue both with a shared random tail: internal state
            // (n_run, pending, warmup_gap) must also have converged.
            let tail_len = rng.next_below(30) as usize;
            for _ in 0..tail_len {
                let h = rng.next_below(3);
                bulk_suffix.update(RoundState::from_count(h));
                step_suffix.update(RoundState::from_count(h));
                bulk_conv.update(h);
                step_conv.update(h);
            }
            assert_eq!(bulk_suffix.occupancy(), step_suffix.occupancy());
            assert_eq!(bulk_conv.count(), step_conv.count());
        }
    }

    /// Phase-boundary contract for the scenario layer's per-phase
    /// Δ_effective detectors: after `reconfigure(d)`, a tracker must be
    /// bit-identical to a fresh `SuffixTracker::new(d)` on any shared
    /// suffix stream, from any reachable pre-boundary state.
    #[test]
    fn reconfigure_equals_fresh_tracker() {
        let mut rng = SplitMix64::new(0xE7_04);
        for _ in 0..128 {
            let old_delta = rng.next_range(1, 6);
            let new_delta = rng.next_range(1, 6);
            let mut live = SuffixTracker::new(old_delta);
            for _ in 0..rng.next_below(60) {
                live.update(RoundState::from_count(rng.next_below(3)));
            }
            live.reconfigure(new_delta);
            let mut fresh = SuffixTracker::new(new_delta);
            assert_eq!(live.delta(), new_delta);
            for _ in 0..rng.next_below(80) {
                let h = rng.next_below(3);
                live.update(RoundState::from_count(h));
                fresh.update(RoundState::from_count(h));
            }
            assert_eq!(live.state(), fresh.state(), "Δ {old_delta} → {new_delta}");
            assert_eq!(live.occupancy(), fresh.occupancy());
            assert_eq!(live.rounds_counted(), fresh.rounds_counted());
        }
    }

    /// Same contract for the convergence detector, with the cumulative
    /// count carried: the reconfigured detector must count exactly what
    /// a fresh detector counts, offset by the boundary count.
    #[test]
    fn reconfigure_equals_fresh_detector() {
        let mut rng = SplitMix64::new(0xE7_05);
        for _ in 0..128 {
            let old_delta = rng.next_range(1, 6);
            let new_delta = rng.next_range(1, 6);
            let mut live = ConvergenceDetector::new(old_delta);
            for _ in 0..rng.next_below(60) {
                live.update(rng.next_below(3));
            }
            live.reconfigure(new_delta);
            let boundary = live.count();
            let mut fresh = ConvergenceDetector::new(new_delta);
            assert_eq!(live.delta(), new_delta);
            // Exercise both the per-round and the bulk-quiet interfaces.
            for _ in 0..rng.next_below(20) {
                let h = rng.next_below(3);
                live.update(h);
                fresh.update(h);
                let k = rng.next_below(3 * new_delta + 2);
                live.advance_n_run(k);
                fresh.advance_n_run(k);
            }
            assert_eq!(
                live.count(),
                boundary + fresh.count(),
                "Δ {old_delta} → {new_delta}: carried count must offset a fresh detector"
            );
        }
    }

    #[test]
    fn suffix_tracker_never_panics_and_counts_every_round_after_warmup() {
        let mut rng = SplitMix64::new(0xE7_02);
        for _ in 0..256 {
            let delta = rng.next_range(1, 7);
            let len = rng.next_below(300) as usize;
            let rounds: Vec<u64> = (0..len).map(|_| rng.next_below(4)).collect();
            let mut tracker = SuffixTracker::new(delta);
            let mut h_seen = 0u64;
            let mut defined_rounds = 0u64;
            for &h in &rounds {
                tracker.update(RoundState::from_count(h));
                if h > 0 {
                    h_seen += 1;
                }
                if h_seen >= 2 {
                    defined_rounds += 1;
                }
            }
            assert_eq!(tracker.rounds_counted(), defined_rounds);
        }
    }
}
