//! The adversarially scheduled message layer.
//!
//! In the Δ-delay model the adversary delays each block announcement by
//! up to `Δ` rounds per recipient. The simulator tracks deliveries at
//! the granularity of honest *groups* (at most two), which is exactly
//! the resolution the classic attacks need (a split adversary keeps two
//! halves of the honest miners on different branches).
//!
//! Because every delay is clamped to `[1, Δ]`, the pending window spans
//! at most Δ rounds, so the queue is a small ring of per-round buckets
//! rather than a priority heap: scheduling and draining are O(1) with
//! no comparisons on the hot path. Same-round deliveries are handed out
//! in `(block, group)` order (see [`Delivery`]'s `Ord`), keeping the
//! engine's first-seen tie-break deterministic and independent of
//! scheduling order.

use crate::block::{BlockId, Round};

/// A scheduled delivery of `block` to honest group `group` at the start
/// of round `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Round at whose start the block becomes visible to the group.
    pub round: Round,
    /// Receiving honest group.
    pub group: usize,
    /// The delivered block.
    pub block: BlockId,
}

impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.round, self.block, self.group).cmp(&(other.round, other.block, other.group))
    }
}

impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Queue of pending deliveries bucketed by round.
#[derive(Debug, Default)]
pub struct Network {
    /// `slots[r % slots.len()]` holds the deliveries due at round `r`,
    /// for `r` in the active window `(drained, drained + slots.len()]`.
    slots: Vec<Vec<Delivery>>,
    /// Total deliveries across all slots.
    pending: usize,
    /// Earliest round with a pending delivery (exact iff `pending > 0`).
    earliest: Round,
    /// Every round ≤ `drained` has been drained.
    drained: Round,
    delivered: u64,
    /// Deliveries whose requested round was already drained and were
    /// re-timed to `drained + 1` (see [`Network::schedule`]).
    late: u64,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            slots: self.slots.clone(),
            pending: self.pending,
            earliest: self.earliest,
            drained: self.drained,
            delivered: self.delivered,
            late: self.late,
        }
    }

    /// Copies `source` into this ring's buckets, reusing their
    /// allocations. The pattern names every field, so a field added
    /// later must be copied here too or the build fails.
    fn clone_from(&mut self, source: &Self) {
        let Network {
            slots,
            pending,
            earliest,
            drained,
            delivered,
            late,
        } = source;
        self.slots.clone_from(slots);
        self.pending = *pending;
        self.earliest = *earliest;
        self.drained = *drained;
        self.delivered = *delivered;
        self.late = *late;
    }
}

impl Network {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Network::default()
    }

    /// Schedules a delivery.
    ///
    /// # Contract for past rounds
    ///
    /// A `round` at or before the drain line (everything consumed by
    /// [`Network::due`] / [`Network::drain_due_into`], which after a
    /// quiet-gap bulk skip can be far ahead of the last *executed*
    /// round) cannot be delivered on time any more. Such a delivery is
    /// **re-timed to `drained + 1`**, the earliest round that can still
    /// deliver — the same behaviour a priority queue would exhibit —
    /// and counted in [`Network::late_schedules`] so callers can detect
    /// the silent re-timing. The simulation engine clamps every delay
    /// to `≥ 1` *before* scheduling and `debug_assert`s that this
    /// counter stays zero, so inside the engine the fallback is
    /// unreachable; it exists for direct users of `Network`.
    ///
    /// # Panics
    ///
    /// Panics if `group ≥ 2` (the simulator supports at most two honest
    /// groups).
    pub fn schedule(&mut self, block: BlockId, group: usize, round: Round) {
        assert!(group < 2, "at most two honest groups are supported");
        if round <= self.drained {
            self.late += 1;
        }
        let round = round.max(self.drained + 1);
        let window = (round - self.drained) as usize;
        if window > self.slots.len() {
            self.grow(window);
        }
        let len = self.slots.len() as u64;
        self.slots[(round % len) as usize].push(Delivery {
            round,
            group,
            block,
        });
        if self.pending == 0 || round < self.earliest {
            self.earliest = round;
        }
        self.pending += 1;
    }

    /// Re-buckets all pending deliveries into a ring of at least
    /// `min_len` slots (rare: the window only grows until it covers Δ).
    fn grow(&mut self, min_len: usize) {
        let new_len = min_len.next_power_of_two().max(4);
        let mut slots = vec![Vec::new(); new_len];
        for d in self.slots.iter_mut().flat_map(|s| s.drain(..)) {
            slots[(d.round % new_len as u64) as usize].push(d);
        }
        self.slots = slots;
    }

    /// Pops every delivery due at or before `round`, in round order.
    pub fn due(&mut self, round: Round) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.drain_due_into(round, &mut out);
        out
    }

    /// Allocation-free variant of [`Network::due`]: clears `out` and
    /// fills it with every delivery due at or before `round`, in round
    /// order (same-round ties in `(block, group)` order). The round
    /// loop reuses one buffer across all rounds.
    pub fn drain_due_into(&mut self, round: Round, out: &mut Vec<Delivery>) {
        out.clear();
        while self.pending > 0 && self.earliest <= round {
            let len = self.slots.len() as u64;
            let slot = &mut self.slots[(self.earliest % len) as usize];
            if slot.len() > 1 {
                slot.sort_unstable();
            }
            self.pending -= slot.len();
            self.delivered += slot.len() as u64;
            out.append(slot);
            // Advance to the next non-empty bucket (≤ ring length away
            // by the window invariant).
            if self.pending > 0 {
                let mut r = self.earliest + 1;
                while self.slots[(r % len) as usize].is_empty() {
                    r += 1;
                }
                self.earliest = r;
            }
        }
        self.drained = self.drained.max(round);
    }

    /// Round of the earliest pending delivery, if any — the horizon up
    /// to which the simulator may fast-forward quiet rounds.
    #[must_use]
    #[inline]
    pub fn next_due(&self) -> Option<Round> {
        (self.pending > 0).then_some(self.earliest)
    }

    /// Advances the drain line to `round` without draining anything —
    /// the caller's cheap alternative to [`Network::drain_due_into`] on
    /// rounds it has verified (via [`Network::next_due`]) have nothing
    /// pending. Keeping the drain line tight keeps the ring's window
    /// arithmetic bounded by Δ on the next [`Network::schedule`].
    #[inline]
    pub fn advance_drained(&mut self, round: Round) {
        debug_assert!(self.next_due().map_or(true, |due| due > round));
        self.drained = self.drained.max(round);
    }

    /// Blocks referenced by pending deliveries (arbitrary order); used
    /// to keep in-flight blocks alive across tree pruning.
    pub fn pending_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.slots.iter().flatten().map(|d| d.block)
    }

    /// Number of deliveries still pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Total deliveries handed out so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of deliveries scheduled for an already-drained round and
    /// re-timed to `drained + 1` (see [`Network::schedule`]). The
    /// engine asserts this stays zero; external schedulers can use it
    /// as a tracing hook for silently re-timed deliveries.
    #[must_use]
    pub fn late_schedules(&self) -> u64 {
        self.late
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_round_order() {
        let mut net = Network::new();
        net.schedule(BlockId(3), 0, 10);
        net.schedule(BlockId(1), 0, 5);
        net.schedule(BlockId(2), 1, 7);
        let due = net.due(10);
        let rounds: Vec<Round> = due.iter().map(|d| d.round).collect();
        assert_eq!(rounds, vec![5, 7, 10]);
        assert_eq!(net.pending(), 0);
        assert_eq!(net.delivered(), 3);
    }

    #[test]
    fn respects_due_cutoff() {
        let mut net = Network::new();
        net.schedule(BlockId(1), 0, 5);
        net.schedule(BlockId(2), 0, 6);
        assert_eq!(net.due(4).len(), 0);
        assert_eq!(net.due(5).len(), 1);
        assert_eq!(net.pending(), 1);
        assert_eq!(net.due(100).len(), 1);
    }

    #[test]
    fn same_round_deliveries_deterministic_order() {
        let mut net = Network::new();
        net.schedule(BlockId(9), 1, 5);
        net.schedule(BlockId(2), 0, 5);
        net.schedule(BlockId(2), 1, 5);
        let due = net.due(5);
        let keys: Vec<(BlockId, usize)> = due.iter().map(|d| (d.block, d.group)).collect();
        assert_eq!(
            keys,
            vec![(BlockId(2), 0), (BlockId(2), 1), (BlockId(9), 1)]
        );
    }

    #[test]
    #[should_panic(expected = "two honest groups")]
    fn rejects_third_group() {
        Network::new().schedule(BlockId(1), 2, 1);
    }

    #[test]
    fn next_due_tracks_earliest_delivery() {
        let mut net = Network::new();
        assert_eq!(net.next_due(), None);
        net.schedule(BlockId(3), 0, 10);
        net.schedule(BlockId(1), 0, 5);
        assert_eq!(net.next_due(), Some(5));
        let _ = net.due(5);
        assert_eq!(net.next_due(), Some(10));
        let mut pending: Vec<BlockId> = net.pending_blocks().collect();
        pending.sort();
        assert_eq!(pending, vec![BlockId(3)]);
    }

    #[test]
    fn past_round_schedules_deliver_at_next_drain() {
        let mut net = Network::new();
        assert_eq!(net.due(10).len(), 0);
        net.schedule(BlockId(1), 0, 3);
        assert_eq!(net.next_due(), Some(11), "clamped past the drain line");
        assert_eq!(net.late_schedules(), 1, "re-timing is observable");
        assert_eq!(net.due(11).len(), 1);
    }

    /// Satellite regression: a schedule into the past (re-timed to
    /// `drained + 1`) must survive a `grow()` re-bucketing triggered
    /// mid-window by a far-future schedule, and the re-timing must be
    /// visible through the `late_schedules` tracing hook.
    #[test]
    fn late_schedule_survives_regrowth_mid_window() {
        let mut net = Network::new();
        net.schedule(BlockId(1), 0, 4);
        assert_eq!(net.due(10).len(), 1); // drained = 10, ring len 4
        assert_eq!(net.late_schedules(), 0);
        // Into the past: re-timed to 11, the earliest deliverable round.
        net.schedule(BlockId(2), 0, 3);
        assert_eq!(net.late_schedules(), 1);
        assert_eq!(net.next_due(), Some(11));
        // Far-future schedules force grow() while the re-timed delivery
        // is pending; re-bucketing must preserve its effective round.
        net.schedule(BlockId(3), 1, 70);
        net.schedule(BlockId(4), 0, 33);
        assert_eq!(net.pending(), 3);
        let due = net.due(11);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].block, BlockId(2));
        assert_eq!(due[0].round, 11, "re-timed round survives re-bucketing");
        // Another past schedule after the window grew: clamps to the
        // new drain line, not the old one.
        net.schedule(BlockId(5), 1, 2);
        assert_eq!(net.late_schedules(), 2);
        let due = net.due(12);
        assert_eq!(due.len(), 1);
        assert_eq!((due[0].block, due[0].round), (BlockId(5), 12));
        let rest = net.due(100);
        assert_eq!(rest.len(), 2);
        assert_eq!(
            rest.iter().map(|d| d.round).collect::<Vec<_>>(),
            vec![33, 70],
            "in-window deliveries keep their original rounds"
        );
        assert_eq!(net.late_schedules(), 2, "future schedules are never late");
    }

    #[test]
    fn window_growth_preserves_pending() {
        let mut net = Network::new();
        for r in 1..=64u64 {
            net.schedule(BlockId(r as u32), 0, r);
        }
        assert_eq!(net.pending(), 64);
        let due = net.due(64);
        assert_eq!(due.len(), 64);
        let rounds: Vec<Round> = due.iter().map(|d| d.round).collect();
        let mut sorted = rounds.clone();
        sorted.sort_unstable();
        assert_eq!(rounds, sorted, "round order survives re-bucketing");
    }

    /// The ring must agree with a straightforward priority-queue model
    /// on random schedules and drains.
    #[test]
    fn matches_priority_queue_model() {
        use probability::rng::{RandomSource, SplitMix64};
        let mut rng = SplitMix64::new(0x2E7);
        for _ in 0..64 {
            let mut net = Network::new();
            let mut model: Vec<Delivery> = Vec::new();
            let mut now = 0u64;
            for _ in 0..200 {
                if rng.next_below(3) == 0 {
                    now += rng.next_range(1, 4);
                    let mut expected: Vec<Delivery> =
                        model.iter().copied().filter(|d| d.round <= now).collect();
                    expected.sort_unstable();
                    model.retain(|d| d.round > now);
                    assert_eq!(net.due(now), expected, "drain at {now}");
                } else {
                    let round = now + rng.next_range(1, 8);
                    let block = BlockId(rng.next_below(50) as u32);
                    let group = rng.next_below(2) as usize;
                    net.schedule(block, group, round);
                    model.push(Delivery {
                        round,
                        group,
                        block,
                    });
                }
                assert_eq!(net.pending(), model.len());
                assert_eq!(
                    net.next_due(),
                    model.iter().map(|d| d.round).min(),
                    "earliest pending"
                );
            }
        }
    }
}
