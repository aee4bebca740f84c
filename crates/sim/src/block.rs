//! Blocks and their identifiers.
//!
//! The paper reduces proof-of-work to an abstract record with a parent
//! pointer (Section III): the only property the analysis uses is that
//! every block extends exactly one parent. Block "hashes" are therefore
//! arena indices, which preserves that property exactly.

use std::fmt;

/// Round counter (the protocol proceeds in discrete rounds).
pub type Round = u64;

/// Identifier of an honest-miner group (the simulator partitions honest
/// miners into at most two delivery groups; see `adversary`).
pub type GroupId = usize;

/// A block identifier: an index into the [`BlockTree`](crate::tree::BlockTree) arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub(crate) u32);

impl BlockId {
    /// The genesis block's id (always index 0).
    pub const GENESIS: BlockId = BlockId(0);

    /// The raw arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Who mined a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Mined by an honest miner belonging to the given delivery group.
    Honest(GroupId),
    /// Mined by the adversary.
    Adversary,
    /// The genesis block (mined by no one).
    Genesis,
}

/// Block metadata stored in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// This block's id.
    pub id: BlockId,
    /// Parent block (self-referential for genesis).
    pub parent: BlockId,
    /// Distance from genesis (genesis has height 0).
    pub height: u64,
    /// Round in which the block was mined (0 for genesis).
    pub round: Round,
    /// Who mined it.
    pub provenance: Provenance,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_constants() {
        assert_eq!(BlockId::GENESIS.index(), 0);
        assert_eq!(BlockId::GENESIS.to_string(), "#0");
    }

    #[test]
    fn block_id_ordering_follows_creation_order() {
        assert!(BlockId(1) < BlockId(2));
    }
}
