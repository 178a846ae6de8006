//! The four pebbling operations (paper Section 1, Steps 1–4).

use rbp_graph::NodeId;
use std::fmt;

/// A single pebbling operation.
///
/// The paper's numbering: Step 1 = [`Move::Load`] (move to fast memory),
/// Step 2 = [`Move::Store`] (move to slow memory), Step 3 =
/// [`Move::Compute`], Step 4 = [`Move::Delete`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Move {
    /// Step 1: replace the blue pebble on the node by a red pebble
    /// (load from slow into fast memory). Cost 1.
    Load(NodeId),
    /// Step 2: replace the red pebble on the node by a blue pebble
    /// (save from fast into slow memory). Cost 1.
    Store(NodeId),
    /// Step 3: place a red pebble on the node, all of whose inputs must
    /// hold red pebbles. Cost 0 (ε in compcost). In the oneshot model each
    /// node admits at most one compute; in nodel this is also the
    /// recomputation move that replaces a blue pebble.
    Compute(NodeId),
    /// Step 4: remove the pebble (either colour) from the node. Cost 0;
    /// unavailable in nodel.
    Delete(NodeId),
}

impl Move {
    /// The node the operation touches.
    #[inline]
    pub fn node(self) -> NodeId {
        match self {
            Move::Load(v) | Move::Store(v) | Move::Compute(v) | Move::Delete(v) => v,
        }
    }

    /// The same operation on node `v` (relabels a move between node
    /// numberings).
    #[inline]
    pub fn on(self, v: NodeId) -> Move {
        match self {
            Move::Load(_) => Move::Load(v),
            Move::Store(_) => Move::Store(v),
            Move::Compute(_) => Move::Compute(v),
            Move::Delete(_) => Move::Delete(v),
        }
    }

    /// Whether this is a transfer operation (Step 1 or 2), i.e. costs 1.
    #[inline]
    pub fn is_transfer(self) -> bool {
        matches!(self, Move::Load(_) | Move::Store(_))
    }
}

impl fmt::Debug for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Move::Load(v) => write!(f, "Load({})", v.index()),
            Move::Store(v) => write!(f, "Store({})", v.index()),
            Move::Compute(v) => write!(f, "Compute({})", v.index()),
            Move::Delete(v) => write!(f, "Delete({})", v.index()),
        }
    }
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Move::Load(v) => write!(f, "load v{}", v.index()),
            Move::Store(v) => write!(f, "store v{}", v.index()),
            Move::Compute(v) => write!(f, "compute v{}", v.index()),
            Move::Delete(v) => write!(f, "delete v{}", v.index()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_classification() {
        let v = NodeId::new(3);
        assert!(Move::Load(v).is_transfer());
        assert!(Move::Store(v).is_transfer());
        assert!(!Move::Compute(v).is_transfer());
        assert!(!Move::Delete(v).is_transfer());
    }

    #[test]
    fn node_accessor() {
        let v = NodeId::new(9);
        for m in [
            Move::Load(v),
            Move::Store(v),
            Move::Compute(v),
            Move::Delete(v),
        ] {
            assert_eq!(m.node(), v);
        }
    }

    #[test]
    fn display_forms() {
        let v = NodeId::new(2);
        assert_eq!(Move::Load(v).to_string(), "load v2");
        assert_eq!(format!("{:?}", Move::Store(v)), "Store(2)");
    }
}
