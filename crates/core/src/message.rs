use std::fmt::Debug;
use std::sync::Arc;

use precipice_graph::{NodeId, Region};

use crate::WireSize;

/// A participant's stance on a proposed view.
///
/// The paper's opinion vectors hold `⊥`, `(accept, v)` or `reject`
/// (Algorithm 1, lines 15–16 and 29–30). `⊥` is an empty
/// [`OpinionVector`] slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Opinion<D> {
    /// The node proposed the view, with its suggested decision value.
    Accept(D),
    /// The node rejected the view (it champions a higher-ranked one).
    Reject,
}

impl<D> Opinion<D> {
    /// `true` for `Accept`.
    pub fn is_accept(&self) -> bool {
        matches!(self, Opinion::Accept(_))
    }

    /// The accepted value, if any.
    pub fn accepted_value(&self) -> Option<&D> {
        match self {
            Opinion::Accept(v) => Some(v),
            Opinion::Reject => None,
        }
    }
}

/// A (partial) opinion vector over a view's border: slot `i` holds the
/// opinion of the `i`-th border node in sorted order, `None` is `⊥`.
/// Lookups by node id take the border, which the vector does not store;
/// running counts make completeness and [`Message::wire_size`] O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpinionVector<D> {
    slots: Vec<Option<Opinion<D>>>,
    known: usize,
    bytes: usize,
}

impl<D> OpinionVector<D> {
    /// The all-`⊥` vector over `border`.
    pub fn new(border: &Region) -> Self {
        let slots = (0..border.len()).map(|_| None).collect();
        OpinionVector {
            slots,
            known: 0,
            bytes: 0,
        }
    }

    /// `true` if no entry is `⊥`.
    pub fn is_complete(&self) -> bool {
        self.known == self.slots.len()
    }

    /// The slots in border order (`None` = `⊥`).
    pub fn as_slice(&self) -> &[Option<Opinion<D>>] {
        &self.slots
    }

    /// The known entries as `(node, opinion)`, in border order.
    pub fn iter<'a>(
        &'a self,
        border: &'a Region,
    ) -> impl Iterator<Item = (NodeId, &'a Opinion<D>)> {
        let known = border.iter().zip(&self.slots);
        known.filter_map(|(p, op)| Some((p, op.as_ref()?)))
    }
}

impl<D: Clone + WireSize> OpinionVector<D> {
    /// Fills the `⊥` entry of `node`. Returns whether the vector changed:
    /// `false` when `node` is off `border` or already has an opinion.
    pub fn insert(&mut self, border: &Region, node: NodeId, opinion: Opinion<D>) -> bool {
        let i = border.as_slice().binary_search(&node);
        match i.ok().and_then(|i| self.slots.get_mut(i)) {
            Some(slot @ None) => {
                self.known += 1;
                self.bytes += entry_bytes(&opinion);
                *slot = Some(opinion);
                true
            }
            _ => false,
        }
    }

    /// Fills every `⊥` entry that `other`, a vector over the same border,
    /// knows (Algorithm 1, line 24).
    pub(crate) fn fill_from(&mut self, other: &Self) {
        for (slot, op) in self.slots.iter_mut().zip(&other.slots) {
            if let (None, Some(op)) = (&*slot, op) {
                self.known += 1;
                self.bytes += entry_bytes(op);
                *slot = Some(op.clone());
            }
        }
    }
}

/// Encoded size of one `(node, tag, value?)` entry.
fn entry_bytes<D: WireSize>(opinion: &Opinion<D>) -> usize {
    4 + 1 + opinion.accepted_value().map_or(0, WireSize::wire_size)
}

/// The single message type of Algorithm 1: `[r, V, border(V), op]`.
///
/// Sent by line 17 (round 1, proposing), line 31 (round 1, rejecting) and
/// line 40 (round `r`, forwarding the accumulated vector of round `r−1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message<D> {
    /// The round this message belongs to (1-based).
    pub round: u32,
    /// The proposed view `V` the instance is indexed by.
    pub view: Region,
    /// `border(V)` — the instance's participants. Redundant with `view`
    /// given the shared knowledge graph, but carried on the wire exactly
    /// as in the paper (receivers use it to initialize instance state
    /// without a topology lookup).
    pub border: Region,
    /// The sender's known opinions, indexed by position in `border`.
    ///
    /// `Arc`-shared so that multicasting to `|B|` recipients costs one
    /// vector snapshot, not `|B|` deep clones; wire-size accounting still
    /// counts the full vector per message, as a real network would.
    pub opinions: Arc<OpinionVector<D>>,
}

impl<D> Message<D> {
    /// Approximate encoded size: round tag + region + border + one
    /// `(node, tag, value?)` entry per known opinion.
    pub fn wire_size(&self) -> usize {
        4 + self.view.wire_size() + self.border.wire_size() + 4 + self.opinions.bytes
    }
}

/// The vector a proposer (Algorithm 1 lines 15–16, `(accept, value)`) or
/// a rejecter (lines 29–30, `reject`) sends: `⊥` except its own entry.
pub(crate) fn own_vector<D: Clone + WireSize>(
    border: &Region,
    me: NodeId,
    opinion: Opinion<D>,
) -> Arc<OpinionVector<D>> {
    let mut op = OpinionVector::new(border);
    op.insert(border, me, opinion);
    Arc::new(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(ids: &[u32]) -> Region {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn opinion_accessors() {
        let a: Opinion<u32> = Opinion::Accept(7);
        let r: Opinion<u32> = Opinion::Reject;
        assert!(a.is_accept());
        assert!(!r.is_accept());
        assert_eq!(a.accepted_value(), Some(&7));
        assert_eq!(r.accepted_value(), None);
    }

    #[test]
    fn vectors_start_singleton() {
        let border = region(&[3, 5]);
        let acc = own_vector(&border, NodeId(3), Opinion::Accept(42u32));
        let entries: Vec<_> = acc.iter(&border).collect();
        assert_eq!(entries, vec![(NodeId(3), &Opinion::Accept(42))]);
        let rej = own_vector::<u32>(&border, NodeId(5), Opinion::Reject);
        let entries: Vec<_> = rej.iter(&border).collect();
        assert_eq!(entries, vec![(NodeId(5), &Opinion::Reject)]);
    }

    #[test]
    fn vector_fills_bottoms_and_rejects_nodes_off_the_border() {
        let border = region(&[1, 2, 4]);
        let mut op: OpinionVector<u32> = OpinionVector::new(&border);
        assert!(!op.insert(&border, NodeId(3), Opinion::Accept(3)));
        assert!(!op.insert(&border, NodeId(99), Opinion::Reject));
        assert_eq!(op, OpinionVector::new(&border));
        assert!(op.insert(&border, NodeId(2), Opinion::Accept(2)));
        // Only `⊥` entries are filled.
        assert!(!op.insert(&border, NodeId(2), Opinion::Reject));
        assert!(op.insert(&border, NodeId(1), Opinion::Reject));
        assert!(!op.is_complete());
        assert!(op.insert(&border, NodeId(4), Opinion::Accept(4)));
        assert!(op.is_complete());
        let entries: Vec<(NodeId, &Opinion<u32>)> = op.iter(&border).collect();
        assert_eq!(
            entries,
            vec![
                (NodeId(1), &Opinion::Reject),
                (NodeId(2), &Opinion::Accept(2)),
                (NodeId(4), &Opinion::Accept(4)),
            ]
        );
    }

    #[test]
    fn wire_size_counts_components() {
        let border = region(&[1, 2]);
        let msg: Message<u32> = Message {
            round: 1,
            view: region(&[9]),                                           // 4 + 4
            border: border.clone(),                                       // 4 + 8
            opinions: own_vector(&border, NodeId(1), Opinion::Accept(7)), // 4 + (4 + 1 + 4)
        };
        assert_eq!(msg.wire_size(), 4 + 8 + 12 + 4 + 9);
        let mut both = (*msg.opinions).clone();
        both.insert(&border, NodeId(2), Opinion::Reject); // + (4 + 1)
        let msg = Message {
            opinions: Arc::new(both),
            ..msg
        };
        assert_eq!(msg.wire_size(), 4 + 8 + 12 + 4 + 9 + 5);
        let empty: Message<u32> = Message {
            opinions: Arc::new(OpinionVector::new(&border)),
            ..msg
        };
        assert_eq!(empty.wire_size(), 4 + 8 + 12 + 4);
    }
}
