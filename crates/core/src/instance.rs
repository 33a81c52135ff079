use std::sync::Arc;

use precipice_graph::{NodeId, NodeSet};

use crate::message::{Message, Opinion, OpinionVector};
use crate::{View, WireSize};

/// Book-keeping for one superposed consensus instance, indexed by its
/// proposed view (the `opinions[V][·][·]` and `waiting[V][·]` state of
/// Algorithm 1, lines 20–22).
///
/// Per-participant state is indexed by position in the view's sorted
/// border: bit `i` of a mask is the `i`-th border node, so a mask costs
/// `⌈|B|/64⌉` words however large the node ids are.
///
/// One clarification over the literal pseudocode:
/// nodes known to have **rejected** the view are excluded from the wait
/// set of *every* round, not just the round their rejection message was
/// tagged with — a rejecter sends nothing further for this view, and the
/// Progress proof (case C1) relies on its rejection unblocking proposers
/// in whatever round they currently are.
#[derive(Debug, Clone)]
pub(crate) struct Instance<D> {
    view: View,
    /// `opinions[V][r][·]`, index `r − 1`; `None` (all `⊥`) until the
    /// round's first message. Vectors are `Arc`-shared with the messages
    /// that carry them: a merge that adds to a shared one clones it once.
    opinions: Vec<Option<Arc<OpinionVector<D>>>>,
    /// `waiting[V][r]` of every round: words `(r − 1)·w .. r·w` mask the
    /// border nodes whose round-`r` message has not arrived.
    waiting: Vec<u64>,
    /// Border nodes known (from any received vector) to have rejected.
    rejectors: Vec<u64>,
}

impl<D: Clone + WireSize> Instance<D> {
    /// Initializes the per-round state for `view`
    /// (rounds `1 ..= view.total_rounds()`).
    pub fn new(view: View) -> Self {
        let (rounds, b) = (view.total_rounds() as usize, view.participants());
        let everyone: Vec<u64> = (0..b.div_ceil(64))
            .map(|k| u64::MAX >> (64 * (k + 1)).saturating_sub(b))
            .collect();
        Instance {
            opinions: vec![None; rounds],
            waiting: everyone.repeat(rounds),
            rejectors: vec![0; everyone.len()],
            view,
        }
    }

    /// The view this instance decides on.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Consumes the instance, yielding its view without cloning.
    pub fn into_view(self) -> View {
        self.view
    }

    /// `true` once some border node is known to have rejected the view.
    pub fn has_rejectors(&self) -> bool {
        self.rejectors.iter().any(|&w| w != 0)
    }

    /// Merges a received message (Algorithm 1, lines 23–25): fills `⊥`
    /// entries of the message's round slot, removes the sender from that
    /// round's wait set, and registers any rejectors carried by the
    /// vector.
    pub fn merge(&mut self, from: NodeId, msg: &Message<D>) {
        let slot = (msg.round as usize).saturating_sub(1);
        debug_assert!(
            (&msg.view, &msg.border) == (self.view.region(), self.view.border())
                && slot < self.opinions.len(),
            "round-{} message misrouted to {}",
            msg.round,
            self.view
        );
        let theirs = &msg.opinions;
        if slot >= self.opinions.len() || theirs.as_slice().len() != self.view.participants() {
            return;
        }
        let known = self.opinions[slot].as_deref().map(OpinionVector::as_slice);
        let mut adds = false;
        for (i, op) in theirs.as_slice().iter().enumerate() {
            adds |= op.is_some() && known.is_some_and(|k| k[i].is_none());
            if let Some(Opinion::Reject) = op {
                self.rejectors[i / 64] |= 1 << (i % 64);
            }
        }
        // Take the sender's vector into an empty slot; copy on write
        // only when it adds an entry.
        match &mut self.opinions[slot] {
            empty @ None => *empty = Some(Arc::clone(theirs)),
            Some(vector) if adds => Arc::make_mut(vector).fill_from(theirs),
            Some(_) => {}
        }
        if let Ok(i) = self.view.border().as_slice().binary_search(&from) {
            self.waiting[slot * self.rejectors.len() + i / 64] &= !(1 << (i % 64));
        }
    }

    /// `true` if round `round` can complete: every border node has either
    /// sent its round-`round` message, is a known rejecter, or is known
    /// crashed (the `waiting[Vp][r] \ locallyCrashed = ∅` guard of line
    /// 32, extended with rejectors per the struct docs).
    pub fn round_complete(&self, round: u32, locally_crashed: &NodeSet) -> bool {
        let (words, slot) = (self.rejectors.len(), round as usize - 1);
        let Some(waiting) = self.waiting.get(slot * words..(slot + 1) * words) else {
            return false;
        };
        let border = self.view.border().as_slice();
        let silent = waiting.iter().zip(&self.rejectors).map(|(w, r)| w & !r);
        silent
            .enumerate()
            .all(|(k, w)| bits(w).all(|b| locally_crashed.contains(border[64 * k + b])))
    }

    /// `true` if the round-`round` vector has an entry (no `⊥`) for every
    /// border node — the footnote-6 early-termination criterion. O(1).
    pub fn vector_complete(&self, round: u32) -> bool {
        self.vector(round).is_some_and(OpinionVector::is_complete)
    }

    /// The round-`round` opinion vector, if the round has heard anything.
    pub fn vector(&self, round: u32) -> Option<&OpinionVector<D>> {
        let slot = (round as usize).checked_sub(1)?;
        self.opinions.get(slot)?.as_deref()
    }

    /// The round-`round` opinion vector, `Arc`-shared for forwarding in
    /// the next round's multicast without a deep copy.
    pub fn vector_arc(&self, round: u32) -> Arc<OpinionVector<D>> {
        let vector = &self.opinions[(round as usize) - 1];
        let empty = || Arc::new(OpinionVector::new(self.view.border()));
        vector.clone().unwrap_or_else(empty)
    }

    /// If the round-`round` vector is all-accept over the full border
    /// (line 34), returns the accepted values in border order.
    pub fn all_accept_values(&self, round: u32) -> Option<Vec<D>> {
        let slots = self.vector(round)?.as_slice().iter();
        slots
            .map(|op| op.as_ref()?.accepted_value().cloned())
            .collect()
    }
}

/// The set bit positions of `word`, in increasing order.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let b = word.trailing_zeros() as usize;
        (word != 0).then(|| {
            word &= word - 1;
            b
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::own_vector;
    use precipice_graph::{Graph, Region};

    fn star_view() -> View {
        // Hub 0 with leaves 1..=3; region {0} has border {1,2,3}.
        let g = precipice_graph::star(4);
        View::new(&g, Region::from_iter([NodeId(0)]))
    }

    fn msg(round: u32, view: &View, op: Arc<OpinionVector<u32>>) -> Message<u32> {
        Message {
            round,
            view: view.region().clone(),
            border: view.border().clone(),
            opinions: op,
        }
    }

    fn accept(view: &View, n: u32, value: u32) -> Arc<OpinionVector<u32>> {
        own_vector(view.border(), NodeId(n), Opinion::Accept(value))
    }

    fn reject(view: &View, n: u32) -> Arc<OpinionVector<u32>> {
        own_vector(view.border(), NodeId(n), Opinion::Reject)
    }

    impl<D> Instance<D> {
        /// Known rejectors of this view, in border order.
        fn rejectors(&self) -> impl Iterator<Item = NodeId> + '_ {
            let border = self.view.border().as_slice();
            let words = self.rejectors.iter().enumerate();
            words.flat_map(move |(k, &w)| bits(w).map(move |b| border[64 * k + b]))
        }
    }

    fn get(view: &View, v: &OpinionVector<u32>, n: u32) -> Option<Opinion<u32>> {
        let mut entries = v.iter(view.border());
        entries
            .find(|(p, _)| *p == NodeId(n))
            .map(|(_, op)| op.clone())
    }

    #[test]
    fn new_instance_waits_for_everyone() {
        let inst: Instance<u32> = Instance::new(star_view());
        assert_eq!(inst.view().total_rounds(), 2);
        assert!(!inst.round_complete(1, &NodeSet::new()));
        assert!(!inst.vector_complete(1));
        assert!(inst.all_accept_values(1).is_none());
    }

    #[test]
    fn merge_fills_bottoms_only() {
        let view = star_view();
        let border = view.border();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        inst.merge(NodeId(1), &msg(1, &view, accept(&view, 1, 11)));
        // A later vector claiming a different value for n1 must not
        // overwrite (line 24 only updates ⊥ entries).
        let mut conflicting = (*accept(&view, 1, 99)).clone();
        conflicting.insert(border, NodeId(2), Opinion::Accept(22));
        inst.merge(NodeId(2), &msg(1, &view, Arc::new(conflicting)));
        let v = inst.vector(1).expect("round 1 heard");
        assert_eq!(get(&view, v, 1), Some(Opinion::Accept(11)));
        assert_eq!(get(&view, v, 2), Some(Opinion::Accept(22)));
    }

    #[test]
    fn merge_shares_the_sender_vector_until_it_adds() {
        let view = star_view();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        let first = accept(&view, 1, 1);
        inst.merge(NodeId(1), &msg(1, &view, Arc::clone(&first)));
        assert!(
            Arc::ptr_eq(&inst.vector_arc(1), &first),
            "empty slot takes the Arc"
        );
        // A vector that adds nothing leaves the shared slot alone.
        inst.merge(NodeId(1), &msg(1, &view, accept(&view, 1, 7)));
        assert!(Arc::ptr_eq(&inst.vector_arc(1), &first));
        // One that adds copies on write; the sender's vector is untouched.
        inst.merge(NodeId(2), &msg(1, &view, accept(&view, 2, 2)));
        assert!(!Arc::ptr_eq(&inst.vector_arc(1), &first));
        let known = inst.vector(1).map(|v| v.iter(view.border()).count());
        assert_eq!(known, Some(2));
        assert_eq!(*first, *accept(&view, 1, 1));
    }

    #[test]
    fn round_completes_when_all_heard() {
        let view = star_view();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        for n in [1u32, 2, 3] {
            inst.merge(NodeId(n), &msg(1, &view, accept(&view, n, n)));
        }
        assert!(inst.round_complete(1, &NodeSet::new()));
        assert!(inst.vector_complete(1));
        assert_eq!(inst.all_accept_values(1), Some(vec![1, 2, 3]));
        // Round 2 untouched.
        assert!(!inst.round_complete(2, &NodeSet::new()));
    }

    #[test]
    fn crashed_nodes_unblock_waiting() {
        let view = star_view();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        inst.merge(NodeId(1), &msg(1, &view, accept(&view, 1, 1)));
        let crashed: NodeSet = [NodeId(2), NodeId(3)].into_iter().collect();
        assert!(inst.round_complete(1, &crashed));
        // But the all-accept check still fails: 2 and 3 are ⊥.
        assert!(inst.all_accept_values(1).is_none());
    }

    #[test]
    fn rejectors_unblock_every_round() {
        let view = star_view();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        inst.merge(NodeId(1), &msg(1, &view, accept(&view, 1, 1)));
        inst.merge(NodeId(3), &msg(1, &view, accept(&view, 3, 3)));
        // n2 rejects (tagged round 1) — it must unblock round 2 as well.
        inst.merge(NodeId(2), &msg(1, &view, reject(&view, 2)));
        assert!(inst.round_complete(1, &NodeSet::new()));
        assert_eq!(inst.rejectors().collect::<Vec<_>>(), vec![NodeId(2)]);
        // Round 2: only 1 and 3 need to speak.
        inst.merge(NodeId(1), &msg(2, &view, inst.vector_arc(1)));
        inst.merge(NodeId(3), &msg(2, &view, inst.vector_arc(1)));
        assert!(inst.round_complete(2, &NodeSet::new()));
        // Reject propagated into round 2 via the forwarded vectors.
        assert!(inst.all_accept_values(2).is_none());
    }

    #[test]
    fn reject_does_not_overwrite_prior_accept() {
        // FIFO scenario of Lemma 3: accept seen before reject keeps the
        // accept.
        let view = star_view();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        inst.merge(NodeId(1), &msg(1, &view, accept(&view, 1, 1)));
        inst.merge(NodeId(1), &msg(1, &view, reject(&view, 1)));
        let v = inst.vector(1).expect("round 1 heard");
        assert_eq!(get(&view, v, 1), Some(Opinion::Accept(1)));
        // ... but the node is still recorded as a rejecter for waiting.
        assert!(inst.rejectors().any(|r| r == NodeId(1)));
    }

    #[test]
    fn foreign_opinion_entries_do_not_complete_vectors() {
        // A vector cannot hold an entry for a node off the border, so
        // such an entry can never count toward completeness.
        let view = star_view();
        let border = view.border();
        let mut inst: Instance<u32> = Instance::new(view.clone());
        let mut op = OpinionVector::new(border);
        assert!(op.insert(border, NodeId(1), Opinion::Accept(1)));
        assert!(op.insert(border, NodeId(2), Opinion::Accept(2)));
        assert!(!op.insert(border, NodeId(99), Opinion::Accept(99)));
        assert_eq!(op.iter(border).count(), 2);
        inst.merge(NodeId(1), &msg(1, &view, Arc::new(op)));
        assert!(!inst.vector_complete(1));
        inst.merge(NodeId(3), &msg(1, &view, accept(&view, 3, 3)));
        assert!(inst.vector_complete(1));
    }

    #[test]
    fn singleton_border_instance() {
        // Path 0-1: region {0} has border {1} only.
        let g = Graph::from_edges(2, [(0, 1)]);
        let view = View::new(&g, Region::from_iter([NodeId(0)]));
        assert_eq!(view.total_rounds(), 1);
        let mut inst: Instance<u32> = Instance::new(view.clone());
        inst.merge(NodeId(1), &msg(1, &view, accept(&view, 1, 5)));
        assert!(inst.round_complete(1, &NodeSet::new()));
        assert_eq!(inst.all_accept_values(1), Some(vec![5]));
    }

    #[test]
    fn wait_masks_span_several_words() {
        // A 130-leaf star: border positions 0..130 cover three words.
        let g = precipice_graph::star(131);
        let view = View::new(&g, Region::from_iter([NodeId(0)]));
        let mut inst: Instance<u32> = Instance::new(view.clone());
        for n in 1..=129u32 {
            inst.merge(NodeId(n), &msg(1, &view, accept(&view, n, n)));
        }
        assert!(!inst.round_complete(1, &NodeSet::new()));
        let crashed: NodeSet = [NodeId(130)].into_iter().collect();
        assert!(inst.round_complete(1, &crashed));
        assert!(!inst.vector_complete(1));
        inst.merge(NodeId(130), &msg(1, &view, accept(&view, 130, 130)));
        assert!(inst.round_complete(1, &NodeSet::new()));
        assert_eq!(
            inst.all_accept_values(1),
            Some((1..=130).collect::<Vec<u32>>())
        );
        assert!(!inst.round_complete(129, &NodeSet::new()));
    }

    /// The tree-based instance that the dense one replaced: sorted sets
    /// and maps keyed by node id. Kept as the oracle of
    /// `dense_instance_matches_tree_oracle`.
    mod tree {
        use std::collections::{BTreeMap, BTreeSet};

        use super::*;

        pub(super) struct TreeInstance {
            pub view: View,
            pub opinions: Vec<BTreeMap<NodeId, Opinion<u32>>>,
            answered: Vec<BTreeSet<NodeId>>,
            waiting: Vec<BTreeSet<NodeId>>,
            pub rejectors: BTreeSet<NodeId>,
        }

        impl TreeInstance {
            pub fn new(view: View) -> Self {
                let rounds = view.total_rounds() as usize;
                let waiting: BTreeSet<NodeId> = view.border().iter().collect();
                TreeInstance {
                    opinions: vec![BTreeMap::new(); rounds],
                    answered: vec![BTreeSet::new(); rounds],
                    waiting: vec![waiting; rounds],
                    rejectors: BTreeSet::new(),
                    view,
                }
            }

            pub fn merge(&mut self, from: NodeId, msg: &Message<u32>) {
                let slot = (msg.round as usize).saturating_sub(1);
                let Some(vector) = self.opinions.get_mut(slot) else {
                    return;
                };
                let answered = &mut self.answered[slot];
                let border = self.view.border();
                for (pk, op) in msg.opinions.iter(&msg.border) {
                    vector.entry(pk).or_insert_with(|| {
                        if border.contains(pk) {
                            answered.insert(pk);
                        }
                        op.clone()
                    });
                }
                self.waiting[slot].remove(&from);
                let rejects = msg.opinions.iter(&msg.border);
                let rejectors = rejects.filter(|(_, op)| **op == Opinion::Reject);
                self.rejectors
                    .extend(rejectors.map(|(r, _)| r).filter(|r| border.contains(*r)));
            }

            pub fn round_complete(&self, round: u32, crashed: &NodeSet) -> bool {
                self.waiting[(round as usize) - 1]
                    .iter()
                    .all(|&p| crashed.contains(p) || self.rejectors.contains(&p))
            }

            pub fn vector_complete(&self, round: u32) -> bool {
                self.answered[(round as usize) - 1].len() == self.view.border().len()
            }

            pub fn all_accept_values(&self, round: u32) -> Option<Vec<u32>> {
                let vector = &self.opinions[(round as usize) - 1];
                self.view
                    .border()
                    .iter()
                    .map(|p| vector.get(&p)?.accepted_value().copied())
                    .collect()
            }

            /// `Message::wire_size` of a round-`round` forward, as the
            /// map-walking code computed it.
            pub fn wire_size(&self, round: u32) -> usize {
                let entries: usize = self.opinions[(round as usize) - 1]
                    .values()
                    .map(|op| 4 + 1 + op.accepted_value().map_or(0, WireSize::wire_size))
                    .sum();
                4 + self.view.region().wire_size() + self.view.border().wire_size() + 4 + entries
            }
        }
    }

    /// SplitMix64, for dependency-free random merge sequences.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Asserts that `dense` and `oracle` agree on every query about
    /// `rounds`, under a random crashed set.
    fn agree(
        dense: &Instance<u32>,
        oracle: &tree::TreeInstance,
        rounds: &[u32],
        rng: &mut Rng,
        case: usize,
    ) {
        let border = dense.view().border();
        let crashed: NodeSet = border.iter().filter(|_| rng.below(4) == 0).collect();
        for &r in rounds {
            let entries: std::collections::BTreeMap<NodeId, Opinion<u32>> = dense
                .vector(r)
                .map(|v| v.iter(border).map(|(p, op)| (p, op.clone())).collect())
                .unwrap_or_default();
            let at = format!("case {case}, round {r}");
            assert_eq!(entries, oracle.opinions[r as usize - 1], "{at}");
            assert_eq!(
                dense.round_complete(r, &crashed),
                oracle.round_complete(r, &crashed),
                "{at}"
            );
            assert_eq!(dense.vector_complete(r), oracle.vector_complete(r), "{at}");
            assert_eq!(
                dense.all_accept_values(r),
                oracle.all_accept_values(r),
                "{at}"
            );
            let forward = msg(r + 1, dense.view(), dense.vector_arc(r));
            assert_eq!(forward.wire_size(), oracle.wire_size(r), "{at}");
        }
    }

    /// Random merge sequences — fresh vectors, forwards of the instance's
    /// own round vectors, senders off the border — leave the dense
    /// instance observably equal to the tree oracle after every merge,
    /// and never change a vector already handed to a message.
    #[test]
    fn dense_instance_matches_tree_oracle() {
        let mut rng = Rng(0x5eed);
        for case in 0..300 {
            let width = if case % 10 == 0 {
                60 + rng.below(12)
            } else {
                1 + rng.below(8)
            };
            let mut ids: Vec<NodeId> = (0..width as u32)
                .map(|i| NodeId(3 * i + rng.below(3) as u32))
                .collect();
            ids.dedup();
            let border = Region::from_sorted_vec(ids);
            let view = View::from_parts(Region::from_iter([NodeId(1_000)]), border.clone());
            let rounds = view.total_rounds();
            let mut dense: Instance<u32> = Instance::new(view.clone());
            let mut oracle = tree::TreeInstance::new(view.clone());
            let mut sent: Vec<(Arc<OpinionVector<u32>>, OpinionVector<u32>)> = Vec::new();
            for _ in 0..4 * width {
                let round = 1 + rng.below(rounds as usize) as u32;
                let from = match rng.below(8) {
                    0 => NodeId(1_001),
                    _ => border.as_slice()[rng.below(border.len())],
                };
                let opinions = if rng.below(3) == 0 {
                    dense.vector_arc(1 + rng.below(rounds as usize) as u32)
                } else {
                    let mut op = OpinionVector::new(&border);
                    for p in border.iter() {
                        match rng.below(20) {
                            0..=4 => op.insert(&border, p, Opinion::Accept(rng.below(4) as u32)),
                            5..=7 => op.insert(&border, p, Opinion::Reject),
                            _ => false,
                        };
                    }
                    Arc::new(op)
                };
                sent.push((Arc::clone(&opinions), (*opinions).clone()));
                let message = msg(round, &view, opinions);
                dense.merge(from, &message);
                oracle.merge(from, &message);

                // The merged round and one other, every step; all rounds
                // at the end of the case.
                let other = 1 + rng.below(rounds as usize) as u32;
                agree(&dense, &oracle, &[round, other], &mut rng, case);
                assert!(dense.rejectors().eq(oracle.rejectors.iter().copied()));
            }
            let all: Vec<u32> = (1..=rounds).collect();
            agree(&dense, &oracle, &all, &mut rng, case);
            for (arc, snapshot) in &sent {
                assert_eq!(**arc, *snapshot, "case {case}: a sent vector changed");
            }
        }
    }
}
