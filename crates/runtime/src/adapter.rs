use std::sync::Arc;

use precipice_core::{Action, CliffEdgeNode, DecisionPolicy, Event, Message, View, WireSize};
use precipice_graph::{Graph, NodeId};
use precipice_sim::{Context, MessageSize, Process, SimTime};

/// How the paper's best-effort multicast loop (§3.1: "a plain loop" of
/// point-to-point sends) is realized on the simulator.
///
/// Handlers run atomically in the simulator, so a literal loop can never
/// be cut short by a crash. `Sequential` restores the paper's weaker
/// semantics: each hop of the loop is driven by a self-message, so a
/// crash landing mid-loop leaves a **partial multicast** — the adversary
/// case the cascading-crashes argument of Lemma 3 must survive.
///
/// Per-channel FIFO is preserved in both modes: all of one node's chain
/// continuations share the FIFO self-channel, so two multicasts to the
/// same recipient list (e.g. an accept then a reject for the same view)
/// can never overtake each other — exactly the ordering Lemma 3 needs.
///
/// `Sequential` inflates message counts with chain bookkeeping (size 0,
/// but counted) and stretches multicasts over channel latencies; use it
/// for correctness testing, `Atomic` for cost measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MulticastMode {
    /// The whole recipient loop executes in the sending handler.
    #[default]
    Atomic,
    /// One recipient per self-message hop; crashes truncate the loop.
    Sequential,
}

/// Wire traffic of the adapted protocol: a protocol message, or a
/// continuation of a sequential multicast loop.
#[derive(Debug, Clone)]
pub enum ProtoMsg<D> {
    /// An Algorithm-1 message.
    Protocol(Message<D>),
    /// Bookkeeping for [`MulticastMode::Sequential`]: deliver `message`
    /// to the remaining recipients, one hop at a time.
    Chain {
        /// Recipients not yet served, in order.
        remaining: Vec<NodeId>,
        /// The message being multicast.
        message: Message<D>,
    },
}

impl<D: WireSize> MessageSize for ProtoMsg<D> {
    fn size_bytes(&self) -> usize {
        match self {
            ProtoMsg::Protocol(m) => m.wire_size(),
            // Loop bookkeeping, not wire traffic.
            ProtoMsg::Chain { .. } => 0,
        }
    }
}

/// A [`CliffEdgeNode`] adapted to the simulator's [`Process`] interface.
///
/// The adapter executes the node's [`Action`]s against the simulator
/// context (sends, failure-detector subscriptions) and records the
/// decision with its virtual timestamp.
pub struct ProtocolProcess<P: DecisionPolicy> {
    node: CliffEdgeNode<Arc<Graph>, P>,
    decision: Option<(View, P::Value, SimTime)>,
    multicast_mode: MulticastMode,
}

impl<P: DecisionPolicy> std::fmt::Debug for ProtocolProcess<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolProcess")
            .field("me", &self.node.me())
            .field("decided", &self.decision.is_some())
            .field("multicast_mode", &self.multicast_mode)
            .finish()
    }
}

impl<P: DecisionPolicy> ProtocolProcess<P> {
    /// Wraps a protocol node with atomic multicasts.
    pub fn new(node: CliffEdgeNode<Arc<Graph>, P>) -> Self {
        ProtocolProcess {
            node,
            decision: None,
            multicast_mode: MulticastMode::Atomic,
        }
    }

    /// Wraps a protocol node with the given multicast realization.
    pub fn with_multicast_mode(
        node: CliffEdgeNode<Arc<Graph>, P>,
        multicast_mode: MulticastMode,
    ) -> Self {
        ProtocolProcess {
            node,
            decision: None,
            multicast_mode,
        }
    }

    /// The underlying protocol state machine.
    pub fn node(&self) -> &CliffEdgeNode<Arc<Graph>, P> {
        &self.node
    }

    /// The recorded decision (view, value, decision time), if any.
    pub fn decision(&self) -> Option<&(View, P::Value, SimTime)> {
        self.decision.as_ref()
    }

    fn execute(
        &mut self,
        actions: Vec<Action<P::Value>>,
        ctx: &mut Context<'_, ProtoMsg<P::Value>>,
    ) {
        for action in actions {
            match action {
                Action::Monitor(targets) => {
                    for t in targets {
                        ctx.monitor(t);
                    }
                }
                Action::Multicast {
                    recipients,
                    message,
                } => match self.multicast_mode {
                    MulticastMode::Atomic => {
                        for to in recipients {
                            ctx.send(to, ProtoMsg::Protocol(message.clone()));
                        }
                    }
                    MulticastMode::Sequential => {
                        self.chain_step(recipients, message, ctx);
                    }
                },
                Action::Decide { view, value } => {
                    debug_assert!(self.decision.is_none(), "decide emitted twice");
                    self.decision = Some((view, value, ctx.now()));
                }
            }
        }
    }

    /// Serves the next recipient of a sequential multicast and queues the
    /// continuation (if any) back to ourselves.
    fn chain_step(
        &mut self,
        recipients: Vec<NodeId>,
        message: Message<P::Value>,
        ctx: &mut Context<'_, ProtoMsg<P::Value>>,
    ) {
        let Some((&first, rest)) = recipients.split_first() else {
            return;
        };
        ctx.send(first, ProtoMsg::Protocol(message.clone()));
        if !rest.is_empty() {
            ctx.send(
                ctx.me(),
                ProtoMsg::Chain {
                    remaining: rest.to_vec(),
                    message,
                },
            );
        }
    }
}

impl<P: DecisionPolicy> Process for ProtocolProcess<P> {
    type Msg = ProtoMsg<P::Value>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let actions = self.node.handle(Event::Init);
        self.execute(actions, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        match msg {
            ProtoMsg::Protocol(message) => {
                let actions = self.node.handle(Event::Deliver { from, message });
                self.execute(actions, ctx);
            }
            ProtoMsg::Chain { remaining, message } => {
                debug_assert_eq!(from, self.node.me(), "chains are self-addressed");
                self.chain_step(remaining, message, ctx);
            }
        }
    }

    fn on_crash_notification(&mut self, crashed: NodeId, ctx: &mut Context<'_, Self::Msg>) {
        let actions = self.node.handle(Event::Crash(crashed));
        self.execute(actions, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_core::{NodeIdValuePolicy, Opinion, OpinionVector, ProtocolConfig};
    use precipice_graph::Region;

    #[test]
    fn proto_msg_size_matches_wire_size() {
        let border = Region::from_iter([NodeId(0), NodeId(2)]);
        let mut opinions = OpinionVector::new(&border);
        opinions.insert(&border, NodeId(0), Opinion::Accept(NodeId(0)));
        let message: Message<NodeId> = Message {
            round: 1,
            view: Region::from_iter([NodeId(1)]),
            border,
            opinions: Arc::new(opinions),
        };
        assert_eq!(
            ProtoMsg::Protocol(message.clone()).size_bytes(),
            message.wire_size()
        );
        let chain: ProtoMsg<NodeId> = ProtoMsg::Chain {
            remaining: vec![NodeId(0)],
            message,
        };
        assert_eq!(chain.size_bytes(), 0);
    }

    #[test]
    fn adapter_exposes_node_state() {
        let g = Arc::new(Graph::from_edges(2, [(0, 1)]));
        let node = CliffEdgeNode::new(NodeId(0), g, NodeIdValuePolicy, ProtocolConfig::default());
        let proc = ProtocolProcess::new(node);
        assert_eq!(proc.node().me(), NodeId(0));
        assert!(proc.decision().is_none());
        assert_eq!(proc.multicast_mode, MulticastMode::Atomic);
    }

    #[test]
    fn sequential_mode_is_selectable() {
        let g = Arc::new(Graph::from_edges(2, [(0, 1)]));
        let node = CliffEdgeNode::new(NodeId(0), g, NodeIdValuePolicy, ProtocolConfig::default());
        let proc = ProtocolProcess::with_multicast_mode(node, MulticastMode::Sequential);
        assert_eq!(proc.multicast_mode, MulticastMode::Sequential);
    }
}
