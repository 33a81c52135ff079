//! The sharded event-loop runtime: `W` worker shards instead of one
//! thread per node.
//!
//! The thread-per-node backend ([`LiveCluster`](crate::LiveCluster))
//! tops out around thousands of nodes — every node costs an OS thread
//! and an unbounded channel *up front*, whether the scenario ever
//! touches it or not. This module replaces that with the design the sim
//! side has used since the footprint-proportional rework:
//!
//! - **Disjoint node ranges.** The id space of one shared
//!   [`Arc<Graph>`] (owned or mapped `.pcsr`) is cut into `W` contiguous
//!   ranges; shard `i` owns range `i` and is the only thread that ever
//!   holds protocol state for those nodes.
//! - **Lazy activation.** A node materializes (policy built, `Init`
//!   run) the first time an event addressed to it is popped — exactly
//!   like the sim's lazy process table. A 10⁶-node topology with one
//!   crashed node allocates state for the border only.
//! - **Bounded MPSC rings.** Cross-shard traffic flows over one
//!   [`Ring`] per shard (see [`ring`](crate::ring)) instead of one
//!   channel per node.
//! - **One in-flight counter.** The kill-switch quiescence oracle is
//!   re-expressed as one atomic counter for the whole cluster: a post
//!   charges it before the event is enqueued, the owning shard
//!   acknowledges after the handler (and everything it posted) is
//!   done. Counter at zero for a quiet window ⇒ quiescent. (Per-shard
//!   counters would tear: a sweep could read shard A before a handler
//!   on B charges it, and B after the handler acknowledges, and see 0.)
//!
//! Failure detection keeps the graph-backed semantics of the sim's
//! `FailureDetector::with_static_graph`: every node is implicitly
//! subscribed to its graph neighbours (so `Init`'s monitor of the
//! neighbourhood is a no-op and never forces activation), dynamic
//! monitors are recorded only for non-neighbours, and a kill notifies
//! `neighbours(q) ∪ dynamic(q)` exactly once per (observer, target)
//! pair, in ascending node order.

use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use precipice_core::{
    Action, CliffEdgeNode, DecisionPolicy, Event, Message, NodeIdValuePolicy, ProtocolConfig,
    ProtocolStats, View,
};
use precipice_graph::{Graph, NodeId};

use crate::cluster::LiveReport;
use crate::gate::Gate;
use crate::ring::{Pop, Ring};

/// Capacity of each shard's bounded ring; bursts beyond it spill (see
/// [`ring`](crate::ring)).
const RING_CAPACITY: usize = 1024;

/// How long an idle shard sleeps in `pop` before re-checking its ring.
const IDLE_TICK: Duration = Duration::from_millis(10);

/// An event in flight towards the node that must handle it.
#[derive(Debug)]
pub(crate) enum ShardEvent<V> {
    /// A protocol message from `from` to `to`.
    Deliver {
        /// Destination node.
        to: NodeId,
        /// Sending node.
        from: NodeId,
        /// The protocol message.
        message: Message<V>,
    },
    /// The failure detector tells `to` that `crashed` crashed.
    Notify {
        /// Destination node.
        to: NodeId,
        /// The crashed node being reported.
        crashed: NodeId,
    },
}

impl<V> ShardEvent<V> {
    pub(crate) fn to(&self) -> NodeId {
        match self {
            ShardEvent::Deliver { to, .. } | ShardEvent::Notify { to, .. } => *to,
        }
    }
}

/// Failure-detector bookkeeping, shared by all shards under one lock.
#[derive(Debug, Default)]
struct FdState {
    /// Nodes killed so far.
    crashed: BTreeSet<NodeId>,
    /// Dynamic (non-neighbour) subscriptions: target → observers.
    dynamic: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// (observer, target) pairs already notified — exactly-once guard.
    notified: BTreeSet<(NodeId, NodeId)>,
}

/// Transport counters, kept as atomics and snapshotted on demand.
#[derive(Debug, Default)]
struct Counters {
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    notifications: AtomicU64,
    activations: AtomicU64,
    events: AtomicU64,
}

/// A plain snapshot of the router's transport accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Protocol messages accepted for delivery.
    pub messages_sent: u64,
    /// Serialized bytes of those messages.
    pub bytes_sent: u64,
    /// Protocol messages actually handled by a live node.
    pub delivered: u64,
    /// Events dropped because their target was crashed.
    pub dropped: u64,
    /// Crash notifications issued.
    pub notifications: u64,
    /// Nodes activated on demand.
    pub activations: u64,
    /// Total events handled by shard loops.
    pub events: u64,
}

/// The shared heart of the sharded runtime: ring addressing, quiescence
/// accounting and graph-backed failure detection.
///
/// Lock ordering: `fd` before the gate's queue lock; ring mutexes are
/// leaves. Nothing ever takes `fd` while holding a ring or gate lock.
#[derive(Debug)]
pub(crate) struct Router<V> {
    graph: Arc<Graph>,
    shards: usize,
    /// Nodes per shard range (last shard takes the remainder).
    range: usize,
    rings: Vec<Arc<Ring<ShardEvent<V>>>>,
    /// Events posted and not yet fully handled, over all shards.
    in_flight: AtomicU64,
    fd: Mutex<FdState>,
    /// When set, posts are parked here instead of entering the rings —
    /// the delivery gate for schedule exploration.
    gate: Option<Arc<Gate<V>>>,
    /// Logical release clock; only advanced by a gate controller.
    step: AtomicU64,
    counters: Counters,
}

impl<V: precipice_core::WireSize> Router<V> {
    fn new(graph: Arc<Graph>, shards: usize, gate: Option<Arc<Gate<V>>>) -> Arc<Self> {
        let shards = shards.max(1);
        let range = graph.len().div_ceil(shards).max(1);
        Arc::new(Router {
            graph,
            shards,
            range,
            rings: (0..shards)
                .map(|_| Arc::new(Ring::new(RING_CAPACITY)))
                .collect(),
            in_flight: AtomicU64::new(0),
            fd: Mutex::new(FdState::default()),
            gate,
            step: AtomicU64::new(0),
            counters: Counters::default(),
        })
    }

    pub(crate) fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Which shard owns `node`: contiguous ranges of the id space.
    pub(crate) fn shard_of(&self, node: NodeId) -> usize {
        ((node.0 as usize) / self.range).min(self.shards - 1)
    }

    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        self.fd.lock().expect("fd lock").crashed.contains(&node)
    }

    /// Routes `event` towards its owner: charges the target shard and
    /// enqueues, or parks it in the gate when one is installed. Called
    /// with the fd lock held, so a concurrent kill cannot slip between
    /// the liveness check and the enqueue.
    fn route(&self, event: ShardEvent<V>) {
        if let Some(gate) = &self.gate {
            gate.park(event);
        } else {
            self.release(event);
        }
    }

    /// Sends `event` into its owner's ring for real, charging the
    /// in-flight counter first (quiescence must never observe the window
    /// between enqueue and charge).
    pub(crate) fn release(&self, event: ShardEvent<V>) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        self.rings[self.shard_of(event.to())].push(event);
    }

    /// A protocol message from `from` to `to`; dropped if `to` is dead.
    fn deliver(&self, from: NodeId, to: NodeId, message: Message<V>) {
        let fd = self.fd.lock().expect("fd lock");
        if fd.crashed.contains(&to) {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.counters.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_sent
            .fetch_add(message.wire_size() as u64, Ordering::Relaxed);
        self.route(ShardEvent::Deliver { to, from, message });
        drop(fd);
    }

    /// `observer` asks to monitor `target` (a dynamic `Monitor` action).
    ///
    /// Graph neighbours are implicitly covered and recorded nowhere; a
    /// non-neighbour target is stored. If the target is already dead
    /// and this pair was never notified, the notification fires now.
    fn monitor(&self, observer: NodeId, target: NodeId) {
        let mut fd = self.fd.lock().expect("fd lock");
        if fd.crashed.contains(&target) {
            if fd.notified.insert((observer, target)) {
                self.counters.notifications.fetch_add(1, Ordering::Relaxed);
                self.route(ShardEvent::Notify {
                    to: observer,
                    crashed: target,
                });
            }
            return;
        }
        if self.graph.has_edge(observer, target) {
            return;
        }
        fd.dynamic.entry(target).or_default().insert(observer);
    }

    /// Marks `q` crashed and notifies `neighbours(q) ∪ dynamic(q)` in
    /// ascending order, exactly once per pair. Returns `false` if `q`
    /// was already dead. Notifications to observers that are themselves
    /// dead are enqueued and dropped at delivery, mirroring the sim.
    pub(crate) fn kill(&self, q: NodeId) -> bool {
        let mut fd = self.fd.lock().expect("fd lock");
        if !fd.crashed.insert(q) {
            return false;
        }
        let dynamic = fd.dynamic.remove(&q).unwrap_or_default();
        let mut observers: Vec<NodeId> = self
            .graph
            .neighbors(q)
            .iter()
            .copied()
            .chain(dynamic)
            .collect();
        observers.sort_unstable();
        observers.dedup();
        for obs in observers {
            if fd.notified.insert((obs, q)) {
                self.counters.notifications.fetch_add(1, Ordering::Relaxed);
                self.route(ShardEvent::Notify {
                    to: obs,
                    crashed: q,
                });
            }
        }
        true
    }

    /// Acknowledges one fully-handled (or dropped) event.
    fn done(&self) {
        let before = self.in_flight.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(before > 0, "in-flight counter underflow");
    }

    /// Outstanding events across all shards.
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// The logical release clock (0 outside gated runs).
    fn step(&self) -> u64 {
        self.step.load(Ordering::SeqCst)
    }

    /// Advances the release clock (gate controller only).
    pub(crate) fn bump_step(&self) -> u64 {
        self.step.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn snapshot(&self) -> RouterCounters {
        RouterCounters {
            messages_sent: self.counters.messages_sent.load(Ordering::Relaxed),
            bytes_sent: self.counters.bytes_sent.load(Ordering::Relaxed),
            delivered: self.counters.delivered.load(Ordering::Relaxed),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            notifications: self.counters.notifications.load(Ordering::Relaxed),
            activations: self.counters.activations.load(Ordering::Relaxed),
            events: self.counters.events.load(Ordering::Relaxed),
        }
    }
}

/// A decision as the shards record it: view, value, release step.
type DecisionCell<V> = BTreeMap<NodeId, (View, V, u64)>;

/// A running sharded cluster over one shared topology.
///
/// Generic over the [`DecisionPolicy`] so [`Scenario::exec`] policies
/// carry over; plain [`ShardedCluster::start`] gives the default
/// coordinator-election policy. See the [module docs](self) for the
/// design and the [crate docs](crate) for an end-to-end example.
pub struct ShardedCluster<P: DecisionPolicy = NodeIdValuePolicy> {
    router: Arc<Router<P::Value>>,
    handles: Vec<JoinHandle<ShardNodes<P>>>,
    decisions: Arc<Mutex<DecisionCell<P::Value>>>,
    killed: BTreeSet<NodeId>,
}

type ShardNodes<P> = BTreeMap<NodeId, CliffEdgeNode<Arc<Graph>, P>>;

impl<P: DecisionPolicy> std::fmt::Debug for ShardedCluster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCluster")
            .field("nodes", &self.router.graph.len())
            .field("shards", &self.router.shards)
            .field("killed", &self.killed)
            .finish()
    }
}

impl ShardedCluster<NodeIdValuePolicy> {
    /// Starts `shards` worker shards over `graph` with the default
    /// coordinator-election policy. No node state is allocated until a
    /// node first receives an event.
    pub fn start(graph: Graph, config: ProtocolConfig, shards: usize) -> Self {
        Self::start_shared(Arc::new(graph), config, shards)
    }

    /// [`start`](Self::start) over an already-shared topology — the
    /// entry point for mapped `.pcsr` graphs, where cloning the `Arc`
    /// is the whole point.
    pub fn start_shared(graph: Arc<Graph>, config: ProtocolConfig, shards: usize) -> Self {
        Self::start_with(graph, config, shards, |_me| NodeIdValuePolicy)
    }
}

impl<P> ShardedCluster<P>
where
    P: DecisionPolicy + Send + 'static,
    P::Value: Send + Sync,
{
    /// Starts the cluster with a per-node policy factory (the exec
    /// API's `decide_with` hook). The factory runs on shard threads,
    /// serialized by a lock, the first time each node activates.
    pub fn start_with<F>(
        graph: Arc<Graph>,
        config: ProtocolConfig,
        shards: usize,
        factory: F,
    ) -> Self
    where
        F: FnMut(NodeId) -> P + Send + 'static,
    {
        Self::launch(graph, config, shards, factory, None)
    }

    pub(crate) fn launch<F>(
        graph: Arc<Graph>,
        config: ProtocolConfig,
        shards: usize,
        factory: F,
        gate: Option<Arc<Gate<P::Value>>>,
    ) -> Self
    where
        F: FnMut(NodeId) -> P + Send + 'static,
    {
        let router = Router::new(graph, shards, gate);
        let decisions: Arc<Mutex<DecisionCell<P::Value>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let factory = Arc::new(Mutex::new(factory));
        let handles = (0..router.shards)
            .map(|shard| {
                let router = Arc::clone(&router);
                let factory = Arc::clone(&factory);
                let decisions = Arc::clone(&decisions);
                std::thread::Builder::new()
                    .name(format!("precipice-shard-{shard}"))
                    .spawn(move || shard_main(shard, router, factory, config, decisions))
                    .expect("spawn shard thread")
            })
            .collect();
        ShardedCluster {
            router,
            handles,
            decisions,
            killed: BTreeSet::new(),
        }
    }

    /// The shared topology.
    pub fn graph(&self) -> &Arc<Graph> {
        self.router.graph()
    }

    /// Worker shard count.
    pub fn shards(&self) -> usize {
        self.router.shards
    }

    /// Induces the crash of `node`: queued and future events addressed
    /// to it are dropped, and its observers are notified.
    pub fn kill(&mut self, node: NodeId) {
        if self.killed.insert(node) {
            self.router.kill(node);
        }
    }

    /// Nodes killed so far.
    pub fn killed(&self) -> &BTreeSet<NodeId> {
        &self.killed
    }

    /// Outstanding (posted but not yet fully handled) events.
    pub fn pending(&self) -> u64 {
        self.router.in_flight()
    }

    /// Nodes activated on demand so far — the live analogue of the
    /// sim's footprint metric. Never-activated nodes hold no state.
    pub fn activated(&self) -> u64 {
        self.router.counters.activations.load(Ordering::Relaxed)
    }

    /// Events that overflowed a shard ring into its spill lane.
    pub fn spilled(&self) -> u64 {
        self.router.rings.iter().map(|r| r.spilled()).sum()
    }

    /// Transport accounting so far.
    pub fn counters(&self) -> RouterCounters {
        self.router.snapshot()
    }

    /// The decision of `node`, if it has decided (live read — valid
    /// mid-run, used by `precipice serve`'s `read` command).
    pub fn decision_of(&self, node: NodeId) -> Option<(View, P::Value)> {
        self.decisions
            .lock()
            .expect("decisions lock")
            .get(&node)
            .map(|(view, value, _)| (view.clone(), value.clone()))
    }

    /// Snapshot of all decisions so far (killed nodes excluded).
    pub fn decisions_snapshot(&self) -> BTreeMap<NodeId, (View, P::Value)> {
        self.decisions
            .lock()
            .expect("decisions lock")
            .iter()
            .filter(|(node, _)| !self.killed.contains(node))
            .map(|(node, (view, value, _))| (*node, (view.clone(), value.clone())))
            .collect()
    }

    /// Advances the gated release clock (gate controller only).
    pub(crate) fn bump_step(&self) -> u64 {
        self.router.bump_step()
    }

    /// Releases one parked event into the real rings (gate controller
    /// only).
    pub(crate) fn release_gated(&self, event: ShardEvent<P::Value>) {
        self.router.release(event);
    }

    /// Release-clock stamps of all decisions so far (killed excluded).
    pub(crate) fn decision_steps(&self) -> BTreeMap<NodeId, u64> {
        self.decisions
            .lock()
            .expect("decisions lock")
            .iter()
            .filter(|(node, _)| !self.killed.contains(node))
            .map(|(node, (_, _, step))| (*node, *step))
            .collect()
    }

    /// Blocks until no event has been outstanding for `quiet`, or until
    /// `timeout` elapses. Returns `true` on quiescence.
    ///
    /// Same contract as the thread-per-node oracle: a post charges the
    /// in-flight counter *before* enqueueing and the shard acknowledges
    /// only after the handler (and everything it posted) is done, so a
    /// zero counter means no handler is mid-flight; a full quiet window
    /// with no kills in between is genuinely final.
    pub fn await_quiescence(&self, quiet: Duration, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut quiet_since: Option<Instant> = None;
        loop {
            if self.router.in_flight() == 0 {
                let since = *quiet_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= quiet {
                    return true;
                }
            } else {
                quiet_since = None;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops all shards (draining their rings first) and collects the
    /// final report. Killed nodes and never-touched nodes contribute no
    /// stats; killed nodes' decisions are dropped with them.
    pub fn shutdown(mut self) -> LiveReport<P::Value> {
        for ring in &self.router.rings {
            ring.close();
        }
        let mut stats = BTreeMap::new();
        for handle in self.handles.drain(..) {
            for (id, node) in handle.join().expect("shard thread panicked") {
                if !self.killed.contains(&id) && *node.stats() != ProtocolStats::default() {
                    stats.insert(id, *node.stats());
                }
            }
        }
        let decisions = self
            .decisions
            .lock()
            .expect("decisions lock")
            .iter()
            .filter(|(node, _)| !self.killed.contains(node))
            .map(|(node, (view, value, _))| (*node, (view.clone(), value.clone())))
            .collect();
        LiveReport {
            decisions,
            stats,
            killed: self.killed,
        }
    }
}

/// One shard's event loop: pop, activate on demand, handle, execute the
/// resulting actions, acknowledge.
fn shard_main<P, F>(
    shard: usize,
    router: Arc<Router<P::Value>>,
    factory: Arc<Mutex<F>>,
    config: ProtocolConfig,
    decisions: Arc<Mutex<DecisionCell<P::Value>>>,
) -> ShardNodes<P>
where
    P: DecisionPolicy,
    F: FnMut(NodeId) -> P,
{
    let ring = Arc::clone(&router.rings[shard]);
    let mut nodes: ShardNodes<P> = BTreeMap::new();
    loop {
        match ring.pop(IDLE_TICK) {
            Pop::Item(event) => {
                handle_event(event, &router, &factory, config, &decisions, &mut nodes);
                router.done();
            }
            Pop::TimedOut => continue,
            Pop::Closed => break,
        }
    }
    nodes
}

fn handle_event<P, F>(
    event: ShardEvent<P::Value>,
    router: &Router<P::Value>,
    factory: &Mutex<F>,
    config: ProtocolConfig,
    decisions: &Mutex<DecisionCell<P::Value>>,
    nodes: &mut ShardNodes<P>,
) where
    P: DecisionPolicy,
    F: FnMut(NodeId) -> P,
{
    let to = event.to();
    router.counters.events.fetch_add(1, Ordering::Relaxed);
    if router.is_crashed(to) {
        router.counters.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let node = match nodes.entry(to) {
        btree_map::Entry::Occupied(entry) => entry.into_mut(),
        btree_map::Entry::Vacant(entry) => {
            // First event for this node: build it and run Init before
            // the event itself — the protocol requires Init first, and
            // its neighbourhood monitor is free under graph-backed FD.
            router.counters.activations.fetch_add(1, Ordering::Relaxed);
            let policy = (factory.lock().expect("policy factory lock"))(to);
            let mut node = CliffEdgeNode::new(to, Arc::clone(router.graph()), policy, config);
            let init_actions = node.handle(Event::Init);
            let node = entry.insert(node);
            execute(to, init_actions, router, decisions);
            node
        }
    };
    let actions = match event {
        ShardEvent::Deliver { from, message, .. } => {
            router.counters.delivered.fetch_add(1, Ordering::Relaxed);
            node.handle(Event::Deliver { from, message })
        }
        ShardEvent::Notify { crashed, .. } => node.handle(Event::Crash(crashed)),
    };
    execute(to, actions, router, decisions);
}

fn execute<V: Clone + precipice_core::WireSize>(
    me: NodeId,
    actions: Vec<Action<V>>,
    router: &Router<V>,
    decisions: &Mutex<DecisionCell<V>>,
) {
    for action in actions {
        match action {
            Action::Monitor(targets) => {
                for target in targets {
                    router.monitor(me, target);
                }
            }
            Action::Multicast {
                recipients,
                message,
            } => {
                for to in recipients {
                    router.deliver(me, to, message.clone());
                }
            }
            Action::Decide { view, value } => {
                let step = router.step();
                let previous = decisions
                    .lock()
                    .expect("decisions lock")
                    .insert(me, (view, value, step));
                debug_assert!(previous.is_none(), "{me} decided twice");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precipice_graph::{path, torus, GridDims, Region};

    const QUIET: Duration = Duration::from_millis(150);
    const TIMEOUT: Duration = Duration::from_secs(20);

    fn run_one(graph: Graph, shards: usize, kills: &[NodeId]) -> (LiveReport, u64) {
        let mut cluster = ShardedCluster::start(graph, ProtocolConfig::default(), shards);
        for &k in kills {
            cluster.kill(k);
        }
        assert!(
            cluster.await_quiescence(QUIET, TIMEOUT),
            "must go quiescent"
        );
        assert_eq!(cluster.pending(), 0);
        let activated = cluster.activated();
        (cluster.shutdown(), activated)
    }

    #[test]
    fn path_agreement_single_shard() {
        let (report, _) = run_one(path(3), 1, &[NodeId(1)]);
        assert_eq!(report.decisions.len(), 2);
        let region: Region = [NodeId(1)].into_iter().collect();
        for d in report.decisions.values() {
            assert_eq!(d.0.region(), &region);
            assert_eq!(d.1, NodeId(0), "smallest border id elected");
        }
    }

    #[test]
    fn torus_agreement_many_shards() {
        let (report, activated) = run_one(torus(GridDims::square(4)), 4, &[NodeId(9)]);
        let region: Region = [NodeId(9)].into_iter().collect();
        let border = report.decisions.keys().copied().collect::<Vec<_>>();
        assert_eq!(border.len(), 4, "whole border decides");
        for d in report.decisions.values() {
            assert_eq!(d.0.region(), &region);
        }
        // Only the border ever saw an event.
        assert_eq!(activated, 4);
        assert_eq!(report.stats.len(), 4);
    }

    #[test]
    fn never_activated_nodes_allocate_no_state() {
        // The spawn-on-demand regression: a 1024-node torus with one
        // kill must only materialize the 4 border nodes — state for
        // the other 1019 is never allocated anywhere.
        let mut cluster =
            ShardedCluster::start(torus(GridDims::square(32)), ProtocolConfig::default(), 3);
        assert_eq!(cluster.activated(), 0, "startup activates nothing");
        assert_eq!(cluster.pending(), 0, "startup posts nothing");
        cluster.kill(NodeId(100));
        assert!(cluster.await_quiescence(QUIET, TIMEOUT));
        assert_eq!(cluster.activated(), 4);
        let report = cluster.shutdown();
        assert_eq!(report.stats.len(), 4, "stats only for touched nodes");
        assert_eq!(report.decisions.len(), 4);
    }

    #[test]
    fn quiescent_immediately_without_kills() {
        let cluster =
            ShardedCluster::start(torus(GridDims::square(5)), ProtocolConfig::default(), 2);
        assert!(cluster.await_quiescence(Duration::from_millis(20), TIMEOUT));
        let report = cluster.shutdown();
        assert!(report.decisions.is_empty());
        assert!(report.stats.is_empty());
    }

    #[test]
    fn adjacent_kills_converge_to_merged_region() {
        let (report, _) = run_one(torus(GridDims::square(5)), 2, &[NodeId(12), NodeId(13)]);
        // Every decision must be internally consistent: decider on the
        // border of its region, region within the killed set.
        let killed: Region = [NodeId(12), NodeId(13)].into_iter().collect();
        assert!(!report.decisions.is_empty());
        for (n, (view, _)) in &report.decisions {
            assert!(view.region().iter().all(|q| killed.contains(q)));
            assert!(view.border().contains(*n), "decider {n} on its border");
        }
    }

    #[test]
    fn distant_regions_decide_independently() {
        let (report, _) = run_one(path(9), 4, &[NodeId(2), NodeId(6)]);
        assert_eq!(report.decisions.len(), 4);
        let r2: Region = [NodeId(2)].into_iter().collect();
        let r6: Region = [NodeId(6)].into_iter().collect();
        assert_eq!(report.decisions[&NodeId(1)].0.region(), &r2);
        assert_eq!(report.decisions[&NodeId(3)].0.region(), &r2);
        assert_eq!(report.decisions[&NodeId(5)].0.region(), &r6);
        assert_eq!(report.decisions[&NodeId(7)].0.region(), &r6);
    }

    #[test]
    fn custom_policy_runs_through_factory() {
        use precipice_core::ConstPolicy;
        let mut cluster =
            ShardedCluster::start_with(Arc::new(path(3)), ProtocolConfig::default(), 2, |_me| {
                ConstPolicy(7u32)
            });
        cluster.kill(NodeId(1));
        assert!(cluster.await_quiescence(QUIET, TIMEOUT));
        let report = cluster.shutdown();
        assert_eq!(report.decisions.len(), 2);
        for (_, value) in report.decisions.values() {
            assert_eq!(*value, 7);
        }
    }

    #[test]
    fn kill_of_never_activated_node_still_notifies_border() {
        // Killing a node that never ran: its neighbours still learn of
        // it (graph-backed FD resolves observers from the topology, not
        // from subscriptions).
        let (report, _) = run_one(torus(GridDims::square(6)), 6, &[NodeId(14)]);
        assert_eq!(report.decisions.len(), 4);
    }

    #[test]
    fn shards_clamped_to_at_least_one() {
        let (report, _) = run_one(path(3), 0, &[NodeId(1)]);
        assert_eq!(report.decisions.len(), 2);
    }
}
