use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;

use precipice_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::explore::{EventKey, Explorer, FrontierEntry, Schedule, SchedulePolicy};
use crate::process::{Command, Context, MessageSize, Process};
use crate::trace::{Trace, TraceEntry};
use crate::{FailureDetector, LatencyModel, Metrics, SimTime};

/// Configuration of a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Seed for all randomness (latency sampling). Two runs with the same
    /// processes, config and crash schedule are bit-identical.
    pub seed: u64,
    /// Message latency distribution.
    pub latency: LatencyModel,
    /// Failure-detector detection latency distribution.
    pub fd_latency: LatencyModel,
    /// Store full [`Trace`] entries (the running hash is kept either way).
    pub record_trace: bool,
    /// Hard cap on processed events; `None` runs to quiescence.
    pub max_events: Option<u64>,
}

impl Default for SimConfig {
    /// 1ms constant message latency, 5ms constant detection latency,
    /// no stored trace, no event cap, seed 0.
    fn default() -> Self {
        SimConfig {
            seed: 0,
            latency: LatencyModel::default(),
            fd_latency: LatencyModel::Constant(SimTime::from_millis(5)),
            record_trace: false,
            max_events: None,
        }
    }
}

impl SimConfig {
    /// Returns this config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns this config with trace storage enabled.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }
}

/// How a [`Simulation::run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained: nothing can ever happen again.
    Quiescent {
        /// Events processed in total.
        events: u64,
        /// Virtual time of the last event.
        at: SimTime,
    },
    /// The configured `max_events` cap was hit (likely a livelock bug).
    LimitReached {
        /// Events processed in total.
        events: u64,
        /// Virtual time when the cap was hit.
        at: SimTime,
    },
}

impl RunOutcome {
    /// `true` if the run drained to quiescence.
    pub fn is_quiescent(&self) -> bool {
        matches!(self, RunOutcome::Quiescent { .. })
    }

    /// Events processed.
    pub fn events(&self) -> u64 {
        match *self {
            RunOutcome::Quiescent { events, .. } | RunOutcome::LimitReached { events, .. } => {
                events
            }
        }
    }
}

enum EventKind<M> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    Notify { to: NodeId, crashed: NodeId },
    Crash { node: NodeId },
}

struct Entry<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    // Reversed: BinaryHeap is a max-heap, we need the *earliest* event.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Storage of the node programs: a pre-built dense vector (eager), or a
/// factory plus the map of nodes activated so far (lazy).
enum ProcessTable<P> {
    /// Every process exists up front; `on_start` runs for all of them at
    /// time zero (the classic mode).
    Eager(Vec<P>),
    /// Processes are spawned on demand: a node's process is constructed —
    /// and its `on_start` run — immediately before its first event
    /// (delivery or crash notification) is dispatched. Nodes that never
    /// receive an event are never materialized, so per-run memory and
    /// setup cost are proportional to the *active footprint*, not to `n`.
    Lazy {
        /// Total node count (ids `0..n`).
        n: usize,
        /// Spawns the process for a node, called at most once per node.
        factory: Box<dyn FnMut(NodeId) -> P>,
        /// Activated processes, keyed by id (ascending iteration).
        active: BTreeMap<NodeId, P>,
    },
}

impl<P> ProcessTable<P> {
    fn len(&self) -> usize {
        match self {
            ProcessTable::Eager(v) => v.len(),
            ProcessTable::Lazy { n, .. } => *n,
        }
    }
}

/// Sentinel for "no event" in the per-channel pending lists.
const NONE: u32 = u32::MAX;

/// One directed channel: the FIFO clamp, and under an exploring policy
/// the executed-delivery count (the `nth` of the next delivery's
/// [`EventKey`]) plus the channel's pending deliveries as a list
/// through the event slab, oldest first.
struct Channel {
    /// Latest scheduled delivery time; clamping new deliveries to it
    /// keeps the channel FIFO under jittery latency.
    last_at: SimTime,
    delivered: u32,
    head: u32,
    tail: u32,
}

/// A pending event in the exploring store, with its channel (`NONE`
/// for crashes and notifications) and its successor on that channel.
struct Slot<M> {
    entry: Option<Entry<M>>,
    chan: u32,
    next: u32,
}

/// The per-run mutable state of a simulation, split from the run's
/// immutable inputs (configuration, process table, scheduling policy).
struct RunState<M> {
    /// Crash flags, indexed by node.
    crashed: Vec<bool>,
    /// Latency-ordered event queue (FIFO policy hot path).
    queue: BinaryHeap<Entry<M>>,
    /// Pending events under an exploring [`SchedulePolicy`] (used
    /// instead of `queue`), in slots that are reused once executed.
    slab: Vec<Slot<M>>,
    free: Vec<u32>,
    /// The enabled events, in seq order: every pending crash and
    /// notification, plus the head of every channel with pending
    /// deliveries. Crashes and notifications join when pushed; a
    /// delivery joins when it becomes its channel's head, which is at
    /// its push or when its predecessor is popped. The policy picks
    /// over this slice directly, so a step never rescans the pending
    /// events.
    frontier: Vec<FrontierEntry>,
    channels: Vec<Channel>,
    /// Channel index per directed channel, stored as a per-sender
    /// sorted row keyed on the receiver, so the table costs O(channels
    /// actually used) — in localized workloads a sender only ever talks
    /// to its border, and a run on a million-node graph keeps rows for
    /// the handful of active senders only (a dense n-slot row per
    /// sender would be 8 MB each at n = 10⁶). Lookups are a hash on the
    /// sender plus a binary search on the receiver.
    channel_of: HashMap<NodeId, Vec<(NodeId, u32)>>,
    metrics: Metrics,
    trace: Trace,
    rng: StdRng,
    time: SimTime,
    seq: u64,
    started: bool,
    events_processed: u64,
    command_buf: Vec<Command<M>>,
}

impl<M> RunState<M> {
    fn new(config: &SimConfig, n: usize) -> Self {
        RunState {
            crashed: vec![false; n],
            queue: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            frontier: Vec::new(),
            channels: Vec::new(),
            channel_of: HashMap::new(),
            metrics: Metrics::default(),
            trace: Trace::new(config.record_trace),
            rng: StdRng::seed_from_u64(config.seed),
            time: SimTime::ZERO,
            seq: 0,
            started: false,
            events_processed: 0,
            command_buf: Vec::new(),
        }
    }

    /// The index of channel `from -> to`, created on first use.
    fn channel(&mut self, from: NodeId, to: NodeId) -> u32 {
        let row = self.channel_of.entry(from).or_default();
        match row.binary_search_by_key(&to, |&(t, _)| t) {
            Ok(i) => row[i].1,
            Err(i) => {
                let chan = self.channels.len() as u32;
                row.insert(i, (to, chan));
                self.channels.push(Channel {
                    // ZERO: the clamp is the identity on the first send.
                    last_at: SimTime::ZERO,
                    delivered: 0,
                    head: NONE,
                    tail: NONE,
                });
                chan
            }
        }
    }

    /// Stores a pending event under an exploring policy; `chan` is the
    /// delivery's channel, or `NONE` for a crash or notification.
    fn enqueue(&mut self, entry: Entry<M>, chan: u32) {
        let slot = Slot {
            entry: Some(entry),
            chan,
            next: NONE,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = slot;
                i
            }
            None => {
                self.slab.push(slot);
                (self.slab.len() - 1) as u32
            }
        };
        if chan == NONE {
            return self.enable(idx);
        }
        let ch = &mut self.channels[chan as usize];
        if ch.head == NONE {
            ch.head = idx;
            ch.tail = idx;
            self.enable(idx);
        } else {
            let tail = std::mem::replace(&mut ch.tail, idx);
            self.slab[tail as usize].next = idx;
        }
    }

    /// Inserts slab event `idx` into the seq-ordered frontier. A new
    /// event carries the highest seq so far, so this is usually an
    /// append; an unlocked channel successor pays one small memmove.
    fn enable(&mut self, idx: u32) {
        let e = self.slab[idx as usize]
            .entry
            .as_ref()
            .expect("enabled event is live");
        let target = match e.kind {
            EventKind::Deliver { to, .. } | EventKind::Notify { to, .. } => to,
            EventKind::Crash { node } => node,
        };
        let f = FrontierEntry {
            idx,
            seq: e.seq,
            at: e.at,
            target,
        };
        let pos = self.frontier.partition_point(|g| g.seq < f.seq);
        self.frontier.insert(pos, f);
    }

    /// The stable identity of pending slab event `idx`, built only when
    /// the policy asks for it (replay matching, deviation records).
    fn key_of(&self, idx: u32) -> EventKey {
        let slot = &self.slab[idx as usize];
        match slot.entry.as_ref().expect("frontier event is live").kind {
            EventKind::Deliver { to, from, .. } => EventKey::Deliver {
                from,
                to,
                nth: self.channels[slot.chan as usize].delivered,
            },
            EventKind::Notify { to, crashed } => EventKey::Notify {
                observer: to,
                crashed,
            },
            EventKind::Crash { node } => EventKey::Crash { node },
        }
    }

    /// Removes slab event `idx` (already taken off the frontier); a
    /// delivery advances its channel and enables its successor.
    fn take(&mut self, idx: u32) -> Entry<M> {
        let slot = &mut self.slab[idx as usize];
        let entry = slot.entry.take().expect("picked event is live");
        let (chan, next) = (slot.chan, slot.next);
        self.free.push(idx);
        if chan != NONE {
            let ch = &mut self.channels[chan as usize];
            debug_assert_eq!(ch.head, idx);
            ch.delivered += 1;
            ch.head = next;
            if next == NONE {
                ch.tail = NONE;
            } else {
                self.enable(next);
            }
        }
        entry
    }
}

/// Deterministic discrete-event simulator over a set of [`Process`]es.
///
/// Nodes are identified by their index in the process vector (or by
/// `NodeId(0)..NodeId(n)` in [lazy mode](Simulation::lazy_with_policy)).
/// See the [crate docs](crate) for an end-to-end example.
pub struct Simulation<P: Process> {
    config: SimConfig,
    procs: ProcessTable<P>,
    explorer: Option<Explorer>,
    fd: FailureDetector,
    st: RunState<P::Msg>,
}

impl<P: Process> std::fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.procs.len())
            .field("time", &self.st.time)
            .field(
                "queued",
                &(self.st.queue.len() + self.st.slab.len() - self.st.free.len()),
            )
            .field("events_processed", &self.st.events_processed)
            .finish()
    }
}

impl<P: Process> Simulation<P> {
    /// Creates a simulation over `processes`; the process at index `i`
    /// is node `NodeId(i)`. Events execute in latency order
    /// ([`SchedulePolicy::Fifo`]).
    pub fn new(config: SimConfig, processes: Vec<P>) -> Self {
        Simulation::with_policy(config, processes, SchedulePolicy::Fifo)
    }

    /// Creates a simulation whose event order is chosen by `policy` (see
    /// [`explore`](crate::explore)). With [`SchedulePolicy::Fifo`] this
    /// is exactly [`Simulation::new`]; the other policies trade the
    /// binary-heap hot path for a policy pick over the enabled frontier
    /// (linear in the number of enabled events per step).
    pub fn with_policy(config: SimConfig, processes: Vec<P>, policy: SchedulePolicy) -> Self {
        let n = processes.len();
        Simulation::build(config, ProcessTable::Eager(processes), n, policy, None)
    }

    /// Creates a **lazy** simulation over the `graph.len()` nodes of
    /// `graph`: processes are spawned by `factory` on demand, immediately
    /// before their first event, and the failure detector resolves a
    /// crashed node's observers from the graph
    /// ([`FailureDetector::with_static_graph`]). Per-run setup cost and
    /// memory are proportional to the *activated footprint*, not to `n`.
    ///
    /// # Equivalence contract
    ///
    /// A lazy run is bit-identical (trace hash, metrics, recorded
    /// schedules) to an eager run of the same processes **provided**
    /// every process's `on_start` does nothing but `monitor` nodes
    /// covered by the static rule (its graph neighbours) — the cliff-edge
    /// protocol's line 4. An `on_start` that sends messages or monitors
    /// strangers still executes faithfully, but at first-event time
    /// rather than time zero, which is a different (still legal) async
    /// execution.
    pub fn lazy(
        config: SimConfig,
        graph: &Arc<Graph>,
        factory: impl FnMut(NodeId) -> P + 'static,
    ) -> Self {
        Simulation::lazy_with_policy(config, graph, factory, SchedulePolicy::Fifo)
    }

    /// [`lazy`](Simulation::lazy) with an exploring [`SchedulePolicy`].
    pub fn lazy_with_policy(
        config: SimConfig,
        graph: &Arc<Graph>,
        factory: impl FnMut(NodeId) -> P + 'static,
        policy: SchedulePolicy,
    ) -> Self {
        let n = graph.len();
        let table = ProcessTable::Lazy {
            n,
            factory: Box::new(factory),
            active: BTreeMap::new(),
        };
        Simulation::build(config, table, n, policy, Some(Arc::clone(graph)))
    }

    fn build(
        config: SimConfig,
        procs: ProcessTable<P>,
        n: usize,
        policy: SchedulePolicy,
        fd_graph: Option<Arc<Graph>>,
    ) -> Self {
        Simulation {
            st: RunState::new(&config, n),
            config,
            procs,
            explorer: Explorer::new(policy),
            fd: match fd_graph {
                Some(g) => FailureDetector::with_static_graph(g),
                None => FailureDetector::new(),
            },
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// `true` if the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.procs.len() == 0
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.st.time
    }

    /// Schedules `node` to crash at time `at`.
    ///
    /// Crashing an already-crashed node is a no-op at processing time.
    /// Must be called before the crash time is reached; scheduling in the
    /// past (relative to [`now`](Self::now)) panics.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `at` is in the past.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        assert!(node.index() < self.procs.len(), "no such node {node}");
        assert!(at >= self.st.time, "cannot schedule a crash in the past");
        self.push(at, EventKind::Crash { node }, NONE);
    }

    /// Runs until quiescence or until the configured event cap.
    ///
    /// # Event ordering
    ///
    /// Under the default [`SchedulePolicy::Fifo`], events pop in strict
    /// `(time, seq)` order, where `seq` is the monotone sequence number
    /// assigned at scheduling time — events carrying **equal
    /// timestamps** therefore execute in the order they were scheduled,
    /// independent of binary-heap internals (the heap's comparator is
    /// total over `(time, seq)`, so there are no ties for it to break
    /// arbitrarily). Under an exploring policy the scheduler picks among
    /// all enabled events; virtual time is then the running maximum of
    /// the executed events' scheduled times (it never runs backwards).
    pub fn run(&mut self) -> RunOutcome {
        self.start_if_needed();
        while self.has_pending() {
            if let Some(cap) = self.config.max_events {
                if self.st.events_processed >= cap {
                    // Events stay queued so a later `run` could resume.
                    self.st.metrics.set_finished_at(self.st.time);
                    return RunOutcome::LimitReached {
                        events: self.st.events_processed,
                        at: self.st.time,
                    };
                }
            }
            self.step();
        }
        self.st.metrics.set_finished_at(self.st.time);
        RunOutcome::Quiescent {
            events: self.st.events_processed,
            at: self.st.time,
        }
    }

    fn has_pending(&self) -> bool {
        !self.st.queue.is_empty() || !self.st.frontier.is_empty()
    }

    /// Executes the next event; the caller checked [`has_pending`].
    ///
    /// [`has_pending`]: Self::has_pending
    fn step(&mut self) {
        let entry = self.pop_next().expect("has_pending checked");
        self.st.events_processed += 1;
        debug_assert!(
            self.explorer.is_some() || entry.at >= self.st.time,
            "time went backwards"
        );
        self.st.time = self.st.time.max(entry.at);
        self.dispatch(entry.kind);
    }

    /// Pops the next event: the latency-ordered head under FIFO, or the
    /// installed policy's pick over the *enabled* events otherwise. An
    /// event is enabled unless an earlier message on the same FIFO
    /// channel is still pending (delivering it first would violate the
    /// channel contract); crashes and failure-detector notifications
    /// are always enabled. Per-channel FIFO clamping makes a channel's
    /// head its earliest-timed delivery, so the global `(time, seq)`
    /// minimum is always enabled and FIFO replay is exact.
    fn pop_next(&mut self) -> Option<Entry<P::Msg>> {
        let Some(explorer) = self.explorer.as_mut() else {
            return self.st.queue.pop();
        };
        let st = &mut self.st;
        let (fifo, _) = st
            .frontier
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| (f.at, f.seq))?;
        let choice = explorer.choose(&st.frontier, fifo, |i| st.key_of(st.frontier[i].idx));
        let picked = st.frontier.remove(choice);
        Some(st.take(picked.idx))
    }

    /// The scheduling deviations the installed exploring policy actually
    /// took so far, as a replayable [`Schedule`]; `None` under the
    /// default FIFO policy. After a [`SchedulePolicy::Replay`] run this
    /// returns the deviations that were *honored* (stale ones dropped),
    /// which is what the shrinker starts from.
    pub fn recorded_schedule(&self) -> Option<Schedule> {
        self.explorer.as_ref().map(Explorer::recorded)
    }

    /// Scheduling decisions taken so far under an exploring policy.
    pub fn scheduling_steps(&self) -> Option<u64> {
        self.explorer.as_ref().map(Explorer::steps)
    }

    fn start_if_needed(&mut self) {
        if self.st.started {
            return;
        }
        self.st.started = true;
        if matches!(self.procs, ProcessTable::Lazy { .. }) {
            // Lazy mode: each node's `on_start` runs at activation time
            // (immediately before its first event) instead.
            return;
        }
        for i in 0..self.procs.len() {
            let me = NodeId::from_index(i);
            let mut cmds = std::mem::take(&mut self.st.command_buf);
            {
                let mut ctx = Context::new(me, self.st.time, &mut cmds);
                let ProcessTable::Eager(procs) = &mut self.procs else {
                    unreachable!("table mode never changes");
                };
                procs[i].on_start(&mut ctx);
            }
            self.execute_commands(me, &mut cmds);
            self.st.command_buf = cmds;
        }
    }

    /// Lazy mode: ensures `node`'s process exists, running its `on_start`
    /// (and executing the resulting commands) if this is the activation.
    fn activate_if_needed(&mut self, node: NodeId) {
        let ProcessTable::Lazy {
            factory, active, ..
        } = &mut self.procs
        else {
            return;
        };
        if active.contains_key(&node) {
            return;
        }
        let mut proc = factory(node);
        let mut cmds = std::mem::take(&mut self.st.command_buf);
        {
            let mut ctx = Context::new(node, self.st.time, &mut cmds);
            proc.on_start(&mut ctx);
        }
        active.insert(node, proc);
        self.execute_commands(node, &mut cmds);
        self.st.command_buf = cmds;
    }

    /// The process of `node`, which must already exist (always true in
    /// eager mode; activation-dependent in lazy mode).
    fn proc_mut(&mut self, node: NodeId) -> &mut P {
        match &mut self.procs {
            ProcessTable::Eager(v) => &mut v[node.index()],
            ProcessTable::Lazy { active, .. } => active
                .get_mut(&node)
                .unwrap_or_else(|| panic!("node {node} not activated")),
        }
    }

    fn dispatch(&mut self, kind: EventKind<P::Msg>) {
        match kind {
            EventKind::Crash { node } => {
                if self.st.crashed[node.index()] {
                    return;
                }
                self.st.crashed[node.index()] = true;
                self.st.trace.record(TraceEntry::Crash {
                    at: self.st.time,
                    node,
                });
                for observer in self.fd.record_crash(node) {
                    self.schedule_notify(observer, node);
                }
            }
            EventKind::Deliver { to, from, msg } => {
                if self.st.crashed[to.index()] {
                    self.st.metrics.record_drop();
                    return;
                }
                self.activate_if_needed(to);
                self.st.metrics.record_delivery(to);
                self.st.metrics.record_activation(to);
                self.st.trace.record(TraceEntry::Deliver {
                    at: self.st.time,
                    from,
                    to,
                });
                let mut cmds = std::mem::take(&mut self.st.command_buf);
                {
                    let mut ctx = Context::new(to, self.st.time, &mut cmds);
                    self.proc_mut(to).on_message(from, msg, &mut ctx);
                }
                self.execute_commands(to, &mut cmds);
                self.st.command_buf = cmds;
            }
            EventKind::Notify { to, crashed } => {
                if self.st.crashed[to.index()] {
                    return;
                }
                self.activate_if_needed(to);
                self.st.metrics.record_crash_notification();
                self.st.metrics.record_activation(to);
                self.st.trace.record(TraceEntry::Notify {
                    at: self.st.time,
                    observer: to,
                    crashed,
                });
                let mut cmds = std::mem::take(&mut self.st.command_buf);
                {
                    let mut ctx = Context::new(to, self.st.time, &mut cmds);
                    self.proc_mut(to).on_crash_notification(crashed, &mut ctx);
                }
                self.execute_commands(to, &mut cmds);
                self.st.command_buf = cmds;
            }
        }
    }

    fn execute_commands(&mut self, me: NodeId, cmds: &mut Vec<Command<P::Msg>>) {
        for cmd in cmds.drain(..) {
            match cmd {
                Command::Send { to, msg } => {
                    assert!(to.index() < self.procs.len(), "send to unknown node {to}");
                    self.st.metrics.record_send(me, msg.size_bytes());
                    self.st.trace.record(TraceEntry::Send {
                        at: self.st.time,
                        from: me,
                        to,
                    });
                    let latency = self.config.latency.sample(&mut self.st.rng);
                    let chan = self.st.channel(me, to);
                    let ch = &mut self.st.channels[chan as usize];
                    let at = (self.st.time + latency).max(ch.last_at);
                    ch.last_at = at;
                    self.push(at, EventKind::Deliver { to, from: me, msg }, chan);
                }
                Command::Monitor { target } => {
                    if self.fd.subscribe(me, target) {
                        self.schedule_notify(me, target);
                    }
                }
            }
        }
    }

    fn schedule_notify(&mut self, observer: NodeId, crashed: NodeId) {
        let latency = self.config.fd_latency.sample(&mut self.st.rng);
        let at = self.st.time + latency;
        self.push(
            at,
            EventKind::Notify {
                to: observer,
                crashed,
            },
            NONE,
        );
    }

    /// Schedules an event; `chan` is a delivery's channel, `NONE` for
    /// crashes and notifications.
    fn push(&mut self, at: SimTime, kind: EventKind<P::Msg>, chan: u32) {
        let seq = self.st.seq;
        self.st.seq += 1;
        let entry = Entry { at, seq, kind };
        if self.explorer.is_some() {
            self.st.enqueue(entry, chan);
        } else {
            self.st.queue.push(entry);
        }
    }

    /// `true` if `node` has crashed (per the authoritative schedule, as of
    /// virtual now).
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.st.crashed[node.index()]
    }

    /// Node ids that never crashed.
    pub fn correct_nodes(&self) -> Vec<NodeId> {
        (0..self.procs.len())
            .filter(|&i| !self.st.crashed[i])
            .map(NodeId::from_index)
            .collect()
    }

    /// Immutable access to a node's process (e.g. to read decisions after
    /// the run).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range, or (in lazy mode) was never
    /// activated — see [`try_process`](Simulation::try_process).
    pub fn process(&self, node: NodeId) -> &P {
        self.try_process(node)
            .unwrap_or_else(|| panic!("node {node} not activated"))
    }

    /// Immutable access to a node's process, `None` if the node was never
    /// activated (lazy mode) or is out of range.
    pub fn try_process(&self, node: NodeId) -> Option<&P> {
        match &self.procs {
            ProcessTable::Eager(v) => v.get(node.index()),
            ProcessTable::Lazy { active, .. } => active.get(&node),
        }
    }

    /// Iterates `(id, process)` pairs in ascending id order. In lazy mode
    /// only *activated* nodes appear (everything observable — stats,
    /// decisions — lives on activated nodes).
    pub fn processes(&self) -> Box<dyn Iterator<Item = (NodeId, &P)> + '_> {
        match &self.procs {
            ProcessTable::Eager(v) => Box::new(
                v.iter()
                    .enumerate()
                    .map(|(i, p)| (NodeId::from_index(i), p)),
            ),
            ProcessTable::Lazy { active, .. } => Box::new(active.iter().map(|(&id, p)| (id, p))),
        }
    }

    /// Consumes the simulation, returning the processes (in lazy mode,
    /// the activated ones, in ascending id order).
    pub fn into_processes(self) -> Vec<P> {
        match self.procs {
            ProcessTable::Eager(v) => v,
            ProcessTable::Lazy { active, .. } => active.into_values().collect(),
        }
    }

    /// Accounting for the run so far.
    pub fn metrics(&self) -> &Metrics {
        &self.st.metrics
    }

    /// Trace of the run so far.
    pub fn trace(&self) -> &Trace {
        &self.st.trace
    }

    /// Moves the trace out of a finished run (the simulation is left
    /// with an empty, non-recording trace) — lets result assembly hand
    /// the recorded entries to callers without cloning the entry
    /// buffer.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::replace(&mut self.st.trace, Trace::new(false))
    }

    /// The failure detector's authoritative state.
    pub fn failure_detector(&self) -> &FailureDetector {
        &self.fd
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[derive(Clone, Debug)]
    struct Blob(Vec<u8>);
    impl MessageSize for Blob {
        fn size_bytes(&self) -> usize {
            self.0.len()
        }
    }

    /// Test process: records every delivery and notification with its
    /// virtual timestamp; can be told to echo or to flood on start.
    struct Recorder {
        sends_on_start: Vec<(NodeId, Blob)>,
        monitors_on_start: Vec<NodeId>,
        received: Vec<(SimTime, NodeId, Vec<u8>)>,
        notified: Vec<(SimTime, NodeId)>,
    }

    impl Recorder {
        fn quiet() -> Self {
            Recorder {
                sends_on_start: vec![],
                monitors_on_start: vec![],
                received: vec![],
                notified: vec![],
            }
        }
    }

    impl Process for Recorder {
        type Msg = Blob;
        fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
            for (to, msg) in self.sends_on_start.clone() {
                ctx.send(to, msg);
            }
            for t in self.monitors_on_start.clone() {
                ctx.monitor(t);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Blob, ctx: &mut Context<'_, Blob>) {
            self.received.push((ctx.now(), from, msg.0));
        }
        fn on_crash_notification(&mut self, crashed: NodeId, ctx: &mut Context<'_, Blob>) {
            self.notified.push((ctx.now(), crashed));
        }
    }

    fn jittery_config(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            latency: LatencyModel::Uniform {
                min: SimTime::from_micros(100),
                max: SimTime::from_millis(20),
            },
            fd_latency: LatencyModel::Uniform {
                min: SimTime::from_millis(1),
                max: SimTime::from_millis(8),
            },
            record_trace: true,
            max_events: None,
        }
    }

    #[test]
    fn fifo_order_is_preserved_under_jitter() {
        let mut sender = Recorder::quiet();
        sender.sends_on_start = (0..50u8).map(|i| (NodeId(1), Blob(vec![i]))).collect();
        let mut sim = Simulation::new(jittery_config(99), vec![sender, Recorder::quiet()]);
        assert!(sim.run().is_quiescent());
        let received: Vec<u8> = sim
            .process(NodeId(1))
            .received
            .iter()
            .map(|(_, _, m)| m[0])
            .collect();
        assert_eq!(received, (0..50u8).collect::<Vec<_>>(), "FIFO violated");
        // Delivery timestamps must be non-decreasing.
        let times: Vec<SimTime> = sim
            .process(NodeId(1))
            .received
            .iter()
            .map(|(t, _, _)| *t)
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The FIFO-clamp table is a compact per-sender map now; the clamp
    /// semantics must survive many sparse high-id senders interleaving
    /// traffic to shared receivers under heavy jitter (the access pattern
    /// a dense per-sender row used to make trivially correct).
    #[test]
    fn fifo_clamp_holds_across_many_sparse_senders() {
        let n = 512usize;
        let senders = [490u32, 501, 510, 3];
        let receivers = [NodeId(0), NodeId(511)];
        let mut procs: Vec<Recorder> = (0..n).map(|_| Recorder::quiet()).collect();
        for (k, &s) in senders.iter().enumerate() {
            // Interleave the two receivers so each channel's sends are
            // non-contiguous, forcing repeated clamp lookups per row.
            procs[s as usize].sends_on_start = (0..20u8)
                .map(|i| (receivers[(i as usize + k) % 2], Blob(vec![i])))
                .collect();
        }
        let mut sim = Simulation::new(jittery_config(1234), procs);
        assert!(sim.run().is_quiescent());
        for &r in &receivers {
            for &s in &senders {
                let per_channel: Vec<(SimTime, u8)> = sim
                    .process(r)
                    .received
                    .iter()
                    .filter(|(_, from, _)| *from == NodeId(s))
                    .map(|(t, _, m)| (*t, m[0]))
                    .collect();
                // Payloads in send order, timestamps non-decreasing.
                assert!(
                    per_channel.windows(2).all(|w| w[0].1 < w[1].1),
                    "channel {s}->{r} out of order: {per_channel:?}"
                );
                assert!(
                    per_channel.windows(2).all(|w| w[0].0 <= w[1].0),
                    "channel {s}->{r} time ran backwards: {per_channel:?}"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_trace_hash() {
        let build = || {
            let mut a = Recorder::quiet();
            a.sends_on_start = (0..20u8).map(|i| (NodeId(1), Blob(vec![i]))).collect();
            let mut b = Recorder::quiet();
            b.sends_on_start = (0..20u8).map(|i| (NodeId(0), Blob(vec![i]))).collect();
            vec![a, b]
        };
        let mut s1 = Simulation::new(jittery_config(7), build());
        let mut s2 = Simulation::new(jittery_config(7), build());
        s1.run();
        s2.run();
        assert_eq!(s1.trace().hash(), s2.trace().hash());
        assert_eq!(s1.metrics().messages_sent(), s2.metrics().messages_sent());

        let mut s3 = Simulation::new(jittery_config(8), build());
        s3.run();
        assert_ne!(
            s1.trace().hash(),
            s3.trace().hash(),
            "different seed, different schedule"
        );
    }

    #[test]
    fn crash_notification_reaches_subscribers() {
        let mut obs = Recorder::quiet();
        obs.monitors_on_start = vec![NodeId(1)];
        let mut sim = Simulation::new(SimConfig::default(), vec![obs, Recorder::quiet()]);
        sim.schedule_crash(NodeId(1), SimTime::from_millis(3));
        assert!(sim.run().is_quiescent());
        let notified = &sim.process(NodeId(0)).notified;
        assert_eq!(notified.len(), 1);
        assert_eq!(notified[0].1, NodeId(1));
        // Detection latency (5ms default) after the crash instant.
        assert_eq!(notified[0].0, SimTime::from_millis(8));
        assert!(sim.is_crashed(NodeId(1)));
        assert_eq!(sim.correct_nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn subscribing_to_already_crashed_node_notifies() {
        // Node 0 sends to itself; upon that message it monitors node 1,
        // which crashed long before.
        struct LateMonitor {
            notified: Vec<NodeId>,
        }
        impl Process for LateMonitor {
            type Msg = Blob;
            fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(0), Blob(vec![]));
                }
            }
            fn on_message(&mut self, _: NodeId, _: Blob, ctx: &mut Context<'_, Blob>) {
                ctx.monitor(NodeId(1));
            }
            fn on_crash_notification(&mut self, crashed: NodeId, _: &mut Context<'_, Blob>) {
                self.notified.push(crashed);
            }
        }
        let mut sim = Simulation::new(
            SimConfig::default(),
            vec![
                LateMonitor { notified: vec![] },
                LateMonitor { notified: vec![] },
            ],
        );
        sim.schedule_crash(NodeId(1), SimTime::ZERO);
        assert!(sim.run().is_quiescent());
        assert_eq!(sim.process(NodeId(0)).notified, vec![NodeId(1)]);
    }

    #[test]
    fn messages_to_crashed_nodes_are_dropped() {
        let mut sender = Recorder::quiet();
        sender.sends_on_start = vec![(NodeId(1), Blob(vec![1, 2, 3]))];
        let mut sim = Simulation::new(SimConfig::default(), vec![sender, Recorder::quiet()]);
        sim.schedule_crash(NodeId(1), SimTime::ZERO);
        assert!(sim.run().is_quiescent());
        assert_eq!(sim.metrics().messages_dropped(), 1);
        assert_eq!(sim.metrics().messages_delivered(), 0);
        assert!(sim.process(NodeId(1)).received.is_empty());
    }

    #[test]
    fn byte_accounting_uses_message_size() {
        let mut sender = Recorder::quiet();
        sender.sends_on_start = vec![
            (NodeId(1), Blob(vec![0; 10])),
            (NodeId(1), Blob(vec![0; 32])),
        ];
        let mut sim = Simulation::new(SimConfig::default(), vec![sender, Recorder::quiet()]);
        sim.run();
        assert_eq!(sim.metrics().bytes_sent(), 42);
        assert_eq!(sim.metrics().node(NodeId(0)).sent_bytes, 42);
    }

    #[test]
    fn event_cap_stops_infinite_pingpong() {
        struct PingPong;
        impl Process for PingPong {
            type Msg = Blob;
            fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
                if ctx.me() == NodeId(0) {
                    ctx.send(NodeId(1), Blob(vec![]));
                }
            }
            fn on_message(&mut self, from: NodeId, _: Blob, ctx: &mut Context<'_, Blob>) {
                ctx.send(from, Blob(vec![]));
            }
            fn on_crash_notification(&mut self, _: NodeId, _: &mut Context<'_, Blob>) {}
        }
        let config = SimConfig {
            max_events: Some(100),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config, vec![PingPong, PingPong]);
        let outcome = sim.run();
        assert!(!outcome.is_quiescent());
        assert_eq!(outcome.events(), 100);
    }

    #[test]
    fn self_sends_are_delivered() {
        let mut solo = Recorder::quiet();
        solo.sends_on_start = vec![(NodeId(0), Blob(vec![9]))];
        let mut sim = Simulation::new(SimConfig::default(), vec![solo]);
        assert!(sim.run().is_quiescent());
        assert_eq!(sim.process(NodeId(0)).received.len(), 1);
        assert_eq!(sim.process(NodeId(0)).received[0].1, NodeId(0));
    }

    #[test]
    fn double_crash_is_a_noop() {
        let mut obs = Recorder::quiet();
        obs.monitors_on_start = vec![NodeId(1)];
        let mut sim = Simulation::new(SimConfig::default(), vec![obs, Recorder::quiet()]);
        sim.schedule_crash(NodeId(1), SimTime::from_millis(1));
        sim.schedule_crash(NodeId(1), SimTime::from_millis(2));
        assert!(sim.run().is_quiescent());
        assert_eq!(
            sim.process(NodeId(0)).notified.len(),
            1,
            "exactly one notification"
        );
    }

    /// Satellite audit: events carrying the *same* timestamp must pop in
    /// a documented, heap-independent order — `(time, seq)`, i.e. the
    /// order they were scheduled. Three senders fire at start with a
    /// constant latency, so all deliveries land at exactly t=1ms; the
    /// receiver must observe them in send order.
    #[test]
    fn equal_timestamp_events_pop_in_schedule_order() {
        let mut a = Recorder::quiet();
        a.sends_on_start = vec![(NodeId(3), Blob(vec![0])), (NodeId(3), Blob(vec![1]))];
        let mut b = Recorder::quiet();
        b.sends_on_start = vec![(NodeId(3), Blob(vec![2]))];
        let mut c = Recorder::quiet();
        c.sends_on_start = vec![(NodeId(3), Blob(vec![3])), (NodeId(3), Blob(vec![4]))];
        let mut sim = Simulation::new(
            SimConfig::default(), // constant 1ms latency: all ties
            vec![a, b, c, Recorder::quiet()],
        );
        assert!(sim.run().is_quiescent());
        let got: Vec<(SimTime, u8)> = sim
            .process(NodeId(3))
            .received
            .iter()
            .map(|(t, _, m)| (*t, m[0]))
            .collect();
        // Every delivery at the same instant...
        assert!(got.iter().all(|(t, _)| *t == SimTime::from_millis(1)));
        // ...in exactly the order `on_start` scheduled the sends (node 0
        // starts before node 1 before node 2; per-node sends in order).
        assert_eq!(
            got.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4],
            "same-timestamp pops must follow the (time, seq) contract"
        );
    }

    #[test]
    fn explored_random_schedule_is_deterministic_and_replayable() {
        use crate::explore::SchedulePolicy;
        let build = || {
            let mut a = Recorder::quiet();
            a.sends_on_start = (0..12u8).map(|i| (NodeId(1), Blob(vec![i]))).collect();
            let mut b = Recorder::quiet();
            b.sends_on_start = (0..12u8).map(|i| (NodeId(0), Blob(vec![i]))).collect();
            let mut c = Recorder::quiet();
            c.sends_on_start = vec![(NodeId(0), Blob(vec![99])), (NodeId(1), Blob(vec![98]))];
            vec![a, b, c]
        };
        let run = |policy: SchedulePolicy| {
            let mut sim = Simulation::with_policy(jittery_config(5), build(), policy);
            assert!(sim.run().is_quiescent());
            let sched = sim.recorded_schedule().expect("exploring policy");
            (sim.trace().hash(), sched)
        };
        // Same seed, same schedule; different seed, (almost surely)
        // different order.
        let (h1, s1) = run(SchedulePolicy::Random(7));
        let (h2, s2) = run(SchedulePolicy::Random(7));
        assert_eq!(h1, h2);
        assert_eq!(s1, s2);
        let (h3, _) = run(SchedulePolicy::Random(8));
        assert_ne!(h1, h3, "different schedule seed, different order");
        assert!(!s1.is_empty(), "a random schedule deviates somewhere");

        // Replaying the recorded deviations reproduces the run exactly.
        let (hr, sr) = run(SchedulePolicy::Replay(s1.clone()));
        assert_eq!(hr, h1, "replay must be bit-identical");
        assert_eq!(sr, s1, "all honored deviations are re-recorded");
    }

    #[test]
    fn empty_replay_matches_fifo_exactly() {
        use crate::explore::{Schedule, SchedulePolicy};
        let build = || {
            let mut a = Recorder::quiet();
            a.sends_on_start = (0..10u8).map(|i| (NodeId(1), Blob(vec![i]))).collect();
            a.monitors_on_start = vec![NodeId(1)];
            vec![a, Recorder::quiet()]
        };
        let mut fifo = Simulation::new(jittery_config(3), build());
        fifo.schedule_crash(NodeId(1), SimTime::from_millis(9));
        fifo.run();
        let mut replay = Simulation::with_policy(
            jittery_config(3),
            build(),
            SchedulePolicy::Replay(Schedule::fifo()),
        );
        replay.schedule_crash(NodeId(1), SimTime::from_millis(9));
        replay.run();
        assert_eq!(fifo.trace().hash(), replay.trace().hash());
        assert!(replay.recorded_schedule().unwrap().is_empty());
        assert!(fifo.recorded_schedule().is_none(), "fifo records nothing");
    }

    #[test]
    fn explored_fifo_channels_stay_fifo() {
        use crate::explore::SchedulePolicy;
        // Even under aggressive random scheduling, per-channel order is
        // inviolable: the receiver sees each sender's bytes in order.
        let mut a = Recorder::quiet();
        a.sends_on_start = (0..30u8).map(|i| (NodeId(2), Blob(vec![i]))).collect();
        let mut b = Recorder::quiet();
        b.sends_on_start = (100..130u8).map(|i| (NodeId(2), Blob(vec![i]))).collect();
        let mut sim = Simulation::with_policy(
            jittery_config(11),
            vec![a, b, Recorder::quiet()],
            SchedulePolicy::Random(1234),
        );
        assert!(sim.run().is_quiescent());
        let per_sender = |who: NodeId| -> Vec<u8> {
            sim.process(NodeId(2))
                .received
                .iter()
                .filter(|(_, from, _)| *from == who)
                .map(|(_, _, m)| m[0])
                .collect()
        };
        assert_eq!(per_sender(NodeId(0)), (0..30u8).collect::<Vec<_>>());
        assert_eq!(per_sender(NodeId(1)), (100..130u8).collect::<Vec<_>>());
    }

    #[test]
    fn explored_crash_can_be_delayed_past_deliveries() {
        use crate::explore::{Deviation, EventKey, Schedule, SchedulePolicy};
        // Node 0 sends one message to node 1 at t=1ms; node 1 is
        // scheduled to crash at t=0. Under FIFO the crash lands first and
        // the message is dropped. A one-deviation schedule delivers the
        // message *before* the crash — the crash/delivery race the
        // explorer exists to exercise.
        let build = || {
            let mut a = Recorder::quiet();
            a.sends_on_start = vec![(NodeId(1), Blob(vec![7]))];
            vec![a, Recorder::quiet()]
        };
        let mut fifo = Simulation::new(SimConfig::default(), build());
        fifo.schedule_crash(NodeId(1), SimTime::ZERO);
        fifo.run();
        assert_eq!(fifo.metrics().messages_dropped(), 1);

        let flip = Schedule::new(vec![Deviation {
            step: 0,
            key: EventKey::Deliver {
                from: NodeId(0),
                to: NodeId(1),
                nth: 0,
            },
        }]);
        let mut sim =
            Simulation::with_policy(SimConfig::default(), build(), SchedulePolicy::Replay(flip));
        sim.schedule_crash(NodeId(1), SimTime::ZERO);
        assert!(sim.run().is_quiescent());
        assert_eq!(sim.metrics().messages_dropped(), 0);
        assert_eq!(sim.process(NodeId(1)).received.len(), 1);
        assert!(sim.is_crashed(NodeId(1)), "the crash still happens");
        assert_eq!(sim.recorded_schedule().unwrap().len(), 1);
    }

    #[test]
    fn pcr_only_permutes_same_target_races() {
        use crate::explore::SchedulePolicy;
        // Two disjoint sender->receiver pairs: every pending event
        // targets a different node than the FIFO head, so PCR never
        // deviates and the run equals FIFO bit-for-bit.
        let build = || {
            let mut a = Recorder::quiet();
            a.sends_on_start = (0..8u8).map(|i| (NodeId(1), Blob(vec![i]))).collect();
            let mut c = Recorder::quiet();
            c.sends_on_start = (0..8u8).map(|i| (NodeId(3), Blob(vec![i]))).collect();
            vec![a, Recorder::quiet(), c, Recorder::quiet()]
        };
        let mut fifo = Simulation::new(jittery_config(2), build());
        fifo.run();
        let mut pcr = Simulation::with_policy(jittery_config(2), build(), SchedulePolicy::Pcr(999));
        pcr.run();
        assert_eq!(fifo.trace().hash(), pcr.trace().hash());
        assert!(pcr.recorded_schedule().unwrap().is_empty());
    }

    /// A long explored run (several hundred pending events, slots of the
    /// event slab reused many times over) replays bit-for-bit.
    #[test]
    fn long_explored_run_compacts_without_changing_the_schedule() {
        use crate::explore::SchedulePolicy;
        let build = || {
            // 4 senders × 64 messages: several hundred pending entries.
            (0..6usize)
                .map(|i| {
                    let mut r = Recorder::quiet();
                    if i < 4 {
                        r.sends_on_start = (0..64u8)
                            .map(|k| (NodeId(4 + (k as u32 + i as u32) % 2), Blob(vec![k])))
                            .collect();
                    }
                    r
                })
                .collect::<Vec<_>>()
        };
        let mut random =
            Simulation::with_policy(jittery_config(21), build(), SchedulePolicy::Random(555));
        assert!(random.run().is_quiescent());
        let sched = random.recorded_schedule().unwrap();
        let mut replay = Simulation::with_policy(
            jittery_config(21),
            build(),
            SchedulePolicy::Replay(sched.clone()),
        );
        assert!(replay.run().is_quiescent());
        assert_eq!(replay.trace().hash(), random.trace().hash());
        assert_eq!(replay.recorded_schedule().unwrap(), sched);
    }

    #[test]
    fn trace_entries_recorded_when_enabled() {
        let mut sender = Recorder::quiet();
        sender.sends_on_start = vec![(NodeId(1), Blob(vec![]))];
        let mut sim = Simulation::new(jittery_config(1), vec![sender, Recorder::quiet()]);
        sim.run();
        let entries = sim.trace().entries().expect("trace enabled");
        assert!(entries.iter().any(|e| matches!(
            e,
            TraceEntry::Send {
                from: NodeId(0),
                to: NodeId(1),
                ..
            }
        )));
        assert!(entries.iter().any(|e| matches!(
            e,
            TraceEntry::Deliver {
                from: NodeId(0),
                to: NodeId(1),
                ..
            }
        )));
    }

    /// Lazy activation: a node is spawned (and its `on_start` run) only
    /// when its first event arrives; bystanders are never materialized.
    #[test]
    fn lazy_nodes_spawn_on_first_event_only() {
        let graph = Arc::new(precipice_graph::path(4));
        let mut sim: Simulation<Recorder> =
            Simulation::lazy(SimConfig::default(), &graph, move |me| {
                let mut r = Recorder::quiet();
                // Cliff-edge style: monitor-only on_start.
                r.monitors_on_start = vec![NodeId(me.0.wrapping_sub(1)), NodeId(me.0 + 1)]
                    .into_iter()
                    .filter(|q| q.index() < 4)
                    .collect();
                r
            });
        sim.schedule_crash(NodeId(1), SimTime::from_millis(1));
        assert!(sim.run().is_quiescent());
        // Border nodes 0 and 2 were activated by their notifications...
        assert_eq!(sim.process(NodeId(0)).notified.len(), 1);
        assert_eq!(sim.process(NodeId(2)).notified.len(), 1);
        // ...node 3 (not bordering the crash) and the crashed node 1
        // never spawned.
        assert!(sim.try_process(NodeId(3)).is_none());
        assert!(sim.try_process(NodeId(1)).is_none());
        assert_eq!(sim.processes().count(), 2);
        assert_eq!(sim.into_processes().len(), 2);
    }

    /// The graph-backed detector notifies a node that never ran (never
    /// activated, never explicitly subscribed) exactly once when a
    /// neighbour crashes — static monitoring is structural.
    #[test]
    fn lazy_never_activated_neighbor_still_notified_exactly_once() {
        let graph = Arc::new(precipice_graph::path(3));
        let mut sim: Simulation<Recorder> =
            Simulation::lazy(SimConfig::default(), &graph, |_| Recorder::quiet());
        // Crash the middle node twice (the second is a no-op): both
        // neighbours get exactly one notification each, despite nobody
        // ever calling monitor().
        sim.schedule_crash(NodeId(1), SimTime::from_millis(1));
        sim.schedule_crash(NodeId(1), SimTime::from_millis(2));
        assert!(sim.run().is_quiescent());
        assert_eq!(
            sim.process(NodeId(0)).notified,
            vec![(SimTime::from_millis(6), NodeId(1))]
        );
        assert_eq!(sim.process(NodeId(2)).notified.len(), 1);
        assert_eq!(sim.metrics().crash_notifications(), 2);
    }

    /// The per-step rescan the incremental frontier replaced, kept as
    /// its oracle: live events in seq order, the first pending delivery
    /// per channel plus every crash and notification, with delivery
    /// keys numbered from `delivered` (executed deliveries per channel,
    /// counted by the caller).
    impl<M> RunState<M> {
        fn rescan(&self, delivered: &BTreeMap<(NodeId, NodeId), u32>) -> Vec<(u64, EventKey)> {
            let mut live: Vec<&Entry<M>> =
                self.slab.iter().filter_map(|s| s.entry.as_ref()).collect();
            live.sort_by_key(|e| e.seq);
            let mut seen = HashSet::new();
            live.into_iter()
                .filter_map(|e| {
                    let key = match e.kind {
                        EventKind::Deliver { to, from, .. } => {
                            if !seen.insert((from, to)) {
                                return None;
                            }
                            let nth = delivered.get(&(from, to)).copied().unwrap_or(0);
                            EventKey::Deliver { from, to, nth }
                        }
                        EventKind::Notify { to, crashed } => EventKey::Notify {
                            observer: to,
                            crashed,
                        },
                        EventKind::Crash { node } => EventKey::Crash { node },
                    };
                    Some((e.seq, key))
                })
                .collect()
        }

        fn frontier_keys(&self) -> Vec<(u64, EventKey)> {
            self.frontier
                .iter()
                .map(|f| (f.seq, self.key_of(f.idx)))
                .collect()
        }
    }

    /// Runs `sim` to quiescence one step at a time, checking before
    /// every step that the frontier lists exactly the rescan's events,
    /// in the same seq order and under the same keys. Returns the steps
    /// taken.
    fn run_against_rescan<P: Process>(sim: &mut Simulation<P>, tag: &str) -> u64 {
        let mut delivered = BTreeMap::new();
        let mut steps = 0;
        sim.start_if_needed();
        loop {
            let want = sim.st.rescan(&delivered);
            assert_eq!(sim.st.frontier_keys(), want, "{tag}, step {steps}");
            if !sim.has_pending() {
                return steps;
            }
            sim.step();
            steps += 1;
            // The executed event is the one enabled event now gone.
            let live: HashSet<u64> = sim
                .st
                .slab
                .iter()
                .filter_map(|s| s.entry.as_ref().map(|e| e.seq))
                .collect();
            let gone: Vec<EventKey> = want
                .iter()
                .filter(|(seq, _)| !live.contains(seq))
                .map(|&(_, key)| key)
                .collect();
            assert_eq!(gone.len(), 1, "{tag}, step {steps}");
            if let EventKey::Deliver { from, to, .. } = gone[0] {
                *delivered.entry((from, to)).or_insert(0) += 1;
            }
        }
    }

    /// Monitors its neighbours; a crash notification floods them with
    /// payloads that are forwarded twice more, so runs keep several
    /// messages in flight per channel while later crashes land.
    struct Gossip {
        graph: Arc<Graph>,
        me: NodeId,
    }

    impl Process for Gossip {
        type Msg = Blob;
        fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
            for &n in self.graph.neighbors(self.me) {
                ctx.monitor(n);
            }
        }
        fn on_message(&mut self, _: NodeId, msg: Blob, ctx: &mut Context<'_, Blob>) {
            if msg.0[0] > 0 {
                for &n in self.graph.neighbors(self.me) {
                    ctx.send(n, Blob(vec![msg.0[0] - 1]));
                }
            }
        }
        fn on_crash_notification(&mut self, _: NodeId, ctx: &mut Context<'_, Blob>) {
            for &n in self.graph.neighbors(self.me) {
                ctx.send(n, Blob(vec![2]));
            }
        }
    }

    #[test]
    fn frontier_matches_rescan_oracle() {
        use crate::explore::{race_pairs_of, GuidedSpec, Schedule, SplitMix};
        let graphs = [
            Arc::new(precipice_graph::ring(12)),
            Arc::new(precipice_graph::torus(precipice_graph::GridDims::square(4))),
        ];
        let mut rng = SplitMix(0x5eed_0ff0);
        let mut steps = 0;
        for run in 0..32 {
            let graph = &graphs[run % 2];
            let config = SimConfig {
                latency: LatencyModel::Uniform {
                    min: SimTime::from_micros(200),
                    max: SimTime::from_millis(3),
                },
                fd_latency: LatencyModel::Uniform {
                    min: SimTime::from_millis(1),
                    max: SimTime::from_millis(5),
                },
                ..jittery_config(rng.next())
            };
            // One to three crashes; the later ones land while the
            // earlier ones' gossip is in flight.
            let crashes: Vec<(NodeId, SimTime)> = (0..1 + rng.below(3))
                .map(|_| {
                    let node = NodeId::from_index(rng.below(graph.len()));
                    (node, SimTime::from_micros(500 + rng.below(8000) as u64))
                })
                .collect();
            let sim = |policy: SchedulePolicy| {
                let g = Arc::clone(graph);
                let mut sim = Simulation::lazy_with_policy(
                    config,
                    graph,
                    move |me| Gossip {
                        graph: Arc::clone(&g),
                        me,
                    },
                    policy,
                );
                for &(node, at) in &crashes {
                    sim.schedule_crash(node, at);
                }
                sim
            };
            let mut random = sim(SchedulePolicy::Random(rng.next()));
            random.run();
            let recorded = random.recorded_schedule().unwrap();
            let policy = match run % 4 {
                0 => SchedulePolicy::Random(rng.next()),
                1 => SchedulePolicy::Pcr(rng.next()),
                // A shrunk replay: every third deviation dropped, so
                // some later ones go stale.
                2 => SchedulePolicy::Replay(Schedule::new(
                    recorded
                        .deviations
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % 3 != 2)
                        .map(|(_, &d)| d)
                        .collect(),
                )),
                _ => {
                    let pairs = race_pairs_of(random.trace().entries().unwrap());
                    let flip =
                        pairs.iter().next().map(
                            |(&(lo, hi), &bits)| if bits & 1 != 0 { (lo, hi) } else { (hi, lo) },
                        );
                    SchedulePolicy::Guided(GuidedSpec {
                        base: recorded,
                        seed: rng.next(),
                        flip,
                    })
                }
            };
            let tag = format!("run {run}, {}", policy.tag());
            let mut checked = sim(policy.clone());
            steps += run_against_rescan(&mut checked, &tag);
            // Stepping changed nothing: the same run through `run`.
            let mut plain = sim(policy);
            plain.run();
            assert_eq!(checked.trace().hash(), plain.trace().hash(), "{tag}");
        }
        assert!(
            steps > 3000,
            "runs too short to exercise the frontier: {steps}"
        );
    }
}
