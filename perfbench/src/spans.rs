//! Span timers around the calls into each layer, kept in the
//! benchmark's own files: the program itself carries no tracing.
//!
//! The one span that needs a hook inside a run is the protocol
//! handler, and the simulator's [`Process`] trait is that hook:
//! [`Timed`] wraps a [`ProtocolProcess`] and times every handler call
//! into the cliff-edge core. [`replay`] runs a scenario exactly as the
//! lazy engine does, with every process wrapped, so its trace hash and
//! counters must equal the untraced run's.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use precipice_core::{CliffEdgeNode, NodeIdValuePolicy};
use precipice_graph::NodeId;
use precipice_runtime::{ProtocolProcess, Scenario};
use precipice_sim::{Context, Metrics, Process, SchedulePolicy, Simulation};

use crate::alloc::{self, Charge};

thread_local! {
    static HANDLER_CALLS: Cell<u64> = const { Cell::new(0) };
    static HANDLER_NS: Cell<u64> = const { Cell::new(0) };
    static SPAWN_NS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Runs `f` and returns its result with its wall time in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let r = f();
    (r, ns_since(t0))
}

fn add(cell: &'static std::thread::LocalKey<Cell<u64>>, v: u64) {
    cell.with(|c| c.set(c.get() + v));
}

fn handler<R>(f: impl FnOnce() -> R) -> R {
    let prev = alloc::charge(Charge::Handler);
    let (r, ns) = timed(f);
    alloc::charge(prev);
    add(&HANDLER_NS, ns);
    add(&HANDLER_CALLS, 1);
    r
}

/// A process whose every handler call is timed as core work.
#[derive(Debug)]
pub struct Timed<P>(pub P);

impl<P: Process> Process for Timed<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        handler(|| self.0.on_start(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        handler(|| self.0.on_message(from, msg, ctx));
    }

    fn on_crash_notification(&mut self, crashed: NodeId, ctx: &mut Context<'_, Self::Msg>) {
        handler(|| self.0.on_crash_notification(crashed, ctx));
    }
}

/// What a traced replay observed.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Trace hash (the ordering fingerprint).
    pub trace_hash: u64,
    /// Events processed.
    pub events: u64,
    /// Message and byte accounting.
    pub metrics: Metrics,
    /// Simulation build plus `Simulation::run`, in nanoseconds.
    pub sim_ns: u64,
    /// Protocol handler calls.
    pub handler_calls: u64,
    /// Time inside handler calls.
    pub handler_ns: u64,
    /// Time building protocol nodes at activation.
    pub spawn_ns: u64,
    /// Allocations outside handler calls, within `sim_ns`.
    pub engine_allocs: u64,
    /// Allocations inside handler calls.
    pub handler_allocs: u64,
}

impl Replay {
    /// Simulator time net of the core work it called into.
    pub fn sim_self_ns(&self) -> u64 {
        self.sim_ns.saturating_sub(self.handler_ns + self.spawn_ns)
    }

    /// Core time: handler calls plus node construction.
    pub fn core_ns(&self) -> u64 {
        self.handler_ns + self.spawn_ns
    }
}

/// Replays `scenario` under `policy` on the lazy engine with every
/// process wrapped in [`Timed`] — the same run as
/// `scenario.exec(Exec::new().schedule(policy))`.
pub fn replay(scenario: &Scenario, policy: SchedulePolicy) -> Replay {
    let graph = Arc::clone(&scenario.graph);
    let (protocol, multicast) = (scenario.protocol, scenario.multicast);
    let factory = move |me: NodeId| {
        let (process, ns) = timed(|| {
            Timed(ProtocolProcess::with_multicast_mode(
                CliffEdgeNode::new(me, Arc::clone(&graph), NodeIdValuePolicy, protocol),
                multicast,
            ))
        });
        add(&SPAWN_NS, ns);
        process
    };
    for cell in [&HANDLER_CALLS, &HANDLER_NS, &SPAWN_NS] {
        cell.with(|c| c.set(0));
    }
    let (engine0, handler0) = alloc::counts();
    let prev = alloc::charge(Charge::Engine);
    let t0 = Instant::now();
    let mut sim = Simulation::lazy_with_policy(scenario.sim, &scenario.graph, factory, policy);
    for &(node, at) in &scenario.crashes {
        sim.schedule_crash(node, at);
    }
    let outcome = sim.run();
    let sim_ns = ns_since(t0);
    alloc::charge(prev);
    let (engine1, handler1) = alloc::counts();
    Replay {
        trace_hash: sim.trace().hash(),
        events: outcome.events(),
        metrics: sim.metrics().clone(),
        sim_ns,
        handler_calls: HANDLER_CALLS.with(Cell::get),
        handler_ns: HANDLER_NS.with(Cell::get),
        spawn_ns: SPAWN_NS.with(Cell::get),
        engine_allocs: engine1 - engine0,
        handler_allocs: handler1 - handler0,
    }
}
