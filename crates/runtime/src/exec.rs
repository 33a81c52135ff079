//! The unified scenario execution API: [`Exec`] options in,
//! [`ExecOutcome`] out.
//!
//! [`Scenario::exec`](crate::Scenario::exec) is the single entry point
//! for every backend: one call taking an [`Exec`] options value
//! (decision-policy factory, [`SchedulePolicy`], [`Engine`]) and always
//! returning the report together with the recorded schedule. (It
//! replaced the historical 2×3 matrix of `run*` methods; their
//! deprecated forwarders have since been removed.)
//!
//! # Engine equivalence contract
//!
//! The two *simulated* engines produce **bit-identical** observables
//! for the same scenario and options — same [`RunReport`] (trace hash,
//! metrics, decisions, stats) and same recorded [`Schedule`]:
//!
//! - [`Engine::Lazy`] (default): footprint-proportional run; processes
//!   spawn immediately before their first event. Budgeted drivers feed
//!   whole seed sweeps and fuzz budgets through it with a
//!   [`BatchRunner`](crate::BatchRunner).
//! - [`Engine::Eager`]: the executable reference; all `n` processes are
//!   built up front and `on_start` runs at time zero. Equivalent for
//!   protocols whose `on_start` only monitors graph neighbours (the
//!   cliff-edge protocol's line 4) — see `tests/lazy_eager_differential.rs`.
//!
//! # The live engine
//!
//! [`Engine::Live`] steps outside the simulation: the scenario runs on
//! the sharded event-loop runtime (`precipice-net`) with real threads
//! and real queues. Decisions, views and protocol stats still match
//! the simulated engines (the state machine is identical), but the
//! schedule is whatever the OS produced: timing fields are coarse
//! logical stamps, the trace hash is zero, `message_pairs` is absent
//! and the scenario's [`SchedulePolicy`] and latency model do not
//! apply. For *deterministic* live schedules use
//! [`probe_live`](crate::probe_live), which gates the same backend one
//! released event at a time.

use precipice_core::{DecisionPolicy, NodeIdValuePolicy};
use precipice_graph::NodeId;
use precipice_sim::{Schedule, SchedulePolicy, Trace};

use crate::report::RunReport;

/// Which execution engine [`Scenario::exec`](crate::Scenario::exec)
/// drives. All engines are observably equivalent (see the
/// [module docs](self)); they differ in cost profile only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Footprint-proportional scalar execution (the default): processes
    /// spawn lazily at their first event.
    Lazy,
    /// The eager reference: all `n` processes built up front, `on_start`
    /// at time zero.
    Eager,
    /// The sharded live backend (`precipice-net`): real worker threads
    /// own disjoint node ranges and exchange events over bounded MPSC
    /// rings. Free-running — observably equivalent on decisions, views
    /// and stats, but not on schedules (see the [module docs](self)).
    Live {
        /// Worker shard count (clamped to at least 1).
        shards: usize,
    },
}

/// Builder-style options for [`Scenario::exec`](crate::Scenario::exec):
/// a decision-policy factory, a [`SchedulePolicy`], and an [`Engine`].
///
/// `Exec::new()` is the classic run: [`NodeIdValuePolicy`] decisions,
/// FIFO scheduling, lazy engine.
///
/// ```
/// use precipice_graph::{path, NodeId};
/// use precipice_runtime::{Exec, Scenario};
/// use precipice_sim::{SchedulePolicy, SimTime};
///
/// let scenario = Scenario::builder(path(3))
///     .crash(NodeId(1), SimTime::from_millis(1))
///     .build();
/// let classic = scenario.exec(Exec::new());
/// let fuzzed = scenario.exec(Exec::new().schedule(SchedulePolicy::Random(7)));
/// assert!(classic.schedule.is_empty(), "FIFO records no deviations");
/// assert_eq!(classic.report.decisions.len(), 2);
/// assert!(fuzzed.report.outcome.is_quiescent());
/// ```
pub struct Exec<P = NodeIdValuePolicy, F = fn(NodeId) -> NodeIdValuePolicy> {
    pub(crate) make_policy: F,
    pub(crate) schedule: SchedulePolicy,
    pub(crate) engine: Engine,
    pub(crate) _marker: std::marker::PhantomData<fn() -> P>,
}

impl Exec {
    /// The classic run: [`NodeIdValuePolicy`] decisions (border
    /// coordinator election), FIFO scheduling, lazy engine.
    pub fn new() -> Self {
        Exec {
            make_policy: |_me| NodeIdValuePolicy,
            schedule: SchedulePolicy::Fifo,
            engine: Engine::Lazy,
            _marker: std::marker::PhantomData,
        }
    }
}

impl Default for Exec {
    fn default() -> Self {
        Exec::new()
    }
}

impl<P, F> Exec<P, F>
where
    P: DecisionPolicy,
    F: FnMut(NodeId) -> P,
{
    /// Replaces the decision-policy factory: `make_policy(node)` builds
    /// the policy each node decides with (called lazily, at the node's
    /// activation).
    pub fn decide_with<P2, F2>(self, make_policy: F2) -> Exec<P2, F2>
    where
        P2: DecisionPolicy,
        F2: FnMut(NodeId) -> P2,
    {
        Exec {
            make_policy,
            schedule: self.schedule,
            engine: self.engine,
            _marker: std::marker::PhantomData,
        }
    }

    /// Sets the event-scheduling policy (FIFO, random/PCR fuzzing, or
    /// schedule replay).
    pub fn schedule(mut self, schedule: SchedulePolicy) -> Self {
        self.schedule = schedule;
        self
    }

    /// Selects the execution engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }
}

impl<P, F> std::fmt::Debug for Exec<P, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Exec")
            .field("schedule", &self.schedule)
            .field("engine", &self.engine)
            .finish()
    }
}

/// What an execution produced: the full [`RunReport`] plus the recorded
/// [`Schedule`] — **always** present ([`Schedule::fifo`] when the run
/// never deviated from latency order), unlike the historical
/// `Option<Schedule>` returns.
#[derive(Debug, Clone)]
pub struct ExecOutcome<V> {
    /// Decisions, metrics, stats, trace fingerprint.
    pub report: RunReport<V>,
    /// The scheduling deviations actually taken (replayable; empty for
    /// a pure-FIFO execution).
    pub schedule: Schedule,
    /// The run's trace, moved out of the finished simulation (entries
    /// present iff the scenario recorded them). `None` on the live
    /// engine, whose schedules the OS owns. Coverage extraction
    /// ([`precipice_sim::race_pairs_of`]) consumes the entries without
    /// a per-run clone.
    pub trace: Option<Trace>,
}
