//! Budgeted execution: many scenario variants of one scenario shape,
//! run one after another on the lazy [`Simulation`](precipice_sim::Simulation).
//!
//! A [`BatchRunner`] is built once per scenario shape (graph + crash
//! schedule + protocol + latency model) and then fed [`BatchJob`]s —
//! the two axes the experiment drivers vary:
//!
//! - **seed sweeps** (figure 2's latency-seed replication): same
//!   policy, varying `seed`;
//! - **fuzz budgets** (schedule exploration): same `seed`, varying
//!   [`SchedulePolicy`] (one probe per budget index).
//!
//! Each job runs on a fresh simulation, so every outcome is exactly
//! what [`Scenario::exec`] returns for the same seed and policy.

use std::cell::RefCell;
use std::rc::Rc;

use precipice_core::{DecisionPolicy, NodeIdValuePolicy};
use precipice_graph::NodeId;
use precipice_sim::{SchedulePolicy, SimConfig};

use crate::exec::ExecOutcome;
use crate::scenario::Scenario;

/// One run variant in a batch: the latency/RNG seed and the scheduling
/// policy. Everything else — graph, crash schedule, protocol and
/// latency configuration — comes from the [`Scenario`] the runner was
/// built on.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// RNG seed for this run (latency sampling).
    pub seed: u64,
    /// Event-scheduling policy for this run.
    pub policy: SchedulePolicy,
}

/// Reusable executor for one scenario shape. See the
/// [module docs](self).
pub struct BatchRunner<P: DecisionPolicy> {
    scenario: Scenario,
    make_policy: Rc<RefCell<dyn FnMut(NodeId) -> P>>,
}

impl BatchRunner<NodeIdValuePolicy> {
    /// Runner with the default [`NodeIdValuePolicy`] decisions
    /// (border-coordinator election) — the batch analogue of
    /// [`Exec::new`](crate::Exec::new). `wave` has no effect (see
    /// [`BatchRunner::new`]).
    pub fn with_default_policy(scenario: &Scenario, wave: usize) -> Self {
        BatchRunner::new(scenario, wave, |_me| NodeIdValuePolicy)
    }
}

impl<P: DecisionPolicy + 'static> BatchRunner<P> {
    /// Builds a runner over `scenario`. `make_policy` constructs each
    /// node's decision policy, called lazily at the node's activation.
    ///
    /// The wave size (second argument) has no effect: jobs run one at a
    /// time. It is kept so existing callers compile unchanged.
    pub fn new<F>(scenario: &Scenario, _wave: usize, make_policy: F) -> Self
    where
        F: FnMut(NodeId) -> P + 'static,
    {
        BatchRunner {
            scenario: scenario.clone(),
            make_policy: Rc::new(RefCell::new(make_policy)),
        }
    }

    /// Executes `jobs` in order, returning one [`ExecOutcome`] per job
    /// in job order.
    pub fn run(&mut self, jobs: &[BatchJob]) -> Vec<ExecOutcome<P::Value>> {
        jobs.iter()
            .map(|job| {
                let make_policy = Rc::clone(&self.make_policy);
                let sim = SimConfig {
                    seed: job.seed,
                    ..self.scenario.sim
                };
                self.scenario.exec_lazy(
                    sim,
                    move |me| (make_policy.borrow_mut())(me),
                    job.policy.clone(),
                )
            })
            .collect()
    }
}

impl<P: DecisionPolicy> std::fmt::Debug for BatchRunner<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRunner")
            .field("scenario", &self.scenario.name)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Exec;
    use precipice_core::NodeIdValuePolicy;
    use precipice_graph::NodeId;
    use precipice_sim::SimTime;

    fn scenario() -> Scenario {
        Scenario::builder(precipice_graph::ring(10))
            .crash(NodeId(2), SimTime::from_millis(1))
            .crash(NodeId(3), SimTime::from_millis(2))
            .crash(NodeId(7), SimTime::from_millis(5))
            .build()
    }

    #[test]
    fn seed_sweep_matches_scalar_per_seed() {
        let s = scenario();
        let jobs: Vec<BatchJob> = (0..9)
            .map(|seed| BatchJob {
                seed,
                policy: SchedulePolicy::Fifo,
            })
            .collect();
        let mut runner = BatchRunner::new(&s, 4, |_me| NodeIdValuePolicy);
        let outcomes = runner.run(&jobs);
        assert_eq!(outcomes.len(), jobs.len());
        for (job, got) in jobs.iter().zip(&outcomes) {
            let mut variant = s.clone();
            variant.sim.seed = job.seed;
            let want = variant.exec(Exec::new());
            assert_eq!(got.report.trace_hash, want.report.trace_hash);
            assert_eq!(got.report.metrics, want.report.metrics);
            assert_eq!(got.report.decisions, want.report.decisions);
            assert_eq!(got.schedule, want.schedule);
        }
    }

    #[test]
    fn fuzz_budget_matches_scalar_per_policy() {
        let s = scenario();
        let jobs: Vec<BatchJob> = (0..6)
            .map(|i| BatchJob {
                seed: s.sim.seed,
                policy: if i % 2 == 0 {
                    SchedulePolicy::Random(100 + i)
                } else {
                    SchedulePolicy::Pcr(200 + i)
                },
            })
            .collect();
        let mut runner = BatchRunner::new(&s, 4, |_me| NodeIdValuePolicy);
        let outcomes = runner.run(&jobs);
        for (job, got) in jobs.iter().zip(&outcomes) {
            let want = s.exec(Exec::new().schedule(job.policy.clone()));
            assert_eq!(got.report.trace_hash, want.report.trace_hash);
            assert_eq!(got.report.metrics, want.report.metrics);
            assert_eq!(got.schedule, want.schedule);
        }
        // Runner reuse: a second budget through the same runner agrees.
        let again = runner.run(&jobs[..3]);
        for (got, want) in again.iter().zip(&outcomes[..3]) {
            assert_eq!(got.report.trace_hash, want.report.trace_hash);
        }
    }
}
