//! `cliff_edge`: the ROADMAP anchor run, closed loop.
//!
//! One op is `Scenario::exec` (lazy engine, FIFO schedule) followed by
//! `check_spec`, on a 16×16 torus where a 64-node blob around the
//! center crashes at once. The op's scenario seed cycles through a
//! fixed set of [`SEEDS`] seeds derived from the workload seed (seed 0
//! includes the anchor run of 28 704 messages). Most of the time is in
//! the `core` handlers doing 64-node view and graph work, and in the
//! FIFO scheduler; there is no exploration, coverage or `net` work.

use std::time::Instant;

use precipice_core::ProtocolConfig;
use precipice_graph::{torus, GridDims, NodeId, Region};
use precipice_runtime::{check_spec, Exec, RunReport, Scenario, Violation};
use precipice_sim::{SchedulePolicy, SimTime};
use precipice_workload::patterns::{blob_of_size, schedule, CrashTiming};

use crate::spans::{ns_since, replay, timed, Replay};
use crate::{
    cli_sim, closed_loop, closed_loop_with_setups, EndToEnd, Failure, Metric, Outcomes, Params,
    Traced,
};

/// Torus side.
pub const SIDE: usize = 16;
/// Crashed blob size.
pub const BLOB: usize = 64;
/// Scenario seeds per run; op `i` uses seed `i % SEEDS` of the set.
pub const SEEDS: u64 = 16;

/// The scenario set of workload seed `seed`, and the crashed region.
fn scenarios(seed: u64) -> (Vec<Scenario>, Region) {
    let graph = torus(GridDims::square(SIDE));
    let region = blob_of_size(&graph, NodeId((graph.len() / 2) as u32), BLOB);
    let base = Scenario::builder(graph)
        .name("cliff_edge")
        .crashes(schedule(
            region.iter(),
            CrashTiming::Simultaneous(SimTime::from_millis(1)),
        ))
        .protocol(ProtocolConfig::faithful())
        .sim_config(cli_sim(0))
        .build();
    let set = (0..SEEDS)
        .map(|i| {
            let mut s = base.clone();
            s.sim.seed = seed.wrapping_mul(SEEDS).wrapping_add(i);
            s
        })
        .collect();
    (set, region)
}

/// One op: the run and its specification check.
fn op(scenario: &Scenario) -> (RunReport<NodeId>, Vec<Violation>) {
    let report = scenario.exec(Exec::new()).report;
    let violations = check_spec(&report);
    (report, violations)
}

/// Checks an op's output: a quiescent run with no CD violation in
/// which every border node decided the crashed region.
fn verify(
    (report, violations): &(RunReport<NodeId>, Vec<Violation>),
    region: &Region,
) -> Result<(), Failure> {
    let wrong = |why: String| Err(Failure::Wrong(format!("cliff_edge: {why}")));
    if !report.outcome.is_quiescent() {
        return wrong(format!("run not quiescent ({:?})", report.outcome));
    }
    if !violations.is_empty() {
        return wrong(format!("check_spec found {violations:?}"));
    }
    for b in report.graph.border_of(region.iter()) {
        match report.decisions.get(&b) {
            Some(d) if d.view.region() == region => {}
            Some(d) => {
                return wrong(format!(
                    "{b} decided {} instead of the crashed region",
                    d.view
                ))
            }
            None => return wrong(format!("border node {b} did not decide")),
        }
    }
    Ok(())
}

/// Set-up: build the scenario set, then warm up on the anchor run
/// (scenario seed 0). The warm-up input is the same for every workload
/// seed, so `setup_s` does not move with the seed's message counts.
fn setup(seed: u64) -> ((Vec<Scenario>, Region), f64) {
    let t0 = Instant::now();
    let (set, region) = scenarios(seed);
    let _ = op(&scenarios(0).0[0]);
    ((set, region), t0.elapsed().as_secs_f64())
}

/// The end-to-end run.
pub fn end_to_end(p: &Params) -> EndToEnd {
    let ((set, region), first) = setup(p.seed);
    let mut setup_s = vec![first];
    let mut latency_ms = Vec::new();
    let mut work = Vec::new();
    let mut outcomes = Outcomes::new();
    let timeline = closed_loop_with_setups(
        p.seconds,
        p.setup_repeats(),
        |i| {
            let scenario = &set[i % set.len()];
            let t0 = Instant::now();
            let report = op(scenario);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let result = verify(&report, &region);
            if result.is_ok() {
                latency_ms.push(ms);
            }
            work.push(1.0);
            outcomes.record(result);
        },
        |_| setup_s.push(setup(p.seed).1),
    );
    EndToEnd {
        setup_s,
        latency_ms,
        work,
        timeline,
        outcomes,
    }
}

/// Exact per-op counters of one traced replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    handler_calls: u64,
    events: u64,
    sent: u64,
    delivered: u64,
    bytes: u64,
    engine_allocs: u64,
    handler_allocs: u64,
}

impl Counters {
    fn of(r: &Replay) -> Self {
        Counters {
            handler_calls: r.handler_calls,
            events: r.events,
            sent: r.metrics.messages_sent(),
            delivered: r.metrics.messages_delivered(),
            bytes: r.metrics.bytes_sent(),
            engine_allocs: r.engine_allocs,
            handler_allocs: r.handler_allocs,
        }
    }
}

/// The traced run: each op runs untraced, then replays with every
/// protocol handler wrapped in a timer; the replay must reproduce the
/// untraced run's trace hash and counters exactly.
pub fn traced(p: &Params) -> Traced {
    let ((set, region), _) = setup(p.seed);
    let mut outcomes = Outcomes::new();
    let mut first_pass: Vec<Option<Counters>> = vec![None; set.len()];
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let (mut handler_ns, mut handler_calls, mut core_ns, mut sim_self_ns, mut check_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut ops = 0u64;
    closed_loop(p.seconds, p.counted_ops(set.len()), |i| {
        let k = i % set.len();
        let scenario = &set[k];
        let (untraced, ns) = timed(|| op(scenario));
        untraced_ns += ns;
        outcomes.record(verify(&untraced, &region));
        let report = &untraced.0;

        let t0 = Instant::now();
        let rep = replay(scenario, SchedulePolicy::Fifo);
        let (violations, check) = timed(|| check_spec(report));
        traced_ns += ns_since(t0);
        outcomes.require(violations.is_empty(), || {
            format!("cliff_edge: traced check found {violations:?}")
        });
        outcomes.require(
            rep.trace_hash == report.trace_hash
                && rep.events == report.outcome.events()
                && rep.metrics == report.metrics,
            || format!("cliff_edge: replay of seed {} diverged", scenario.sim.seed),
        );
        let counters = Counters::of(&rep);
        match first_pass[k] {
            None => first_pass[k] = Some(counters),
            Some(seen) => outcomes.require(seen == counters, || {
                format!("cliff_edge: counters changed between passes: {seen:?} vs {counters:?}")
            }),
        }
        handler_ns += rep.handler_ns;
        handler_calls += rep.handler_calls;
        core_ns += rep.core_ns();
        sim_self_ns += rep.sim_self_ns();
        check_ns += check;
        ops += 1;
    });
    // Exact counters: over the fixed first pass of the seed set (or its
    // prefix in quick mode), so they repeat run to run.
    let counted: Vec<Counters> = first_pass.into_iter().flatten().collect();
    let sum = |f: fn(&Counters) -> u64| counted.iter().map(f).sum::<u64>() as f64;
    let n = counted.len() as f64;
    let per_op = |ns: u64, unit: f64| ns as f64 / ops as f64 / unit;
    let attributed = core_ns + sim_self_ns + check_ns;
    let metrics = vec![
        Metric::new("core.handle_calls", sum(|c| c.handler_calls) / n, "count"),
        Metric::new(
            "core.handle_ns_per_call",
            handler_ns as f64 / handler_calls as f64,
            "ns",
        ),
        Metric::new("core.handle_ms_per_op", per_op(core_ns, 1e6), "ms"),
        Metric::new("sim.self_ms_per_op", per_op(sim_self_ns, 1e6), "ms"),
        Metric::new("sim.events", sum(|c| c.events) / n, "count"),
        Metric::new("sim.messages", sum(|c| c.sent) / n, "count"),
        Metric::new("sim.bytes", sum(|c| c.bytes) / n, "bytes"),
        Metric::new("runtime.check_us_per_op", per_op(check_ns, 1e3), "us"),
        Metric::new(
            "sim.allocs_per_message",
            sum(|c| c.engine_allocs) / sum(|c| c.delivered),
            "count",
        ),
        Metric::new(
            "core.allocs_per_call",
            sum(|c| c.handler_allocs) / sum(|c| c.handler_calls),
            "count",
        ),
        Metric::new(
            "cliff_edge.attributed_share",
            attributed as f64 / traced_ns as f64,
            "ratio",
        ),
        Metric::new(
            "cliff_edge.trace_overhead",
            traced_ns as f64 / untraced_ns as f64,
            "ratio",
        ),
    ];
    Traced { metrics, outcomes }
}
