//! `explore`: repeated schedule explorations, closed loop.
//!
//! One op is one `explore_scenario` call on a small clean scenario
//! (8×8 torus, simultaneous 6-node blob, trace recording on as
//! `precipice check` sets it) with a fixed [`BUDGET`] of schedules, a
//! distinct exploration seed, `PolicyMix::Mixed` and one worker (one
//! worker measured steadier than two). Most of the time is in the
//! exploring scheduler and in the per-probe checker and coverage fold;
//! each probe does little `core` work. Throughput counts schedules.

use std::collections::BTreeSet;
use std::time::Instant;

use precipice_core::ProtocolConfig;
use precipice_graph::{torus, GridDims, NodeId};
use precipice_runtime::{probe_coverage, BatchJob, BatchRunner, Scenario};
use precipice_sim::{CoverageMap, SimTime};
use precipice_workload::explore::{explore_scenario, ExploreConfig, ExploreOutcome, PolicyMix};
use precipice_workload::patterns::{blob_of_size, schedule, CrashTiming};
use precipice_workload::sweep::Jobs;

use crate::spans::{ns_since, replay, timed};
use crate::{
    cli_sim, closed_loop, closed_loop_with_setups, mix, EndToEnd, Failure, Metric, Outcomes,
    Params, Traced,
};

/// Torus side.
pub const SIDE: usize = 8;
/// Crashed blob size.
pub const BLOB: usize = 6;
/// Schedules per `explore_scenario` call.
pub const BUDGET: u64 = 64;
/// Probes per lockstep wave, as `explore_scenario` runs them.
const WAVE: usize = 16;
/// Ops over which the exact counters are taken.
const COUNTED_OPS: usize = 8;

/// The clean scenario of workload seed `seed`.
fn scenario(seed: u64) -> Scenario {
    let graph = torus(GridDims::square(SIDE));
    let region = blob_of_size(&graph, NodeId((graph.len() / 2) as u32), BLOB);
    Scenario::builder(graph)
        .name("explore")
        .crashes(schedule(
            region.iter(),
            CrashTiming::Simultaneous(SimTime::from_millis(1)),
        ))
        .protocol(ProtocolConfig::faithful())
        .sim_config(cli_sim(seed))
        .build()
}

fn budget(p: &Params) -> u64 {
    if p.quick {
        WAVE as u64
    } else {
        BUDGET
    }
}

/// The exploration config of op `i` (`None`: the warm-up).
fn config(p: &Params, i: Option<usize>) -> ExploreConfig {
    ExploreConfig {
        budget: budget(p),
        seed: i.map_or(0, |i| mix(p.seed, i as u64)),
        policy: PolicyMix::Mixed,
        ..ExploreConfig::default()
    }
}

fn op(scenario: &Scenario, cfg: &ExploreConfig) -> ExploreOutcome {
    explore_scenario(scenario, cfg, Jobs::serial())
}

/// Checks an op's output: the whole budget explored, no violation.
fn verify(out: &ExploreOutcome, cfg: &ExploreConfig) -> Result<(), Failure> {
    if out.schedules() != cfg.budget || out.violating() != 0 {
        return Err(Failure::Wrong(format!(
            "explore seed {}: {} of {} schedules explored, {} violating",
            cfg.seed,
            out.schedules(),
            cfg.budget,
            out.violating()
        )));
    }
    Ok(())
}

/// Set-up: build the scenario, then warm up with one exploration of
/// the seed-0 scenario under exploration seed 0. The warm-up input is
/// the same for every workload seed, so `setup_s` does not move with
/// the seed's exploration cost.
fn setup(p: &Params) -> (Scenario, f64) {
    let t0 = Instant::now();
    let s = scenario(p.seed);
    let _ = op(&scenario(0), &config(p, None));
    (s, t0.elapsed().as_secs_f64())
}

/// The end-to-end run.
pub fn end_to_end(p: &Params) -> EndToEnd {
    let (scenario, first) = setup(p);
    let mut setup_s = vec![first];
    let mut latency_ms = Vec::new();
    let mut outcomes = Outcomes::new();
    let mut work = Vec::new();
    let timeline = closed_loop_with_setups(
        p.seconds,
        p.setup_repeats(),
        |i| {
            let cfg = config(p, Some(i));
            let t0 = Instant::now();
            let out = op(&scenario, &cfg);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let result = verify(&out, &cfg);
            if result.is_ok() {
                latency_ms.push(ms);
                work.push(out.schedules() as f64);
            } else {
                work.push(0.0);
            }
            outcomes.record(result);
        },
        |_| setup_s.push(setup(p).1),
    );
    EndToEnd {
        setup_s,
        latency_ms,
        work,
        timeline,
        outcomes,
    }
}

/// Span totals of the traced replays, in nanoseconds.
#[derive(Debug, Default)]
struct Spans {
    untraced: u64,
    traced: u64,
    policy: u64,
    wave: u64,
    coverage: u64,
    observe: u64,
    scalar_self: u64,
    probes: u64,
}

/// The traced run. Each op runs `explore_scenario` untraced, then
/// replays its probes twice from the benchmark's files: once through
/// the same calls the explorer makes (`BatchRunner::run` waves,
/// `probe_coverage`, `CoverageMap::observe`), timing each, and once
/// through the scalar lazy engine with timed handlers. Both replays
/// must reproduce every `ProbeDigest` and the coverage map exactly.
pub fn traced(p: &Params) -> Traced {
    let (scenario, _) = setup(p);
    let mut outcomes = Outcomes::new();
    let mut spans = Spans::default();
    let (mut counted_events, mut counted_unique, mut counted_probes) = (0u64, 0u64, 0u64);
    closed_loop(p.seconds, p.counted_ops(COUNTED_OPS), |i| {
        let cfg = config(p, Some(i));
        let (out, ns) = timed(|| op(&scenario, &cfg));
        spans.untraced += ns;
        outcomes.record(verify(&out, &cfg));

        let t0 = Instant::now();
        let (jobs, ns) = timed(|| {
            (0..cfg.budget)
                .map(|index| BatchJob {
                    seed: scenario.sim.seed,
                    policy: cfg.policy.policy_for(cfg.seed, index),
                })
                .collect::<Vec<_>>()
        });
        spans.policy += ns;
        let mut coverage = CoverageMap::new();
        let (mut runner, ns) = timed(|| BatchRunner::with_default_policy(&scenario, WAVE));
        spans.wave += ns;
        let mut index = 0;
        for wave in jobs.chunks(WAVE) {
            let (results, ns) = timed(|| runner.run(wave));
            spans.wave += ns;
            for result in results {
                let ((violations, cov), ns) = timed(|| probe_coverage(&result));
                spans.coverage += ns;
                let (_, ns) = timed(|| coverage.observe(&cov));
                spans.observe += ns;
                let same = out.probes.get(index).is_some_and(|digest| {
                    digest.trace_hash == result.report.trace_hash
                        && digest.events == result.report.outcome.events()
                        && digest.deviations == result.schedule.len()
                        && digest.violations == violations.len()
                });
                outcomes.require(same, || {
                    format!("explore seed {}: probe {index} diverged in waves", cfg.seed)
                });
                index += 1;
            }
        }
        spans.traced += ns_since(t0);
        outcomes.require(
            index == out.probes.len() && coverage == out.coverage,
            || format!("explore seed {}: coverage map diverged", cfg.seed),
        );

        for (job, digest) in jobs.into_iter().zip(&out.probes) {
            let rep = replay(&scenario, job.policy);
            spans.scalar_self += rep.sim_self_ns();
            outcomes.require(
                rep.trace_hash == digest.trace_hash && rep.events == digest.events,
                || {
                    format!(
                        "explore seed {}: probe {} diverged in the scalar replay",
                        cfg.seed, digest.index
                    )
                },
            );
        }
        spans.probes += out.schedules();

        if i < p.counted_ops(COUNTED_OPS) {
            counted_events += out.probes.iter().map(|d| d.events).sum::<u64>();
            counted_unique += out
                .probes
                .iter()
                .map(|d| d.trace_hash)
                .collect::<BTreeSet<_>>()
                .len() as u64;
            counted_probes += out.schedules();
        }
    });
    let per_probe_us = |ns: u64| ns as f64 / spans.probes as f64 / 1e3;
    let attributed = spans.policy + spans.wave + spans.coverage + spans.observe;
    let metrics = vec![
        Metric::new(
            "sim.scalar_self_us_per_probe",
            per_probe_us(spans.scalar_self),
            "us",
        ),
        Metric::new("sim.wave_us_per_probe", per_probe_us(spans.wave), "us"),
        Metric::new(
            "runtime.probe_coverage_us",
            per_probe_us(spans.coverage),
            "us",
        ),
        Metric::new("sim.coverage_observe_us", per_probe_us(spans.observe), "us"),
        Metric::new(
            "workload.events_per_probe",
            counted_events as f64 / counted_probes as f64,
            "count",
        ),
        Metric::new(
            "workload.unique_share",
            counted_unique as f64 / counted_probes as f64,
            "ratio",
        ),
        Metric::new(
            "explore.attributed_share",
            attributed as f64 / spans.traced as f64,
            "ratio",
        ),
        Metric::new(
            "explore.trace_overhead",
            spans.traced as f64 / spans.untraced as f64,
            "ratio",
        ),
    ];
    Traced { metrics, outcomes }
}
