//! Golden trace hashes for the paper's figure scenarios.
//!
//! The simulator is bit-deterministic: a sealed scenario must always
//! produce the same FNV-1a trace hash, on every platform and after every
//! refactor of the transport internals. These values were captured before
//! the `fifo_last` flat-table optimization and pin the schedule exactly —
//! if one of them moves, a perf change has altered observable behavior.
//!
//! The scenario set is shared with the `bench_protocol` report binary
//! ([`precipice_bench::pinned_figure_scenarios`]), which records the same
//! hashes into `BENCH_protocol.json`.

use std::sync::Arc;

use precipice_bench::{experiment_sim, pinned_figure_scenarios, trace_hash_of};
use precipice_core::ProtocolConfig;
use precipice_graph::{torus, Graph, GridDims, NodeId};
use precipice_runtime::{Exec, Scenario};
use precipice_sim::SimTime;
use precipice_workload::patterns::{blob_of_size, schedule, CrashTiming};

const GOLDEN: [(&str, u64); 5] = [
    ("fig1a_seed0", 0x503e1af1edce1c88),
    ("fig1a_seed1", 0x35707be0a5ddeea1),
    ("fig1b_seed0_delay6ms", 0xf9f8f6cbe6d16e46),
    ("fig2_k3_size2_seed17", 0x781e66bca38f1ec2),
    ("fig3_growth3_delay4ms_seed5", 0x156eb98711807bd8),
];

#[test]
fn figure_scenario_trace_hashes_are_stable() {
    let scenarios = pinned_figure_scenarios();
    assert_eq!(scenarios.len(), GOLDEN.len(), "scenario set changed");
    let mut failures = Vec::new();
    for ((name, scenario), (want_name, want)) in scenarios.into_iter().zip(GOLDEN) {
        assert_eq!(name, want_name, "scenario order changed");
        let got = trace_hash_of(scenario);
        println!("GOLDEN {name}: {got:#018x}");
        if got != want {
            failures.push(format!("{name}: got {got:#018x}, want {want:#018x}"));
        }
    }
    assert!(failures.is_empty(), "trace hashes changed:\n{failures:?}");
}

/// The zero-copy differential: every figure scenario re-run with its
/// topology served from a mapped `.pcsr` file must reproduce the exact
/// golden hash. This is the end-to-end proof that mapped-CSR kernels are
/// bit-identical to the owned build — not just per-query (the graph
/// crate's differential tests) but across a full protocol execution,
/// message schedule and all.
#[test]
fn figure_scenario_hashes_survive_mapped_topology() {
    let dir = std::env::temp_dir().join("precipice-trace-golden");
    std::fs::create_dir_all(&dir).unwrap();
    for ((name, mut scenario), (_, want)) in pinned_figure_scenarios().into_iter().zip(GOLDEN) {
        let file = dir.join(format!("{name}.pcsr"));
        scenario.graph.write_pcsr(&file).unwrap();
        let mapped = Graph::open_pcsr(&file).unwrap();
        // Labels aren't persisted (fig1a is the labeled cities graph),
        // so compare the adjacency itself rather than `==`.
        assert_eq!(mapped.len(), scenario.graph.len(), "{name}");
        for p in scenario.graph.nodes() {
            assert_eq!(
                mapped.neighbors(p),
                scenario.graph.neighbors(p),
                "{name}: adjacency drifted at {p}"
            );
        }
        scenario.graph = Arc::new(mapped);
        let got = trace_hash_of(scenario);
        assert_eq!(
            got, want,
            "{name}: mapped topology changed the trace ({got:#018x} vs {want:#018x})"
        );
    }
}

/// The ROADMAP anchor run: a 64-node blob at node 128 of `torus:16`
/// crashing at 1 ms, faithful protocol, the CLI's simulator settings at
/// seed 0. Pins the byte count as well as the schedule, so a change to
/// how messages are sized or encoded cannot move it unnoticed.
#[test]
fn anchor_run_is_pinned() {
    let graph = torus(GridDims::square(16));
    let region = blob_of_size(&graph, NodeId(128), 64);
    let mut sim = experiment_sim(0, true);
    sim.max_events = Some(100_000_000);
    let scenario = Scenario::builder(graph)
        .name("anchor")
        .crashes(schedule(
            region.iter(),
            CrashTiming::Simultaneous(SimTime::from_millis(1)),
        ))
        .protocol(ProtocolConfig::faithful())
        .sim_config(sim)
        .build();
    let report = scenario.exec(Exec::new()).report;
    assert!(report.outcome.is_quiescent());
    let got = (
        report.trace_hash,
        report.metrics.messages_sent(),
        report.metrics.bytes_sent(),
        report.metrics.events_processed(),
        report.decisions.len(),
    );
    println!("ANCHOR {got:#x?}");
    assert_eq!(got, (0x0fd5e6b5bd2f00e8, 28_704, 12_917_466, 25_221, 26));
}
