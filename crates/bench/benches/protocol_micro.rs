//! Microbenchmarks of the protocol state machine itself: event handling
//! throughput independent of any transport.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use precipice_bench::{set_algebra_case, SET_ALGEBRA_SIZES};
use precipice_core::{
    CliffEdgeNode, Event, Message, NodeIdValuePolicy, Opinion, OpinionVector, ProtocolConfig,
};
use precipice_graph::{
    connected_components, rank_cmp, rank_cmp_keyed, reference, star, torus, Graph, GridDims,
    NodeId, Region,
};

type Node = CliffEdgeNode<Arc<Graph>, NodeIdValuePolicy>;

/// A leaf node of a star that has just proposed the hub's crash; the
/// benchmark feeds it the other leaves' round-1 accepts.
fn proposed_star_node(leaves: usize) -> (Node, Vec<(NodeId, Message<NodeId>)>) {
    let g = Arc::new(star(leaves + 1));
    let mut node = Node::new(
        NodeId(1),
        g.clone(),
        NodeIdValuePolicy,
        ProtocolConfig::default(),
    );
    node.handle(Event::Init);
    node.handle(Event::Crash(NodeId(0)));
    let view: Region = [NodeId(0)].into_iter().collect();
    let border: Region = (1..=leaves as u32).map(NodeId).collect();
    let deliveries: Vec<(NodeId, Message<NodeId>)> = (2..=leaves as u32)
        .map(|i| {
            let mut op = OpinionVector::new(&border);
            op.insert(&border, NodeId(i), Opinion::Accept(NodeId(i)));
            (
                NodeId(i),
                Message {
                    round: 1,
                    view: view.clone(),
                    border: border.clone(),
                    opinions: Arc::new(op),
                },
            )
        })
        .collect();
    (node, deliveries)
}

fn bench_deliver(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_micro");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for leaves in [8usize, 32, 128] {
        group.bench_function(format!("deliver_round1_border{leaves}"), |b| {
            b.iter_batched(
                || proposed_star_node(leaves),
                |(mut node, deliveries)| {
                    for (from, message) in deliveries {
                        node.handle(Event::Deliver { from, message });
                    }
                    node
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_crash_event(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_micro");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    // Crash handling includes transitive monitoring and the
    // connected-components recomputation of view construction.
    let g = Arc::new(torus(GridDims::square(32)));
    let crashes: Vec<NodeId> = (0..16u32).map(|i| NodeId(512 + i)).collect();
    group.bench_function("crash_cascade_16_view_construction", |b| {
        b.iter_batched(
            || {
                let mut node = Node::new(
                    NodeId(480),
                    g.clone(),
                    NodeIdValuePolicy,
                    ProtocolConfig::default(),
                );
                node.handle(Event::Init);
                node
            },
            |mut node| {
                for &q in &crashes {
                    node.handle(Event::Crash(q));
                }
                node
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_ranking(c: &mut Criterion) {
    let g = torus(GridDims::square(32));
    let a: Region = (0..64u32).map(NodeId).collect();
    let b_region: Region = (32..96u32).map(NodeId).collect();
    c.bench_function("protocol_micro/rank_cmp_64node_regions", |bench| {
        bench.iter(|| std::hint::black_box(rank_cmp(&g, &a, &b_region)))
    });
}

/// The graph-layer set algebra that every crash, ranking, and view
/// construction funnels through: bitset path vs the retained `BTreeSet`
/// reference implementations, across system sizes.
fn bench_set_algebra(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_algebra");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1));
    for n in SET_ALGEBRA_SIZES {
        let (g, region, other) = set_algebra_case(n);
        let set: std::collections::BTreeSet<NodeId> = region.iter().collect();

        group.bench_function(format!("border_of/bitset/n{n}"), |b| {
            b.iter(|| std::hint::black_box(g.border_of(region.iter())))
        });
        group.bench_function(format!("border_of/reference/n{n}"), |b| {
            b.iter(|| std::hint::black_box(reference::border_of(&g, region.iter())))
        });
        group.bench_function(format!("connected_components/bitset/n{n}"), |b| {
            b.iter(|| std::hint::black_box(connected_components(&g, &set)))
        });
        group.bench_function(format!("connected_components/reference/n{n}"), |b| {
            b.iter(|| std::hint::black_box(reference::connected_components(&g, &set)))
        });
        // Ranking with the border memo warm (the steady-state protocol
        // path) vs recomputing both borders from scratch.
        group.bench_function(format!("rank_cmp/cached/n{n}"), |b| {
            b.iter(|| std::hint::black_box(rank_cmp(&g, &region, &other)))
        });
        group.bench_function(format!("rank_cmp/uncached/n{n}"), |b| {
            b.iter(|| {
                let ka = reference::border_of(&g, region.iter()).len();
                let kb = reference::border_of(&g, other.iter()).len();
                std::hint::black_box(rank_cmp_keyed(&region, ka, &other, kb))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_deliver,
    bench_crash_event,
    bench_ranking,
    bench_set_algebra
);
criterion_main!(benches);
