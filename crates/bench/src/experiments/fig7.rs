//! Figure 7: scalability (paper Section 6.2.2).
//!
//! * 7a/7b — cluster throughput versus the number of local nodes, for a
//!   decomposable (average) and a non-decomposable (median) function.
//! * 7c/7d — per-node-type processing rates versus the number of child
//!   nodes (merge rates of intermediate/root, slicing rate of locals).
//! * 7e — per-node-type rate versus the number of distinct key selections.
//! * 7f — per-node-type rate versus the number of concurrent windows on
//!   the same key.

use std::time::Instant;

use desis_core::aggregate::AggFunction;
use desis_core::engine::{GroupSlicer, QueryAnalyzer, SealedSlice};
use desis_core::event::Event;
use desis_core::predicate::Predicate;
use desis_core::query::Query;
use desis_core::time::SECOND;
use desis_core::window::WindowSpec;
use desis_gen::spread_tumbling_queries;
use desis_net::merge::{AlignedSliceMerger, TimeAssembler};
use desis_net::prelude::*;

use super::uniform_stream;
use crate::figure::{Figure, Series};
use crate::harness::Harness;

fn scalability(h: &Harness, id: &str, function: AggFunction) -> Figure {
    let per_local = h.scale.events(150_000);
    let mut fig = Figure::new(
        id,
        format!("Scalability with local nodes ({function})"),
        "local nodes",
        "events/s",
    );
    let systems = super::fig6::end_to_end_systems();
    for system in systems {
        let mut series = Series::new(system.label());
        for locals in [1usize, 2, 4, 8] {
            let queries = vec![Query::new(
                1,
                WindowSpec::tumbling_time(SECOND).expect("valid"),
                function,
            )];
            let topo = Topology::three_tier(1, locals);
            let cfg = h.cluster(system, queries, topo);
            let feeds = (0..locals)
                .map(|i| uniform_stream(per_local, 10, 500_000, 42 + i as u64))
                .collect();
            let report = h.run_cluster(cfg, feeds).expect("cluster runs");
            series.push(locals as f64, report.throughput());
        }
        fig.series.push(series);
    }
    fig
}

/// Figure 7a: throughput versus #locals, average function.
pub fn fig7a(h: &Harness) -> Figure {
    scalability(h, "fig7a", AggFunction::Average)
}

/// Figure 7b: throughput versus #locals, median function.
pub fn fig7b(h: &Harness) -> Figure {
    scalability(h, "fig7b", AggFunction::Median)
}

/// Builds `children` per-child slice partial streams for a query and
/// measures the rate at which a merger + assembler (the root/intermediate
/// work) consumes them, in *source events per second* (each partial
/// summarizes `events_per_slice` events).
fn merge_rate(
    function: AggFunction,
    children: usize,
    slices: u64,
    events_per_slice: u64,
    keys: u32,
) -> f64 {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(SECOND).expect("valid"),
        function,
    )];
    let groups = QueryAnalyzer::new(
        desis_core::engine::SharingPolicy::Full,
        desis_core::engine::Deployment::Centralized,
    )
    .analyze(queries)
    .expect("valid");
    let group = groups.into_iter().next().expect("one group");
    // Pre-build each child's partials.
    let mut per_child: Vec<Vec<SealedSlice>> = Vec::with_capacity(children);
    for c in 0..children {
        let mut slicer = GroupSlicer::new(group.clone());
        let mut out = Vec::new();
        for s in 0..slices {
            for e in 0..events_per_slice {
                let ts = s * SECOND + e * SECOND / events_per_slice;
                slicer.on_event(
                    &Event::new(ts, (e % u64::from(keys)) as u32, (c + 1) as f64),
                    &mut out,
                );
            }
        }
        slicer.on_watermark(slices * SECOND, &mut out);
        per_child.push(out);
    }
    let mut merger = AlignedSliceMerger::new(children as u32);
    let mut assembler = TimeAssembler::new(&group);
    let mut results = Vec::new();
    let mut merged = Vec::new();
    let start = Instant::now();
    // Deliver round-robin, as the select loop does.
    let max_len = per_child.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..max_len {
        for child in &mut per_child {
            if i < child.len() {
                merger.on_slice(std::mem::replace(&mut child[i], empty_slice()), 1);
            }
        }
        merger.drain_ready(&mut merged);
        for m in merged.drain(..) {
            assembler.on_slice(m, &mut results);
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    (children as u64 * slices * events_per_slice) as f64 / elapsed
}

fn empty_slice() -> SealedSlice {
    SealedSlice {
        id: 0,
        start_ts: 0,
        end_ts: 0,
        data: desis_core::engine::SliceData::new(0),
        ends: vec![],
        session_gaps: vec![],
        low_watermark: 0,
        low_watermark_ts: 0,
        trace: None,
    }
}

/// Local slicing rate (events/s) for the given query set.
fn local_rate(queries: Vec<Query>, events: &[Event]) -> f64 {
    let groups = QueryAnalyzer::default().analyze(queries).expect("valid");
    let mut slicers: Vec<GroupSlicer> = groups.into_iter().map(GroupSlicer::new).collect();
    let mut out = Vec::new();
    let start = Instant::now();
    for ev in events {
        for slicer in &mut slicers {
            slicer.on_event(ev, &mut out);
            out.clear();
        }
    }
    events.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Figure 7c: per-node-type throughput versus #child nodes (average).
pub fn fig7c(h: &Harness) -> Figure {
    let scale = h.scale;
    let slices = scale.events(50);
    let mut fig = Figure::new(
        "fig7c",
        "Per-node throughput vs child nodes (average)",
        "child nodes",
        "source events/s",
    );
    let mut root = Series::new("root/intermediate merge");
    let mut local = Series::new("local slicing");
    for children in [2usize, 4, 8, 16] {
        root.push(
            children as f64,
            merge_rate(AggFunction::Average, children, slices, 10_000, 10),
        );
        let events = uniform_stream(scale.events(200_000), 10, 500_000, 7);
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_time(SECOND).expect("valid"),
            AggFunction::Average,
        )];
        local.push(children as f64, local_rate(queries, &events));
    }
    fig.series.push(root);
    fig.series.push(local);
    fig
}

/// Figure 7d: root throughput versus #child nodes (median).
pub fn fig7d(h: &Harness) -> Figure {
    let slices = h.scale.events(20);
    let mut fig = Figure::new(
        "fig7d",
        "Root throughput vs child nodes (median)",
        "child nodes",
        "source events/s",
    );
    let mut root = Series::new("root merge+sort");
    for children in [2usize, 4, 8, 16] {
        root.push(
            children as f64,
            merge_rate(AggFunction::Median, children, slices, 5_000, 10),
        );
    }
    fig.series.push(root);
    fig
}

/// Figure 7e: per-node throughput versus #distinct key selections.
pub fn fig7e(h: &Harness) -> Figure {
    let scale = h.scale;
    let n = scale.events(200_000);
    let mut fig = Figure::new(
        "fig7e",
        "Per-node throughput vs distinct keys (single query shape)",
        "keys",
        "events/s",
    );
    let mut local = Series::new("local slicing");
    let mut root = Series::new("root/intermediate merge");
    for keys in [1u32, 4, 16, 64] {
        // One key-filtered query per distinct key: every event passes
        // `keys` selection operators on the local node (Section 6.2.2).
        let queries: Vec<Query> = (0..keys)
            .map(|k| {
                Query::new(
                    u64::from(k) + 1,
                    WindowSpec::tumbling_time(SECOND).expect("valid"),
                    AggFunction::Average,
                )
                .filtered(Predicate::KeyEquals(k))
            })
            .collect();
        let events = uniform_stream(n, keys, 500_000, 7);
        local.push(f64::from(keys), local_rate(queries, &events));
        // The merge path combines one partial entry per key — per source
        // event it stays cheap even as keys grow.
        root.push(
            f64::from(keys),
            merge_rate(AggFunction::Average, 4, scale.events(50), 10_000, keys),
        );
    }
    fig.series.push(local);
    fig.series.push(root);
    fig
}

/// Figure 7f: per-node throughput versus #concurrent windows (same key).
pub fn fig7f(h: &Harness) -> Figure {
    let n = h.scale.events(200_000);
    let mut fig = Figure::new(
        "fig7f",
        "Per-node throughput vs concurrent windows (same key)",
        "windows",
        "events/s",
    );
    let mut local = Series::new("local slicing");
    for windows in [1usize, 10, 100, 1_000] {
        let queries = spread_tumbling_queries(windows, 10, AggFunction::Average);
        let events = uniform_stream(n, 1, 500_000, 7);
        local.push(windows as f64, local_rate(queries, &events));
    }
    fig.series.push(local);
    fig
}
