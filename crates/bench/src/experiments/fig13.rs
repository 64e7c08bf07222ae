//! Figure 13: real-world-style workloads (paper Section 6.5).
//!
//! * 13a — throughput with randomly generated queries (mixed window
//!   types, measures, lengths, keys, decomposable functions) as the query
//!   count grows.
//! * 13b/13c/13d — a bandwidth-constrained cluster standing in for the
//!   paper's Raspberry Pi / 1G Ethernet setup: throughput scaling, bytes
//!   per second, and latency under a capped link.

use desis_baselines::SystemKind;
use desis_core::aggregate::AggFunction;
use desis_core::query::Query;
use desis_core::time::SECOND;
use desis_core::window::WindowSpec;
use desis_gen::{QueryGenConfig, QueryGenerator, WindowTypeWeights};
use desis_net::prelude::*;

use super::fig8::optimization_systems;
use super::{adaptive_events, uniform_stream};
use crate::figure::{Figure, Series};
use crate::harness::Harness;
use crate::measure::measure_throughput;

/// The random decomposable-query workload of Section 6.5.1.
fn random_queries(n: usize) -> Vec<Query> {
    QueryGenerator::new(QueryGenConfig {
        queries: n,
        window_types: WindowTypeWeights::mixed(),
        length_range: (SECOND, 10 * SECOND),
        count_length_range: (10_000, 100_000),
        functions: vec![
            AggFunction::Average,
            AggFunction::Sum,
            AggFunction::Count,
            AggFunction::Min,
            AggFunction::Max,
        ],
        functions_per_query: 1,
        predicate_keys: 10,
        first_id: 1,
        seed: 99,
    })
    .generate()
}

/// Figure 13a: throughput versus number of random queries.
pub fn fig13a(h: &Harness) -> Figure {
    let base = h.scale.events(500_000);
    let mut fig = Figure::new(
        "fig13a",
        "Throughput with random real-world-style queries",
        "queries",
        "events/s",
    );
    let sweep = h.scale.query_sweep();
    for system in optimization_systems() {
        let shares = matches!(system, SystemKind::Desis | SystemKind::DeSw);
        let mut series = Series::new(system.label());
        for &n_queries in &sweep {
            // Even sharing systems materialize per-query results, so very
            // large query counts get shorter runs.
            let n = adaptive_events(base, n_queries, shares)
                .min(base * 100 / (n_queries as u64).max(1))
                .max(10_000);
            let events = uniform_stream(n, 10, 1_000_000, 42);
            let final_wm = events.last().map_or(0, |e| e.ts) + 11 * SECOND;
            let run = measure_throughput(
                &h.registry,
                system,
                random_queries(n_queries),
                &events,
                final_wm,
            );
            series.push(n_queries as f64, run.throughput);
        }
        fig.series.push(series);
    }
    fig
}

/// The "Raspberry Pi" cluster: bandwidth-capped links. The paper's 1G
/// Ethernet saturates at ~3.2M events/s; we cap links so the centralized
/// baseline saturates well below a local node's processing rate.
const PI_BANDWIDTH: u64 = 4_000_000; // bytes/second per link

fn pi_systems() -> Vec<DistributedSystem> {
    vec![
        DistributedSystem::Desis,
        DistributedSystem::Disco,
        DistributedSystem::Centralized(SystemKind::Scotty),
        DistributedSystem::Centralized(SystemKind::CeBuffer),
    ]
}

fn pi_config(
    h: &Harness,
    system: DistributedSystem,
    queries: Vec<Query>,
    locals: usize,
) -> ClusterConfig {
    let mut cfg = h.cluster(system, queries, Topology::three_tier(1, locals));
    cfg.bandwidth = Some(PI_BANDWIDTH);
    cfg
}

fn pi_queries() -> Vec<Query> {
    vec![Query::new(
        1,
        WindowSpec::tumbling_time(SECOND).expect("valid"),
        AggFunction::Average,
    )]
}

/// Figure 13b: throughput versus Raspberry Pi nodes (bandwidth-capped).
pub fn fig13b(h: &Harness) -> Figure {
    let per_local = h.scale.events(400_000);
    let mut fig = Figure::new(
        "fig13b",
        "Throughput on the bandwidth-capped (Pi) cluster",
        "local nodes",
        "events/s",
    );
    for system in pi_systems() {
        let mut series = Series::new(system.label());
        for locals in [1usize, 2, 4] {
            let cfg = pi_config(h, system, pi_queries(), locals);
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

/// Figure 13c: bytes per second on the capped cluster.
pub fn fig13c(h: &Harness) -> Figure {
    let per_local = h.scale.events(400_000);
    let mut fig = Figure::new(
        "fig13c",
        "Network bytes/s on the bandwidth-capped (Pi) cluster",
        "system#",
        "bytes/s",
    );
    for (idx, system) in pi_systems().into_iter().enumerate() {
        let cfg = pi_config(h, system, pi_queries(), 2);
        let feeds = (0..2)
            .map(|i| uniform_stream(per_local, 10, 500_000, 42 + i as u64))
            .collect();
        let report = h.run_cluster(cfg, feeds).expect("cluster runs");
        let rate = report.total_bytes() as f64 / report.wall.as_secs_f64().max(1e-9);
        let mut series = Series::new(system.label());
        series.push(idx as f64, rate);
        fig.series.push(series);
    }
    fig
}

/// Figure 13d: latency on the capped cluster.
pub fn fig13d(h: &Harness) -> Figure {
    let per_local = h.scale.events(100_000);
    let mut fig = Figure::new(
        "fig13d",
        "Latency on the bandwidth-capped (Pi) cluster",
        "system#",
        "latency ms (mean)",
    );
    for (idx, system) in pi_systems().into_iter().enumerate() {
        let mut cfg = pi_config(h, system, pi_queries(), 2);
        cfg.pace_speedup = Some(2.0);
        let feeds = (0..2)
            .map(|i| uniform_stream(per_local, 10, 25_000, 42 + i as u64))
            .collect();
        let report = h.run_cluster(cfg, feeds).expect("cluster runs");
        let mut series = Series::new(system.label());
        series.push(idx as f64, report.mean_latency_ms().unwrap_or(0.0));
        fig.series.push(series);
    }
    fig
}
