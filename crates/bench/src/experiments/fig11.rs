//! Figure 11: network overhead in a decentralized setup (paper Section
//! 6.4.1).
//!
//! A 3-node cluster (local → intermediate → root). The paper sends 100M
//! events and reports bytes by node type; we scale the stream down and
//! report the same breakdown.

use desis_core::aggregate::AggFunction;
use desis_core::query::Query;
use desis_core::time::SECOND;
use desis_core::window::WindowSpec;
use desis_gen::spread_tumbling_queries;
use desis_net::prelude::*;

use super::fig6::end_to_end_systems;
use super::uniform_stream;
use crate::figure::{Figure, Series};
use crate::harness::Harness;

fn bytes_by_role(
    h: &Harness,
    system: DistributedSystem,
    queries: Vec<Query>,
    events: u64,
    keys: u32,
) -> (u64, u64) {
    let cfg = h.cluster(system, queries, Topology::three_tier(1, 1));
    let feed = uniform_stream(events, keys, 1_000_000, 42);
    let report = h.run_cluster(cfg, vec![feed]).expect("cluster runs");
    (
        report.bytes_for_role(NodeRole::Local),
        report.bytes_for_role(NodeRole::Intermediate),
    )
}

fn single_query_fig(id: &str, title: &str, h: &Harness, function: AggFunction) -> Figure {
    let n = h.scale.events(1_000_000);
    let mut fig = Figure::new(id, title, "node type (0=local, 1=intermediate)", "bytes");
    for system in end_to_end_systems() {
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_time(SECOND).expect("valid"),
            function,
        )];
        let (local, inter) = bytes_by_role(h, system, queries, n, 10);
        let mut series = Series::new(system.label());
        series.push(0.0, local as f64);
        series.push(1.0, inter as f64);
        fig.series.push(series);
    }
    fig
}

/// Figure 11a: network overhead by node, single average query.
pub fn fig11a(h: &Harness) -> Figure {
    single_query_fig(
        "fig11a",
        "Network bytes by node (single query, average)",
        h,
        AggFunction::Average,
    )
}

/// Figure 11b: network overhead by node, single median query.
pub fn fig11b(h: &Harness) -> Figure {
    single_query_fig(
        "fig11b",
        "Network bytes by node (single query, median)",
        h,
        AggFunction::Median,
    )
}

/// Figure 11c: total network overhead versus distinct keys.
pub fn fig11c(h: &Harness) -> Figure {
    let n = h.scale.events(500_000);
    let mut fig = Figure::new(
        "fig11c",
        "Total network bytes vs distinct keys (single query, average)",
        "keys",
        "bytes",
    );
    for system in end_to_end_systems() {
        let centralized = matches!(system, DistributedSystem::Centralized(_));
        let mut series = Series::new(system.label());
        let mut cached: Option<f64> = None;
        for keys in [1u32, 10, 100, 1_000] {
            // Centralized systems ship every event regardless of the
            // workload; measure once and reuse.
            let total = match (centralized, cached) {
                (true, Some(total)) => total,
                _ => {
                    let queries = vec![Query::new(
                        1,
                        WindowSpec::tumbling_time(SECOND).expect("valid"),
                        AggFunction::Average,
                    )];
                    let (local, inter) = bytes_by_role(h, system, queries, n, keys);
                    let total = (local + inter) as f64;
                    cached = Some(total);
                    total
                }
            };
            series.push(f64::from(keys), total);
        }
        fig.series.push(series);
    }
    fig
}

/// Figure 11d: total network overhead versus concurrent windows (1 key).
pub fn fig11d(h: &Harness) -> Figure {
    let n = h.scale.events(500_000);
    let mut fig = Figure::new(
        "fig11d",
        "Total network bytes vs concurrent windows (single key)",
        "windows",
        "bytes",
    );
    for system in end_to_end_systems() {
        let centralized = matches!(system, DistributedSystem::Centralized(_));
        let mut series = Series::new(system.label());
        let mut cached: Option<f64> = None;
        for windows in [1usize, 10, 100, 1_000] {
            let total = match (centralized, cached) {
                (true, Some(total)) => total,
                _ => {
                    let queries = spread_tumbling_queries(windows, 10, AggFunction::Average);
                    let (local, inter) = bytes_by_role(h, system, queries, n, 1);
                    let total = (local + inter) as f64;
                    cached = Some(total);
                    total
                }
            };
            series.push(windows as f64, total);
        }
        fig.series.push(series);
    }
    fig
}
