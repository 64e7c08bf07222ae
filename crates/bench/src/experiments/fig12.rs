//! Figure 12: latency by topology depth in a decentralized setup (paper
//! Section 6.4.2).
//!
//! The paper instruments per-node aggregation latency; its summary finding
//! is that decentralized latency "increases linearly with the number of
//! intermediate layers", while centralized systems only pay at the root.
//! We reproduce that shape by measuring end-to-end event-time latency over
//! chains with 0, 1, and 2 intermediate hops.

use desis_core::aggregate::AggFunction;
use desis_core::query::Query;
use desis_core::time::SECOND;
use desis_core::window::WindowSpec;
use desis_net::prelude::*;

use super::fig6::end_to_end_systems;
use super::uniform_stream;
use crate::figure::{Figure, Series};
use crate::harness::Harness;

fn latency_by_depth(id: &str, title: &str, h: &Harness, function: AggFunction) -> Figure {
    let n = h.scale.events(100_000);
    let mut fig = Figure::new(id, title, "intermediate hops", "latency ms (mean)");
    for system in end_to_end_systems() {
        let mut series = Series::new(system.label());
        for hops in [0usize, 1, 2] {
            let topology = if hops == 0 {
                Topology::star(1)
            } else {
                Topology::chain(hops)
            };
            let queries = vec![Query::new(
                1,
                WindowSpec::tumbling_time(SECOND).expect("valid"),
                function,
            )];
            let mut cfg = h.cluster(system, queries, topology);
            // Paced so several windows complete within the run (latency
            // needs completed windows with recorded time samples).
            cfg.pace_speedup = Some(2.0);
            let feed = uniform_stream(n, 10, 20_000, 42);
            let report = h.run_cluster(cfg, vec![feed]).expect("cluster runs");
            series.push(hops as f64, report.mean_latency_ms().unwrap_or(0.0));
        }
        fig.series.push(series);
    }
    fig
}

/// Figure 12a: latency by topology depth, average function.
pub fn fig12a(h: &Harness) -> Figure {
    latency_by_depth(
        "fig12a",
        "Latency vs intermediate hops (average)",
        h,
        AggFunction::Average,
    )
}

/// Figure 12b: latency by topology depth, median function.
pub fn fig12b(h: &Harness) -> Figure {
    latency_by_depth(
        "fig12b",
        "Latency vs intermediate hops (median)",
        h,
        AggFunction::Median,
    )
}
