//! Figure 6: end-to-end throughput and latency (paper Section 6.2.1).
//!
//! * 6a — event-time latency of a single 1 s tumbling-average query with
//!   10 distinct keys, per system, on a minimal deployment.
//! * 6b — throughput versus the number of concurrent tumbling windows
//!   (lengths spread over 1–10 s).

use desis_baselines::SystemKind;
use desis_core::aggregate::AggFunction;
use desis_core::query::Query;
use desis_core::time::SECOND;
use desis_core::window::WindowSpec;
use desis_gen::spread_tumbling_queries;
use desis_net::prelude::*;

use super::uniform_stream;
use crate::figure::{Figure, Series};
use crate::harness::Harness;

/// The four end-to-end systems of Figure 6.
pub(crate) fn end_to_end_systems() -> Vec<DistributedSystem> {
    vec![
        DistributedSystem::Desis,
        DistributedSystem::Disco,
        DistributedSystem::Centralized(SystemKind::Scotty),
        DistributedSystem::Centralized(SystemKind::CeBuffer),
    ]
}

/// Figure 6a: latency of a single window, per system.
pub fn fig6a(h: &Harness) -> Figure {
    let n = h.scale.events(300_000);
    let mut fig = Figure::new(
        "fig6a",
        "Latency of a single window (tumbling 1 s, average, 10 keys)",
        "system#",
        "latency ms (mean)",
    );
    for (idx, system) in end_to_end_systems().into_iter().enumerate() {
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_time(SECOND).expect("valid"),
            AggFunction::Average,
        )];
        let mut cfg = h.cluster(system, queries, Topology::star(1));
        // Latency is measured at a sustainable paced rate (Section 6.1),
        // not at saturation, so queueing does not dominate.
        cfg.pace_speedup = Some(1.0);
        let feed = uniform_stream(n, 10, 100_000, 42);
        let report = h.run_cluster(cfg, vec![feed]).expect("cluster runs");
        let mut series = Series::new(system.label());
        series.push(idx as f64, report.mean_latency_ms().unwrap_or(0.0));
        fig.series.push(series);
    }
    fig
}

/// Figure 6b: throughput versus number of concurrent windows.
pub fn fig6b(h: &Harness) -> Figure {
    let base = h.scale.events(500_000);
    let mut fig = Figure::new(
        "fig6b",
        "Throughput of concurrent windows (tumbling 1-10 s, average)",
        "windows",
        "events/s",
    );
    let sweep = [1usize, 10, 100, 1_000];
    for system in end_to_end_systems() {
        let mut series = Series::new(system.label());
        for &n_windows in &sweep {
            // Individually-processed windows get shorter runs to bound
            // wall time; throughput is a rate either way.
            let shares = !matches!(
                system,
                DistributedSystem::Centralized(SystemKind::CeBuffer)
                    | DistributedSystem::Centralized(SystemKind::DeBucket)
            );
            let n = super::adaptive_events(base, n_windows, shares);
            let queries = spread_tumbling_queries(n_windows, 10, AggFunction::Average);
            let cfg = h.cluster(system, queries, Topology::star(1));
            let feed = uniform_stream(n, 10, 1_000_000, 42);
            let report = h.run_cluster(cfg, vec![feed]).expect("cluster runs");
            series.push(n_windows as f64, report.throughput());
        }
        fig.series.push(series);
    }
    fig
}
