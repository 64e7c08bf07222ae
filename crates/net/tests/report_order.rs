//! The cluster report leaves in the canonical `(query, window end, key,
//! window start)` order by construction: the root files every result into
//! its query's run as it drains, and the report concatenates the runs. The
//! order holds for every distributed system and tree shape, over every
//! window class, and across a scripted add and removal — whatever order the children's frames happen to arrive
//! in, which is why CI also runs this file with `--release`.
//!
//! Latency is booked once per window and message, but still counts one
//! sample per result: the histogram and `latencies_ms` agree.

use desis_baselines::SystemKind;
use desis_core::aggregate::AggFunction;
use desis_core::event::{Event, Marker, MarkerKind};
use desis_core::obs::names;
use desis_core::query::{sort_results, Query, QueryResult};
use desis_core::window::WindowSpec;
use desis_net::cluster::ClusterReport;
use desis_net::prelude::*;

/// Marker channel of the user-defined window.
const UD_CHANNEL: u32 = 5;

/// A session, a count, a user-defined, a sort-based sliding and a
/// tumbling window.
fn queries() -> Vec<Query> {
    vec![
        Query::new(1, WindowSpec::session(300).unwrap(), AggFunction::Max),
        Query::new(
            2,
            WindowSpec::tumbling_count(250).unwrap(),
            AggFunction::Sum,
        ),
        Query::new(
            3,
            WindowSpec::user_defined(UD_CHANNEL),
            AggFunction::Average,
        ),
        Query::new(
            4,
            WindowSpec::sliding_time(1_000, 250).unwrap(),
            AggFunction::Median,
        ),
        Query::new(
            5,
            WindowSpec::tumbling_time(500).unwrap(),
            AggFunction::Count,
        ),
    ]
}

/// Removes the sliding median (draining) at 2 s and installs a sliding
/// sum at 3 s.
fn script() -> Vec<(u64, ClusterCommand)> {
    let added = Query::new(
        6,
        WindowSpec::sliding_time(600, 200).unwrap(),
        AggFunction::Sum,
    );
    vec![
        (
            2_000,
            ClusterCommand::RemoveQuery {
                id: 4,
                immediate: false,
            },
        ),
        (3_000, ClusterCommand::AddQuery(added)),
    ]
}

/// Local `local`'s stream: three events per millisecond in bursts of
/// 700 ms with 500 ms gaps (sessions close), a user-defined window
/// opened and closed inside every burst.
fn feed(local: u64) -> Vec<Event> {
    let mut events = Vec::new();
    for i in 0..9_000u64 {
        let burst = i / 2_100;
        let ts = burst * 1_200 + (i % 2_100) / 3;
        let key = ((i * 7 + local) % 11) as u32;
        let value = ((i * 13 + local * 5) % 97) as f64;
        let kind = match i % 2_100 {
            300 => Some(MarkerKind::Start),
            1_500 => Some(MarkerKind::End),
            _ => None,
        };
        events.push(match kind {
            Some(kind) => Event::with_marker(
                ts,
                key,
                value,
                Marker {
                    channel: UD_CHANNEL,
                    kind,
                },
            ),
            None => Event::new(ts, key, value),
        });
    }
    events
}

fn run(system: DistributedSystem, topology: &Topology, scripted: bool) -> ClusterReport {
    let mut cfg = ClusterConfig::new(system, queries(), topology.clone());
    // Small batches: many messages, so a query's results reach the root
    // split over many drains.
    cfg.batch_size = 64;
    if scripted {
        cfg.script = script();
    }
    let feeds = (0..2).map(feed).collect();
    run_cluster(cfg, feeds).expect("cluster run completes")
}

fn assert_canonical(results: &[QueryResult], context: &str) {
    assert!(!results.is_empty(), "{context}");
    for pair in results.windows(2) {
        assert!(
            pair[0].emit_order() < pair[1].emit_order(),
            "{context}: {:?} then {:?}",
            pair[0],
            pair[1]
        );
    }
    let mut sorted = results.to_vec();
    sort_results(&mut sorted);
    assert_eq!(sorted, results, "{context}");
}

#[test]
fn every_system_reports_results_in_canonical_order() {
    let centralized = SystemKind::ALL.map(DistributedSystem::Centralized);
    let systems = [DistributedSystem::Desis, DistributedSystem::Disco]
        .into_iter()
        .chain(centralized);
    for system in systems {
        for topology in [Topology::star(2), Topology::three_tier(1, 2)] {
            // Runtime scripts are a Desis feature.
            let scripted = system == DistributedSystem::Desis;
            let report = run(system, &topology, scripted);
            let context = format!("{} on {} nodes", system.label(), topology.len());
            assert_canonical(&report.results, &context);
            for q in queries() {
                let emitted = report.results.iter().any(|r| r.query == q.id);
                assert!(emitted, "{context}: query {} emits", q.id);
            }
            if scripted {
                let added = report.results.iter().filter(|r| r.query == 6);
                let first = added.map(|r| r.window_end).min();
                assert!(first.is_some_and(|end| end > 3_000), "{context}: {first:?}");
                let removed = report.results.iter().filter(|r| r.query == 4);
                assert!(removed.clone().all(|r| r.window_start < 2_000), "{context}");
            }
        }
    }
}

#[test]
fn the_latency_histogram_counts_every_latency_sample() {
    for system in [
        DistributedSystem::Desis,
        DistributedSystem::Centralized(SystemKind::Scotty),
    ] {
        let report = run(system, &Topology::star(2), false);
        let histogram = &report.metrics.histograms[names::CLUSTER_RESULT_LATENCY_US];
        assert!(!report.latencies_ms.is_empty(), "{}", system.label());
        assert!(report.latencies_ms.len() <= report.results.len());
        assert_eq!(
            histogram.count,
            report.latencies_ms.len() as u64,
            "{}",
            system.label()
        );
        let max_us = report.latencies_ms.iter().fold(0.0f64, |m, ms| m.max(*ms)) * 1e3;
        assert!(histogram.max as f64 <= max_us.ceil(), "{}", system.label());
    }
}
