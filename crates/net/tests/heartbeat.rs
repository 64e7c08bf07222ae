//! Progress without data: a paced local is a live source, and a live
//! source says "time has passed" through the idle gaps of its stream —
//! at every pending punctuation of its own slicers and at every point of
//! the `watermark_every` grid — so results leave when they are due, not
//! when the stream resumes (DESIGN.md §2.2).
//!
//! The contract under test:
//!
//! * a paced run computes what the unpaced run computes;
//! * what it sends is a function of the feed and `watermark_every` alone —
//!   neither the speed-up nor how late the feeder runs changes a frame,
//!   and the heartbeats are exactly the instants the feed's gaps contain;
//! * a result that falls due inside a gap leaves then, and an idle child
//!   does not hold its siblings' results back.

use desis_core::aggregate::AggFunction;
use desis_core::event::{Event, Marker, MarkerKind};
use desis_core::obs::names;
use desis_core::query::Query;
use desis_core::time::Timestamp;
use desis_core::window::WindowSpec;
use desis_net::cluster::ClusterReport;
use desis_net::prelude::*;

const BURSTS: u64 = 4;
const BURST_MS: u64 = 300;
const GAP_MS: u64 = 5_000;
const SESSION_GAP_MS: u64 = 2_000;
/// The tumbling window every local slices; the default watermark grid
/// (1 s) is a multiple of it.
const TUMBLING_MS: u64 = 250;

/// One query of every window class, the shape of the benchmark's
/// `mixed_unfixed`. Locals slice the session, tumbling and user-defined
/// windows; the sort-based sliding window and the count window share a
/// group only the root can slice, so their events are shipped raw and
/// their progress rides the grid.
fn queries() -> Vec<Query> {
    vec![
        Query::new(
            1,
            WindowSpec::session(SESSION_GAP_MS).unwrap(),
            AggFunction::Max,
        ),
        Query::new(
            2,
            WindowSpec::tumbling_time(TUMBLING_MS).unwrap(),
            AggFunction::Sum,
        ),
        Query::new(
            3,
            WindowSpec::sliding_time(2_000, 500).unwrap(),
            AggFunction::Median,
        ),
        Query::new(4, WindowSpec::user_defined(5), AggFunction::Average),
        Query::new(
            5,
            WindowSpec::tumbling_count(500).unwrap(),
            AggFunction::Sum,
        ),
    ]
}

/// Local `local`'s stream: bursts of two events per millisecond, 5 s of
/// silence between them, a user-defined window inside every burst. Every
/// local uses the same milliseconds (and the same marker instants).
fn gapped_feed(local: u64) -> Vec<Event> {
    let mut events = Vec::new();
    for burst in 0..BURSTS {
        let start = burst * (BURST_MS + GAP_MS);
        for i in 0..BURST_MS * 2 {
            let ts = start + i / 2;
            let key = ((i + local) % 4) as u32;
            let value = ((i * 7 + local * 3) % 101) as f64;
            let kind = match i {
                100 => Some(MarkerKind::Start),
                500 => Some(MarkerKind::End),
                _ => None,
            };
            events.push(match kind {
                Some(kind) => Event::with_marker(ts, key, value, Marker { channel: 5, kind }),
                None => Event::new(ts, key, value),
            });
        }
    }
    events
}

/// The instants a heartbeat is due at on `feed`, worked out from the
/// query set by hand: inside every gap `(a, b)` between two consecutive
/// events, the tumbling boundaries (grid points among them) and the end
/// of the session that `a` extended.
fn expected_heartbeats(feed: &[Event]) -> u64 {
    let due = |a: Timestamp, t: Timestamp| t.is_multiple_of(TUMBLING_MS) || t == a + SESSION_GAP_MS;
    feed.windows(2)
        .map(|pair| (pair[0].ts, pair[1].ts))
        .map(|(a, b)| (a + 1..b).filter(|t| due(a, *t)).count() as u64)
        .sum()
}

fn run(topology: &Topology, feeds: &[Vec<Event>], pace_speedup: Option<f64>) -> ClusterReport {
    let mut cfg = ClusterConfig::new(DistributedSystem::Desis, queries(), topology.clone());
    cfg.pace_speedup = pace_speedup;
    // Batch boundaries inside a millisecond.
    cfg.batch_size = 37;
    run_cluster(cfg, feeds.to_vec()).expect("cluster run completes")
}

/// `(frames, bytes)` every uplink carried, by node.
fn traffic(report: &ClusterReport) -> Vec<(NodeId, u64, u64)> {
    report
        .bytes_by_node
        .iter()
        .map(|(node, bytes)| {
            let frames = report.metrics.counters[&names::egress_msgs(*node)];
            (*node, frames, *bytes)
        })
        .collect()
}

#[test]
fn paced_runs_agree_with_the_unpaced_run_and_with_each_other_frame_for_frame() {
    let cases = [
        (Topology::three_tier(1, 1), vec![gapped_feed(0)]),
        (Topology::star(2), vec![gapped_feed(0), gapped_feed(1)]),
    ];
    for (topology, feeds) in cases {
        let unpaced = run(&topology, &feeds, None);
        // ×2 000 outruns the feeder: every heartbeat is late, none is
        // skipped.
        let slow = run(&topology, &feeds, Some(200.0));
        let fast = run(&topology, &feeds, Some(2_000.0));
        assert!(!unpaced.results.is_empty());
        for q in queries() {
            let emitted = unpaced.results.iter().any(|r| r.query == q.id);
            assert!(emitted, "query {} emits", q.id);
        }
        assert_eq!(slow.results, unpaced.results);
        assert_eq!(fast.results, unpaced.results);
        assert_eq!(traffic(&slow), traffic(&fast));

        let locals = topology.nodes_with_role(NodeRole::Local);
        let mut total = 0;
        for (node, feed) in locals.iter().zip(&feeds) {
            let expected = expected_heartbeats(feed);
            assert!(expected > 30, "the feed has gaps to cross");
            for paced in [&slow, &fast] {
                let counted = paced.metrics.counters[&names::heartbeats(*node)];
                assert_eq!(counted, expected, "local {node}");
            }
            total += expected;
        }
        assert_eq!(slow.metrics.counters[names::CLUSTER_HEARTBEATS], total);
        // No wall clock, no heartbeat: the saturated path is untouched.
        assert_eq!(unpaced.metrics.counters[names::CLUSTER_HEARTBEATS], 0);
        let watermarks = |r: &ClusterReport| r.metrics.counters["net.root.msgs.watermark"];
        assert!(watermarks(&slow) > watermarks(&unpaced));
    }
}

#[test]
fn results_due_inside_a_gap_leave_when_they_are_due() {
    // A 5 s gap is 200 ms of wall time. Nearly every window of the feed
    // ends inside one; without heartbeats they wait the gap out (the
    // parent commit: p50 ≈ two thirds of the gap). The bound is a share
    // of the gap, not a number of milliseconds: with heartbeats the
    // median is under 1 ms on an idle machine, and a loaded one has the
    // rest to be slow in.
    const GAP_WALL_MS: f64 = 200.0;
    let report = run(
        &Topology::three_tier(1, 1),
        &[gapped_feed(0)],
        Some(GAP_MS as f64 / GAP_WALL_MS),
    );
    assert!(
        report.latencies_ms.len() > 100,
        "{}",
        report.latencies_ms.len()
    );
    let p50 = report.latency_percentile_ms(0.5).unwrap();
    assert!(
        p50 < GAP_WALL_MS / 4.0,
        "p50 result latency {p50:.1} ms, a gap is {GAP_WALL_MS} ms"
    );
}

#[test]
fn an_idle_sibling_does_not_hold_results_back() {
    // Local 1 is dense for 10 s; local 2 falls silent from 1 s to 6 s.
    // One grid step (1 s of event time) is 100 ms of wall time, the
    // silence 500 ms.
    const SPEEDUP: f64 = 10.0;
    let dense: Vec<Event> = (0..5_000u64)
        .map(|i| Event::new(i * 2, (i % 3) as u32, (i % 11) as f64))
        .collect();
    let idle: Vec<Event> = dense
        .iter()
        .filter(|ev| !(1_000..6_000).contains(&ev.ts))
        .copied()
        .collect();
    let tumbling = Query::new(1, WindowSpec::tumbling_time(500).unwrap(), AggFunction::Sum);
    let mut cfg = ClusterConfig::new(DistributedSystem::Desis, vec![tumbling], Topology::star(2));
    cfg.pace_speedup = Some(SPEEDUP);
    let grid_step_ms = cfg.watermark_every as f64 / SPEEDUP;
    let report = run_cluster(cfg, vec![dense, idle]).unwrap();
    // 20 windows × 3 keys, the last one flushed ahead of its time.
    assert!(report.latencies_ms.len() >= 50);
    // Half of the windows end inside the silence; at the parent commit
    // they wait for local 2 to resume (p90 ≈ four grid steps). The idle
    // local heartbeats at the window ends themselves, so one grid step —
    // a fifth of the silence — is slack for a loaded machine, not the
    // expected latency (a few milliseconds).
    let p90 = report.latency_percentile_ms(0.9).unwrap();
    assert!(
        p90 < grid_step_ms,
        "p90 result latency {p90:.1} ms, one grid step is {grid_step_ms} ms"
    );
}
