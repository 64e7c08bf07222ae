//! Unit tests of the parallel engine: differential checks against the
//! sequential engine across shard counts, runtime query churn, shard
//! degradation, telemetry, profiling and tracing.

#![cfg(test)]

use super::*;
use crate::aggregate::AggFunction;
use crate::engine::AggregationEngine;
use crate::event::{Event, EventBatch, Marker, MarkerKind};
use crate::obs::names;
use crate::obs::prof::{ProfClock, ProfileReport};
use crate::obs::trace::TraceCollector;
use crate::predicate::Predicate;
use crate::query::{Query, QueryResult};
use crate::time::Timestamp;
use crate::window::WindowSpec;

/// A drain, checked to be in canonical order without help.
fn canonical(drain: Vec<QueryResult>) -> Vec<QueryResult> {
    assert!(drain.is_sorted_by_key(QueryResult::emit_order), "{drain:?}");
    drain
}

fn run_sequential(queries: Vec<Query>, events: &[Event], final_wm: Timestamp) -> Vec<QueryResult> {
    let mut engine = AggregationEngine::new(queries).unwrap();
    for ev in events {
        engine.on_event(ev);
    }
    engine.on_watermark(final_wm);
    canonical(engine.drain_results())
}

fn run_parallel(
    queries: Vec<Query>,
    events: &[Event],
    final_wm: Timestamp,
    shards: usize,
) -> Vec<QueryResult> {
    let mut engine = ParallelEngine::new(queries, shards).unwrap();
    for ev in events {
        engine.on_event(ev);
    }
    engine.on_watermark(final_wm);
    engine.finish();
    canonical(engine.drain_results())
}

fn mixed_queries() -> Vec<Query> {
    vec![
        Query::new(
            1,
            WindowSpec::tumbling_time(1_000).unwrap(),
            AggFunction::Max,
        ),
        Query::new(
            2,
            WindowSpec::sliding_time(2_000, 500).unwrap(),
            AggFunction::Quantile(0.9),
        ),
        Query::new(3, WindowSpec::session(400).unwrap(), AggFunction::Median),
    ]
}

fn events(n: u64, keys: u32) -> Vec<Event> {
    (0..n)
        .map(|i| Event::new(i, (i as u32) % keys, (i % 97) as f64))
        .collect()
}

#[test]
fn matches_sequential_with_mixed_groups() {
    let evs = events(4_000, 10);
    let seq = run_sequential(mixed_queries(), &evs, 10_000);
    for shards in [1, 2, 4] {
        let par = run_parallel(mixed_queries(), &evs, 10_000, shards);
        assert_eq!(par, seq, "shards={shards}");
    }
}

#[test]
fn matches_sequential_with_fewer_keys_than_shards() {
    // Shards 2..6 see no events at all: watermark forcing must still
    // complete every merged slice.
    let evs: Vec<Event> = (0..2_000u64)
        .map(|i| Event::new(i, (i % 2) as u32, i as f64))
        .collect();
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(500).unwrap(),
        AggFunction::Average,
    )];
    let seq = run_sequential(queries.clone(), &evs, 5_000);
    let par = run_parallel(queries, &evs, 5_000, 7);
    assert_eq!(par, seq);
}

#[test]
fn drain_is_deterministic_at_watermark_barriers() {
    let queries = vec![
        Query::new(
            1,
            WindowSpec::tumbling_time(1_000).unwrap(),
            AggFunction::Sum,
        ),
        Query::new(
            2,
            WindowSpec::tumbling_time(1_000).unwrap(),
            AggFunction::Median,
        ),
    ];
    let run = || {
        let mut engine = ParallelEngine::new(queries.clone(), 4).unwrap();
        let mut drained: Vec<Vec<QueryResult>> = Vec::new();
        for i in 0..6_000u64 {
            engine.on_event(&Event::new(i, (i % 8) as u32, (i % 13) as f64));
            if i % 1_000 == 999 {
                engine.on_watermark(i + 1);
                drained.push(engine.drain_results());
            }
        }
        engine.on_watermark(10_000);
        engine.finish();
        drained.push(engine.drain_results());
        drained
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "watermark-aligned drains must be byte-identical");
    assert!(a.iter().any(|batch| !batch.is_empty()));
}

#[test]
fn batched_ingestion_matches_per_event() {
    let evs = events(3_000, 5);
    let queries = vec![Query::new(
        1,
        WindowSpec::sliding_time(1_000, 250).unwrap(),
        AggFunction::Variance,
    )];
    let per_event = run_parallel(queries.clone(), &evs, 8_000, 3);
    let mut engine = ParallelEngine::new(queries, 3).unwrap();
    for chunk in evs.chunks(173) {
        engine.on_batch(&EventBatch::from(chunk.to_vec()));
    }
    engine.on_watermark(8_000);
    engine.finish();
    assert_eq!(canonical(engine.drain_results()), per_event);
}

#[test]
fn out_of_order_input_with_lateness_matches_sorted_sequential() {
    let mut evs: Vec<Event> = (0..2_000u64)
        .map(|i| Event::new(i, (i % 6) as u32, (i % 31) as f64))
        .collect();
    // Bounded jitter well within the lateness budget.
    for i in (0..evs.len()).step_by(7) {
        let j = (i + 3).min(evs.len() - 1);
        evs.swap(i, j);
    }
    let mut sorted = evs.clone();
    sorted.sort_by_key(|e| e.ts);
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(200).unwrap(),
        AggFunction::Sum,
    )];
    let seq = run_sequential(queries.clone(), &sorted, 5_000);
    let mut cfg = ParallelConfig::new(4);
    cfg.lateness = Some(100);
    let mut engine = ParallelEngine::with_config(queries, cfg).unwrap();
    for ev in &evs {
        engine.on_event(ev);
    }
    engine.on_watermark(5_000);
    engine.finish();
    assert_eq!(canonical(engine.drain_results()), seq);
}

#[test]
fn metrics_cover_all_shards_and_publish() {
    let evs = events(1_000, 4);
    let mut engine = ParallelEngine::new(mixed_queries(), 2).unwrap();
    for ev in &evs {
        engine.on_event(ev);
    }
    engine.on_watermark(5_000);
    engine.finish();
    let m = engine.metrics();
    assert_eq!(m.events, 1_000);
    assert!(m.slices > 0);
    assert!(m.results > 0);
    let snap = engine.registry().snapshot();
    let shard0 = snap.counters[&names::engine_shard_events(0)];
    let shard1 = snap.counters[&names::engine_shard_events(1)];
    assert!(shard0 > 0);
    assert!(shard1 > 0);
    assert_eq!(shard0 + shard1, 1_000);
    assert_eq!(snap.counters[names::ENGINE_SHARD_PANICS], 0);
}

/// All four window classes at once: fixed tumbling/sliding,
/// session, user-defined, and (filtered + unfiltered) count.
fn full_mix_queries() -> Vec<Query> {
    let mut filtered_count =
        Query::new(5, WindowSpec::tumbling_count(64).unwrap(), AggFunction::Sum);
    filtered_count.predicate = Predicate::ValueAbove(40.0);
    vec![
        Query::new(
            1,
            WindowSpec::tumbling_time(1_000).unwrap(),
            AggFunction::Max,
        ),
        Query::new(
            2,
            WindowSpec::sliding_time(2_000, 500).unwrap(),
            AggFunction::Quantile(0.9),
        ),
        Query::new(3, WindowSpec::session(400).unwrap(), AggFunction::Median),
        Query::new(4, WindowSpec::user_defined(7), AggFunction::Average),
        filtered_count,
        Query::new(
            6,
            WindowSpec::sliding_count(100, 25).unwrap(),
            AggFunction::Count,
        ),
    ]
}

/// A stream with idle gaps (closing sessions mid-stream) and
/// user-defined window markers on channel 7.
fn gapped_marked_events(n: u64, keys: u32) -> Vec<Event> {
    (0..n)
        .map(|i| {
            let ts = i + (i / 100) * 600;
            let key = (i as u32) % keys;
            let value = (i % 97) as f64;
            match i % 500 {
                120 => Event::with_marker(
                    ts,
                    key,
                    value,
                    Marker {
                        channel: 7,
                        kind: MarkerKind::Start,
                    },
                ),
                370 => Event::with_marker(
                    ts,
                    key,
                    value,
                    Marker {
                        channel: 7,
                        kind: MarkerKind::End,
                    },
                ),
                _ => Event::new(ts, key, value),
            }
        })
        .collect()
}

#[test]
fn session_count_and_user_defined_match_sequential_inside_sharded_path() {
    let evs = gapped_marked_events(4_000, 10);
    let seq = run_sequential(full_mix_queries(), &evs, 60_000);
    for query in 1..=6 {
        assert!(
            seq.iter().any(|r| r.query == query),
            "sequential reference must exercise query {query}"
        );
    }
    for shards in [1, 2, 4, 7] {
        let par = run_parallel(full_mix_queries(), &evs, 60_000, shards);
        assert_eq!(par, seq, "shards={shards}");
    }
}

#[test]
fn user_defined_windows_match_sequential_across_shards() {
    let evs = gapped_marked_events(3_000, 6);
    let queries = vec![Query::new(
        4,
        WindowSpec::user_defined(7),
        AggFunction::Average,
    )];
    let seq = run_sequential(queries.clone(), &evs, 60_000);
    assert!(!seq.is_empty());
    for shards in [1, 2, 4, 7] {
        let par = run_parallel(queries.clone(), &evs, 60_000, shards);
        assert_eq!(par, seq, "shards={shards}");
    }
}

#[test]
fn count_windows_with_predicate_match_sequential() {
    let evs = events(3_000, 5);
    let mut filtered = Query::new(1, WindowSpec::tumbling_count(50).unwrap(), AggFunction::Sum);
    filtered.predicate = Predicate::ValueAbove(48.0);
    let queries = vec![
        filtered,
        Query::new(
            2,
            WindowSpec::sliding_count(80, 20).unwrap(),
            AggFunction::Median,
        ),
    ];
    let seq = run_sequential(queries.clone(), &evs, 10_000);
    assert!(!seq.is_empty());
    for shards in [1, 4, 7] {
        let par = run_parallel(queries.clone(), &evs, 10_000, shards);
        assert_eq!(par, seq, "shards={shards}");
    }
}

#[test]
fn sessions_split_across_shards_merge_to_sequential_results() {
    // Two keys ping-ponging within the gap: with 2+ shards every
    // global session is made of overlapping per-shard fragments.
    let evs: Vec<Event> = (0..2_000u64)
        .map(|i| {
            let ts = i * 150 + (i / 40) * 2_000;
            Event::new(ts, (i % 2) as u32, (i % 13) as f64)
        })
        .collect();
    let queries = vec![Query::new(
        1,
        WindowSpec::session(500).unwrap(),
        AggFunction::Sum,
    )];
    let seq = run_sequential(queries.clone(), &evs, 1_000_000);
    assert!(seq.len() > 10, "stream must close many sessions");
    for shards in [1, 2, 4, 7] {
        let par = run_parallel(queries.clone(), &evs, 1_000_000, shards);
        assert_eq!(par, seq, "shards={shards}");
    }
}

#[test]
fn unfixed_results_are_deterministic_at_watermark_barriers() {
    let run = || {
        let mut engine = ParallelEngine::new(full_mix_queries(), 4).unwrap();
        let evs = gapped_marked_events(4_000, 8);
        let mut drained: Vec<Vec<QueryResult>> = Vec::new();
        for (i, ev) in evs.iter().enumerate() {
            engine.on_event(ev);
            if i % 1_000 == 999 {
                engine.on_watermark(ev.ts + 1);
                drained.push(engine.drain_results());
            }
        }
        engine.on_watermark(60_000);
        engine.finish();
        drained.push(engine.drain_results());
        drained
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "watermark-aligned drains must be byte-identical");
    assert!(a.iter().any(|batch| !batch.is_empty()));
}

/// Regression: runtime admission (`add_query`) then removal
/// mid-stream stays byte-identical to the sequential engine doing
/// the same churn at the same stream positions — with no watermark in
/// front of the removals, for a query of every plan and in both modes:
/// an aligned one (retired from the slice stream), a session query
/// (purged behind a barrier) and a count query (sliced up to the
/// removal first).
#[test]
fn add_then_remove_query_mid_stream_matches_sequential() {
    let evs = gapped_marked_events(3_000, 6);
    let initial = vec![Query::new(
        1,
        WindowSpec::tumbling_time(1_000).unwrap(),
        AggFunction::Max,
    )];
    let added = || {
        vec![
            Query::new(7, WindowSpec::session(400).unwrap(), AggFunction::Sum),
            Query::new(
                8,
                WindowSpec::tumbling_count(40).unwrap(),
                AggFunction::Average,
            ),
            Query::new(
                9,
                WindowSpec::sliding_time(1_500, 500).unwrap(),
                AggFunction::Count,
            ),
            Query::new(10, WindowSpec::user_defined(7), AggFunction::Max),
        ]
    };
    for immediate in [true, false] {
        let seq = {
            let mut engine = AggregationEngine::new(initial.clone()).unwrap();
            for ev in &evs[..1_000] {
                engine.on_event(ev);
            }
            for q in added() {
                engine.add_query(q).unwrap();
            }
            for ev in &evs[1_000..2_030] {
                engine.on_event(ev);
            }
            for id in [9, 7, 8] {
                engine.remove_query(id, immediate).unwrap();
            }
            for ev in &evs[2_030..] {
                engine.on_event(ev);
            }
            engine.on_watermark(60_000);
            canonical(engine.drain_results())
        };
        for id in [7, 8, 9, 10] {
            assert!(seq.iter().any(|r| r.query == id), "query {id} must emit");
        }
        for shards in [1, 2, 4] {
            let mut engine = ParallelEngine::new(initial.clone(), shards).unwrap();
            for ev in &evs[..1_000] {
                engine.on_event(ev);
            }
            for q in added() {
                engine.add_query(q).unwrap();
            }
            assert!(
                engine.add_query(added().remove(0)).is_err(),
                "duplicate query ids must be rejected"
            );
            for ev in &evs[1_000..2_030] {
                engine.on_event(ev);
            }
            for id in [9, 7, 8] {
                engine.remove_query(id, immediate);
            }
            for ev in &evs[2_030..] {
                engine.on_event(ev);
            }
            engine.on_watermark(60_000);
            engine.finish();
            assert_eq!(
                canonical(engine.drain_results()),
                seq,
                "immediate={immediate} shards={shards}"
            );
        }
    }
}

#[test]
fn add_query_to_empty_engine_spawns_the_sharded_path() {
    let evs = events(2_000, 5);
    let queries = vec![
        Query::new(1, WindowSpec::tumbling_time(500).unwrap(), AggFunction::Sum),
        Query::new(2, WindowSpec::session(300).unwrap(), AggFunction::Count),
    ];
    let seq = run_sequential(queries.clone(), &evs, 10_000);
    let mut engine = ParallelEngine::new(Vec::new(), 3).unwrap();
    for q in queries {
        engine.add_query(q).unwrap();
    }
    for ev in &evs {
        engine.on_event(ev);
    }
    engine.on_watermark(10_000);
    engine.finish();
    assert_eq!(canonical(engine.drain_results()), seq);
}

#[test]
fn remove_query_stops_new_windows() {
    let queries = vec![
        Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum),
        Query::new(
            2,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Count,
        ),
    ];
    let mut engine = ParallelEngine::new(queries, 2).unwrap();
    engine.on_event(&Event::new(0, 0, 1.0));
    engine.remove_query(2, true);
    for i in 1..500u64 {
        engine.on_event(&Event::new(i, (i % 2) as u32, 1.0));
    }
    engine.on_watermark(1_000);
    engine.finish();
    let results = engine.drain_results();
    assert!(results.iter().all(|r| r.query != 2));
    assert!(results.iter().any(|r| r.query == 1));
}

#[test]
fn snapshot_diff_across_shard_panic_keeps_counters_monotone() {
    let evs = events(2_000, 8);
    let mut engine = ParallelEngine::new(mixed_queries(), 2).unwrap();
    for ev in &evs[..1_000] {
        engine.on_event(ev);
    }
    engine.on_watermark(1_000);
    engine.metrics();
    let before = engine.registry().snapshot();
    engine.sharded.inject_panic(0);
    for ev in &evs[1_000..] {
        engine.on_event(ev);
    }
    engine.on_watermark(10_000);
    engine.finish();
    engine.metrics();
    let after = engine.registry().snapshot();
    assert_eq!(engine.shard_panics(), 1);
    // Counters stay monotone across the degradation: every
    // instrument of the earlier snapshot persists at or above its
    // level, so diffs against it never underflow.
    for (name, v) in &before.counters {
        let now = after.counters.get(name).copied().unwrap_or(0);
        assert!(now >= *v, "{name} regressed across panic: {v} -> {now}");
    }
    let diff = after.diff(&before);
    assert_eq!(diff.counters[names::ENGINE_SHARD_PANICS], 1);
    // No phantom instruments: everything the diff reports exists in
    // the later snapshot.
    for name in diff.counters.keys() {
        assert!(after.counters.contains_key(name), "phantom {name}");
    }
    for name in diff.gauges.keys() {
        assert!(after.gauges.contains_key(name), "phantom {name}");
    }
}

#[test]
fn snapshot_diff_across_query_churn_tracks_gauge_levels() {
    let evs = gapped_marked_events(3_000, 6);
    let mut engine = ParallelEngine::new(full_mix_queries(), 3).unwrap();
    for ev in &evs[..1_500] {
        engine.on_event(ev);
    }
    engine.on_watermark(evs[1_499].ts);
    engine.metrics();
    let before = engine.registry().snapshot();
    engine
        .add_query(Query::new(
            9,
            WindowSpec::tumbling_time(700).unwrap(),
            AggFunction::Sum,
        ))
        .unwrap();
    engine.remove_query(3, true);
    for ev in &evs[1_500..] {
        engine.on_event(ev);
    }
    engine.on_watermark(60_000);
    engine.finish();
    engine.metrics();
    let after = engine.registry().snapshot();
    let diff = after.diff(&before);
    for (name, v) in &before.counters {
        let now = after.counters.get(name).copied().unwrap_or(0);
        assert!(now >= *v, "{name} regressed across churn: {v} -> {now}");
    }
    // Gauges report the later level, not a delta: the session query
    // was removed immediately and the stream fully drained, so the
    // retained-state gauges are back at zero regardless of what the
    // earlier snapshot held.
    assert_eq!(
        diff.gauges[names::ENGINE_UNFIXED_PENDING_SESSIONS],
        after.gauges[names::ENGINE_UNFIXED_PENDING_SESSIONS]
    );
    assert_eq!(after.gauges[names::ENGINE_UNFIXED_PENDING_SESSIONS], 0);
    assert_eq!(after.gauges[names::ENGINE_UNFIXED_QUEUED_UD_SLICES], 0);
    // The mid-stream add landed: the new query produced results and
    // the shard counters kept counting.
    assert!(diff.counters[&names::engine_shard_events(2)] > 0);
    for name in diff.counters.keys() {
        assert!(after.counters.contains_key(name), "phantom {name}");
    }
    for name in diff.gauges.keys() {
        assert!(after.gauges.contains_key(name), "phantom {name}");
    }
}

#[test]
fn publish_reports_shard_balance_telemetry() {
    let evs = gapped_marked_events(3_000, 7);
    let mut engine = ParallelEngine::new(full_mix_queries(), 2).unwrap();
    for ev in &evs {
        engine.on_event(ev);
    }
    engine.on_watermark(60_000);
    engine.finish();
    engine.metrics();
    let snap = engine.registry().snapshot();
    let imbalance = snap.gauges[names::ENGINE_SHARD_IMBALANCE_PERMILLE];
    assert!(
        (0..=1000).contains(&imbalance),
        "imbalance permille out of range: {imbalance}"
    );
    // 7 keys over 2 shards: 4-vs-3 routing, so some imbalance shows.
    assert!(imbalance > 0);
    for shard in 0..2 {
        assert!(snap.gauges[&names::engine_shard_inbox_depth_max(shard)] > 0);
    }
    assert!(snap
        .gauges
        .contains_key(names::ENGINE_UNFIXED_PENDING_SESSIONS));
    assert!(snap
        .gauges
        .contains_key(names::ENGINE_UNFIXED_QUEUED_UD_SLICES));
    assert!(snap
        .gauges
        .contains_key(names::ENGINE_UNFIXED_COUNT_SURVIVORS));
}

/// The collector's assemblers publish the same retained-state gauges as
/// the sequential engine's, and mid-stream they hold the same levels.
#[test]
fn metrics_publish_the_collectors_retained_state() {
    let sliding = WindowSpec::sliding_time(1_600, 100).unwrap();
    let queries = vec![Query::new(1, sliding, AggFunction::Max)];
    let mut sequential = AggregationEngine::new(queries.clone()).unwrap();
    let mut parallel = ParallelEngine::new(queries, 2).unwrap();
    for ts in 0..300 {
        let ev = Event::new(ts * 10, ts as u32 % 3, 1.0);
        sequential.on_event(&ev);
        parallel.on_event(&ev);
    }
    sequential.on_watermark(3_000);
    parallel.on_watermark(3_000);
    sequential.metrics();
    parallel.metrics();
    let want = sequential.registry().snapshot().gauges;
    let got = parallel.registry().snapshot().gauges;
    for name in [
        names::ENGINE_ASSEMBLER_RETAINED_SLICES,
        names::ENGINE_ASSEMBLER_CACHED_BUNDLES,
    ] {
        assert!(want[name] > 0, "{name}");
        assert_eq!(got[name], want[name], "{name}");
    }
}

#[test]
fn profiler_attributes_driver_and_shard_stage_time() {
    let clock = ProfClock::wall();
    let registry = Arc::new(MetricsRegistry::profiled(clock.clone()));
    let evs = gapped_marked_events(4_000, 10);
    let mut cfg = ParallelConfig::new(2);
    cfg.lateness = Some(50);
    let mut engine = ParallelEngine::with_registry(full_mix_queries(), cfg, registry).unwrap();
    for ev in &evs {
        engine.on_event(ev);
    }
    engine.on_watermark(60_000);
    engine.finish();
    let _ = engine.drain_results();
    engine.metrics();
    let snap = engine.registry().snapshot();
    let report = ProfileReport::from_snapshot(&snap, clock.now_ns());
    assert!(report.wall_ns > 0);
    let lanes: Vec<&str> = report.lanes.iter().map(|l| l.lane.as_str()).collect();
    for lane in ["driver", "shard0", "shard1"] {
        assert!(lanes.contains(&lane), "missing lane {lane}: {lanes:?}");
    }
    // Nesting-aware self-time: no lane can account for more than
    // the measured wall interval.
    for lane in &report.lanes {
        assert!(
            lane.total_ns <= report.wall_ns,
            "lane {} overflows wall: {} > {}",
            lane.lane,
            lane.total_ns,
            report.wall_ns
        );
    }
    let driver = report.lanes.iter().find(|l| l.lane == "driver").unwrap();
    let stages: Vec<&str> = driver.stages.iter().map(|s| s.stage).collect();
    for required in [
        "analyzer",
        "ingest",
        "reorder",
        "barrier",
        "shard_merge",
        "unfixed_merge",
        "replay",
        "assemble",
        "drain",
    ] {
        assert!(
            stages.contains(&required),
            "driver missing {required}: {stages:?}"
        );
    }
    let shard0 = report.lanes.iter().find(|l| l.lane == "shard0").unwrap();
    let worker: Vec<&str> = shard0.stages.iter().map(|s| s.stage).collect();
    for required in ["slicer", "idle"] {
        assert!(
            worker.contains(&required),
            "shard0 missing {required}: {worker:?}"
        );
    }
    // The stream is ordered once, at the inlet.
    assert!(!worker.contains(&"reorder"), "shard0 reorders: {worker:?}");
    // The table is a view over the registry's prof.* counters.
    assert!(snap.counters.keys().any(|k| k.starts_with("prof.driver.")));
    assert!(snap.counters.keys().any(|k| k.starts_with("prof.shard1.")));
}

#[test]
fn profiling_enabled_results_match_unprofiled_run() {
    let evs = gapped_marked_events(3_000, 9);
    let plain = run_parallel(full_mix_queries(), &evs, 60_000, 3);
    let registry = Arc::new(MetricsRegistry::profiled(ProfClock::wall()));
    let mut engine =
        ParallelEngine::with_registry(full_mix_queries(), ParallelConfig::new(3), registry)
            .unwrap();
    for ev in &evs {
        engine.on_event(ev);
    }
    engine.on_watermark(60_000);
    engine.finish();
    let profiled = canonical(engine.drain_results());
    assert_eq!(profiled, plain, "profiling must not perturb results");
}

#[test]
fn unfixed_and_count_trace_chains_complete_across_the_sharded_path() {
    let collector = TraceCollector::new(1, 1 << 16);
    let evs = gapped_marked_events(4_000, 10);
    let mut engine = ParallelEngine::new(full_mix_queries(), 4).unwrap();
    engine.install_tracing(&collector, 0);
    for ev in &evs {
        engine.on_event(ev);
    }
    engine.on_watermark(60_000);
    engine.finish();
    let results = engine.drain_results();
    assert!(!results.is_empty());
    // Recorders flush their ring buffers on drop.
    drop(engine);
    let timeline = collector.drain_timeline();
    let mut chained: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut unfixed_merges = 0;
    for chain in &timeline.chains {
        let Some(query) = chain.result_query() else {
            // Slices riding along inside a merge end mid-journey.
            continue;
        };
        let kinds: Vec<&str> = chain.events.iter().map(|e| e.kind.name()).collect();
        assert!(
            chain.is_complete(),
            "incomplete chain {} for query {query}: {kinds:?}",
            chain.trace
        );
        for pair in chain.events.windows(2) {
            assert!(
                pair[0].at <= pair[1].at,
                "non-monotone chain {}",
                chain.trace
            );
        }
        if matches!(query, 3 | 4) {
            assert!(
                kinds.contains(&"MergeStart") && kinds.contains(&"MergeDone"),
                "query {query} chain missing unfixed merge spans: {kinds:?}"
            );
            unfixed_merges += 1;
        }
        chained.insert(query);
    }
    // Session (3), user-defined (4), and count (5, 6) queries all
    // resolve to complete provenance chains through the sharded path.
    for query in [3u64, 4, 5, 6] {
        assert!(
            chained.contains(&query),
            "no complete chain for query {query}; got {chained:?}"
        );
    }
    assert!(unfixed_merges > 0);
}
