//! Named regression tests pinning semantic edge cases:
//!
//! * Session-gap boundaries (paper Section 2.1): an event arriving at
//!   exactly `last_ts + gap` starts a *new* session — in the single-node
//!   engine, in the naive baselines, and across decentralized streams.
//! * Quantile/median edges: `quantile(0)` / `quantile(1)` are min/max,
//!   single-element windows, and even-length median interpolation must
//!   agree between merge-then-finalize and naive single-pass execution.
//! * Parallel-engine edges graduated from `tests/properties.rs`: drains
//!   are canonically ordered, key counts below the shard count leave
//!   permanently empty shards whose watermark forcing must still release
//!   merged slices, and batch boundaries landing exactly on a watermark
//!   must not double-feed or drop the boundary event.
//! * Hash-order freedom, graduated from desis-lint's `no-unordered-iter`
//!   sweep: assemblers and mergers emit in key order, frame bytes are a
//!   pure function of slice content, and cluster reports are node-ordered
//!   and run-twice identical.
//! * Hostile frames: a checksum-valid slice frame declaring fewer
//!   selections than its group is an empty contribution at the root,
//!   never a panic.
//! * Idle local: a fixed window sharing its group with a session query
//!   still leaves the root when one local stream never sees an event.
//! * Correlated windows: sort-based windows that end together are built
//!   from one another, counted in bundle merges against one range scan
//!   per window end.

use desis::prelude::*;

fn canon(mut results: Vec<QueryResult>) -> Vec<QueryResult> {
    results.sort_by(|a, b| {
        (a.query, a.window_start, a.window_end, a.key).cmp(&(
            b.query,
            b.window_start,
            b.window_end,
            b.key,
        ))
    });
    results
}

fn run_engine(queries: Vec<Query>, events: &[Event], final_wm: Timestamp) -> Vec<QueryResult> {
    let mut engine = AggregationEngine::new(queries).unwrap();
    for ev in events {
        engine.on_event(ev);
    }
    engine.on_watermark(final_wm);
    canon(engine.drain_results())
}

fn run_system(kind: SystemKind, queries: Vec<Query>, events: &[Event]) -> Vec<QueryResult> {
    let mut system = kind.build(queries).expect("valid queries");
    let mut out = Vec::new();
    for ev in events {
        system.on_event(ev);
        out.extend(system.drain_results());
    }
    let last = events.last().map_or(0, |e| e.ts);
    system.on_watermark(last + 60_000);
    out.extend(system.drain_results());
    canon(out)
}

/// Section 2.1: a session covers events closer than `gap`; an event at
/// exactly `last_ts + gap` no longer belongs to it.
#[test]
fn session_closes_exactly_at_gap_boundary() {
    let queries = || {
        vec![Query::new(
            1,
            WindowSpec::session(100).unwrap(),
            AggFunction::Count,
        )]
    };
    // ts 150 == 50 + gap: boundary-touching, so a second session starts.
    let touching = [
        Event::new(0, 0, 1.0),
        Event::new(50, 0, 1.0),
        Event::new(150, 0, 1.0),
    ];
    let results = run_engine(queries(), &touching, 1_000);
    assert_eq!(results.len(), 2, "{results:?}");
    assert_eq!(
        (results[0].window_start, results[0].window_end),
        (0, 150),
        "first session is [0, 50+gap)"
    );
    assert_eq!(results[0].values, vec![Some(2.0)]);
    assert_eq!((results[1].window_start, results[1].window_end), (150, 250));
    assert_eq!(results[1].values, vec![Some(1.0)]);

    // One tick earlier the session is extended instead.
    let extending = [
        Event::new(0, 0, 1.0),
        Event::new(50, 0, 1.0),
        Event::new(149, 0, 1.0),
    ];
    let results = run_engine(queries(), &extending, 1_000);
    assert_eq!(results.len(), 1, "{results:?}");
    assert_eq!((results[0].window_start, results[0].window_end), (0, 249));
    assert_eq!(results[0].values, vec![Some(3.0)]);
}

/// The boundary semantics hold identically in every baseline system.
#[test]
fn session_boundary_agrees_with_naive_baselines() {
    let queries = || {
        vec![Query::new(
            1,
            WindowSpec::session(100).unwrap(),
            AggFunction::Sum,
        )]
    };
    // Sessions that touch at the boundary, twice, plus a clear gap.
    let events: Vec<Event> = [0u64, 60, 160, 260, 1_000, 1_099, 1_199]
        .iter()
        .map(|&ts| Event::new(ts, 0, 1.0))
        .collect();
    let reference = run_engine(queries(), &events, 60_000);
    assert!(!reference.is_empty());
    for kind in [
        SystemKind::Desis,
        SystemKind::DeSw,
        SystemKind::Scotty,
        SystemKind::DeBucket,
        SystemKind::CeBuffer,
    ] {
        let got = run_system(kind, queries(), &events);
        assert_eq!(
            got,
            reference,
            "{} disagrees on session boundaries",
            kind.label()
        );
    }
}

/// Gap-covering merges at the decentralized root (Section 5.1.2): two
/// local streams whose sessions touch exactly at the gap boundary stay
/// separate sessions; overlapping ones merge into one.
#[test]
fn decentralized_touching_session_gaps_stay_separate() {
    let queries = vec![Query::new(
        1,
        WindowSpec::session(100).unwrap(),
        AggFunction::Count,
    )];
    let run = |feed_b: Vec<Event>| {
        let feed_a = vec![Event::new(0, 0, 1.0), Event::new(10, 0, 1.0)];
        let cfg = ClusterConfig::new(DistributedSystem::Desis, queries.clone(), Topology::star(2));
        let mut engine = AggregationEngine::new(queries.clone()).unwrap();
        let mut merged: Vec<Event> = feed_a.iter().chain(&feed_b).copied().collect();
        merged.sort_by_key(|e| e.ts);
        for ev in &merged {
            engine.on_event(ev);
        }
        engine.on_watermark(60_000);
        let reference = canon(engine.drain_results());
        let report = run_cluster(cfg, vec![feed_a, feed_b]).unwrap();
        (canon(report.results), reference)
    };

    // Stream B starts at exactly 10 + gap: two separate sessions.
    let (touching, reference) = run(vec![Event::new(110, 0, 1.0), Event::new(120, 0, 1.0)]);
    assert_eq!(touching, reference);
    assert_eq!(touching.len(), 2, "{touching:?}");
    assert_eq!((touching[0].window_start, touching[0].window_end), (0, 110));
    assert_eq!(
        (touching[1].window_start, touching[1].window_end),
        (110, 220)
    );

    // One tick earlier the cross-stream sessions overlap and merge.
    let (overlapping, reference) = run(vec![Event::new(109, 0, 1.0), Event::new(120, 0, 1.0)]);
    assert_eq!(overlapping, reference);
    assert_eq!(overlapping.len(), 1, "{overlapping:?}");
    assert_eq!(
        (overlapping[0].window_start, overlapping[0].window_end),
        (0, 220)
    );
    assert_eq!(overlapping[0].values, vec![Some(4.0)]);
}

/// `quantile(1)` equals max and `quantile(0)` equals min, per window.
#[test]
fn quantile_one_is_max_and_zero_is_min() {
    let queries = vec![
        Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Quantile(1.0),
        ),
        Query::new(2, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Max),
        Query::new(
            3,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Quantile(0.0),
        ),
        Query::new(4, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Min),
    ];
    let events: Vec<Event> = (0..400u64)
        .map(|i| Event::new(i, 0, ((i * 37) % 101) as f64))
        .collect();
    let results = run_engine(queries, &events, 1_000);
    let series = |q: u64| -> Vec<Option<f64>> {
        results
            .iter()
            .filter(|r| r.query == q)
            .flat_map(|r| r.values.clone())
            .collect()
    };
    let max = series(2);
    assert_eq!(max.len(), 4);
    assert_eq!(series(1), max, "quantile(1) must equal max");
    assert_eq!(series(3), series(4), "quantile(0) must equal min");
}

/// A single-element window returns its element for every quantile level.
#[test]
fn quantile_single_element_window() {
    let queries = vec![
        Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Quantile(0.37),
        ),
        Query::new(
            2,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Median,
        ),
        Query::new(
            3,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Quantile(1.0),
        ),
    ];
    let events = [Event::new(10, 0, 42.5)];
    let results = run_engine(queries, &events, 1_000);
    assert_eq!(results.len(), 3, "{results:?}");
    for r in &results {
        assert_eq!(r.values, vec![Some(42.5)], "query {}", r.query);
    }
}

/// Even-length windows interpolate the median (type-7, like numpy), and
/// merge-then-finalize agrees with the naive single-pass baselines.
#[test]
fn even_length_median_interpolates_and_matches_naive() {
    let queries = || {
        vec![Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Median,
        )]
    };
    // Window [0, 100) holds {1, 2, 3, 4} out of order: median 2.5.
    let events = [
        Event::new(0, 0, 3.0),
        Event::new(20, 0, 1.0),
        Event::new(40, 0, 4.0),
        Event::new(60, 0, 2.0),
    ];
    let results = run_engine(queries(), &events, 1_000);
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].values, vec![Some(2.5)]);
    for kind in [
        SystemKind::Desis,
        SystemKind::DeBucket,
        SystemKind::CeBuffer,
    ] {
        let got = run_system(kind, queries(), &events);
        assert_eq!(got, results, "{} median disagrees", kind.label());
    }
    // The same window assembled from decentralized per-stream partials
    // (sorted-run merge at the root) produces the same interpolation.
    let cfg = ClusterConfig::new(DistributedSystem::Desis, queries(), Topology::star(2));
    let feeds = vec![
        vec![Event::new(0, 0, 3.0), Event::new(40, 0, 4.0)],
        vec![Event::new(20, 0, 1.0), Event::new(60, 0, 2.0)],
    ];
    let report = run_cluster(cfg, feeds).unwrap();
    let cluster_results = canon(report.results);
    assert_eq!(cluster_results.len(), 1);
    assert_eq!(cluster_results[0].values, vec![Some(2.5)]);
}

// ---------------------------------------------------------------------
// Parallel engine (PR 5), graduated from tests/properties.rs.
// ---------------------------------------------------------------------

fn parallel_mixed_queries() -> Vec<Query> {
    vec![
        Query::new(1, WindowSpec::tumbling_time(500).unwrap(), AggFunction::Sum),
        Query::new(
            2,
            WindowSpec::sliding_time(1_000, 250).unwrap(),
            AggFunction::Median,
        ),
        Query::new(3, WindowSpec::session(200).unwrap(), AggFunction::Max),
    ]
}

fn run_parallel_engine(
    queries: Vec<Query>,
    events: &[Event],
    shards: usize,
    final_wm: Timestamp,
) -> Vec<QueryResult> {
    let mut engine = ParallelEngine::new(queries, shards).unwrap();
    for ev in events {
        engine.on_event(ev);
    }
    engine.on_watermark(final_wm);
    engine.finish();
    engine.drain_results()
}

/// Every drain — including mid-stream barrier drains — comes out in
/// canonical (query, window-end, key) order, strictly sorted with no
/// duplicate result rows.
#[test]
fn parallel_drains_are_strictly_sorted_without_duplicates() {
    let mut engine = ParallelEngine::new(parallel_mixed_queries(), 4).unwrap();
    let mut all = Vec::new();
    for i in 0..5_000u64 {
        engine.on_event(&Event::new(i, (i % 6) as u32, (i % 23) as f64));
        if i % 700 == 699 {
            engine.on_watermark(i + 1);
            let drain = engine.drain_results();
            for pair in drain.windows(2) {
                let a = &pair[0];
                let b = &pair[1];
                assert!(
                    (a.query, a.window_end, a.key, a.window_start)
                        < (b.query, b.window_end, b.key, b.window_start),
                    "duplicate or misordered: {a:?} then {b:?}"
                );
            }
            all.extend(drain);
        }
    }
    engine.on_watermark(10_000);
    engine.finish();
    all.extend(engine.drain_results());
    assert_eq!(
        canon(all),
        run_engine(
            parallel_mixed_queries(),
            &(0..5_000u64)
                .map(|i| Event::new(i, (i % 6) as u32, (i % 23) as f64))
                .collect::<Vec<_>>(),
            10_000
        )
    );
}

/// Fewer keys than shards: most shards never see an event, and a single
/// hot key pins all traffic to one shard. Watermark forcing must still
/// complete every merged slice and the results must match sequential.
#[test]
fn parallel_with_fewer_keys_than_shards_and_single_key() {
    for keys in [1u32, 2] {
        let events: Vec<Event> = (0..3_000u64)
            .map(|i| Event::new(i, (i % u64::from(keys)) as u32, i as f64))
            .collect();
        let reference = run_engine(parallel_mixed_queries(), &events, 8_000);
        for shards in [4usize, 7] {
            let got = canon(run_parallel_engine(
                parallel_mixed_queries(),
                &events,
                shards,
                8_000,
            ));
            assert_eq!(got, reference, "keys={keys} shards={shards}");
        }
    }
}

/// A batch boundary landing exactly on a watermark barrier: the boundary
/// event must be flushed to its shard before the barrier (not dropped,
/// not replayed into the next batch).
#[test]
fn parallel_batch_boundary_at_watermark_is_exact() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(256).unwrap(),
        AggFunction::Count,
    )];
    let events: Vec<Event> = (0..2_048u64)
        .map(|i| Event::new(i, (i % 3) as u32, 1.0))
        .collect();
    let mut cfg = ParallelConfig::new(4);
    cfg.batch_size = 256; // inlet flush lines up with the window length
    let mut engine = ParallelEngine::with_config(queries.clone(), cfg).unwrap();
    let mut out = Vec::new();
    for chunk in events.chunks(256) {
        engine.on_batch(&EventBatch::from(chunk.to_vec()));
        // Watermark exactly at the first timestamp past the chunk.
        engine.on_watermark(chunk.last().unwrap().ts + 1);
        out.extend(engine.drain_results());
    }
    engine.on_watermark(4_096);
    engine.finish();
    out.extend(engine.drain_results());
    let reference = run_engine(queries, &events, 4_096);
    assert_eq!(canon(out), reference);
    // Count windows: every one of the 8 windows holds exactly 256 events.
    let total: f64 = reference
        .iter()
        .flat_map(|r| r.values.iter().flatten())
        .sum();
    assert_eq!(total, 2_048.0);
}

/// An empty stream with watermarks: no results, no panics, clean finish
/// at every shard count.
#[test]
fn parallel_empty_stream_finishes_cleanly() {
    for shards in [1usize, 4] {
        let mut engine = ParallelEngine::new(parallel_mixed_queries(), shards).unwrap();
        engine.on_watermark(1_000);
        engine.on_watermark(2_000);
        engine.finish();
        assert!(engine.drain_results().is_empty());
        assert_eq!(engine.shard_panics(), 0);
    }
}

// ---------------------------------------------------------------------
// Hash-order regressions, graduated from desis-lint's no-unordered-iter
// sweep: emission, frame bytes, and reports must never depend on hash
// iteration order. One named test per converted site; each feeds keys
// in descending order so a hash-ordered emission would (with
// overwhelming probability) fail.
// ---------------------------------------------------------------------

/// `core::engine::assembler`: window results come out in ascending key
/// order straight from the assembler, before any canonical drain sort.
#[test]
fn assembler_emits_window_results_in_key_order() {
    let q = Query::new(
        1,
        WindowSpec::tumbling_time(1_000).unwrap(),
        AggFunction::Sum,
    );
    let mut groups = QueryAnalyzer::default().analyze(vec![q]).unwrap();
    let group = groups.remove(0);
    let mut slicer = GroupSlicer::new(group.clone());
    let mut assembler = Assembler::new(&group);
    let mut slices = Vec::new();
    let mut results = Vec::new();
    for i in 0..64u64 {
        // Keys descend as timestamps ascend: insertion order is 63..0.
        slicer.on_event(&Event::new(i, 63 - i as u32, 1.0), &mut slices);
    }
    slicer.on_watermark(1_000, &mut slices);
    for s in slices.drain(..) {
        assembler.on_slice(s, &mut results);
    }
    assert_eq!(results.len(), 64, "{results:?}");
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.key, i as u32, "emission is not key-sorted: {results:?}");
    }
}

/// `core::engine::merge` (`TimeAssembler`) entered through the sharded
/// collector: merged fixed-window emission is key-sorted as well — keys
/// land on shards by hash and are re-merged, so this pins the
/// collector-side sort, not the shard order.
#[test]
fn parallel_fixed_assembler_emits_in_key_order() {
    let q = Query::new(
        1,
        WindowSpec::tumbling_time(1_000).unwrap(),
        AggFunction::Sum,
    );
    let events: Vec<Event> = (0..64u64)
        .map(|i| Event::new(i, 63 - i as u32, 1.0))
        .collect();
    for shards in [1usize, 4] {
        let results = run_parallel_engine(vec![q.clone()], &events, shards, 2_000);
        assert_eq!(results.len(), 64, "shards={shards}");
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.key, i as u32, "shards={shards}: {results:?}");
        }
    }
}

/// The same `TimeAssembler` entered the way the root does, through the
/// `net::merge` re-export and straight from slicer output (whose shipped
/// `ends` it ignores): ascending key order too.
#[test]
fn time_assembler_emits_window_results_in_key_order() {
    use desis::net::merge::TimeAssembler;
    let q = Query::new(
        1,
        WindowSpec::tumbling_time(1_000).unwrap(),
        AggFunction::Sum,
    );
    let mut groups = QueryAnalyzer::default().analyze(vec![q]).unwrap();
    let group = groups.remove(0);
    let mut slicer = GroupSlicer::new(group.clone());
    let mut assembler = TimeAssembler::new(&group);
    let mut slices = Vec::new();
    let mut results = Vec::new();
    for i in 0..64u64 {
        slicer.on_event(&Event::new(i, 63 - i as u32, 1.0), &mut slices);
    }
    slicer.on_watermark(1_000, &mut slices);
    for s in slices.drain(..) {
        assembler.on_slice(s, &mut results);
    }
    assert_eq!(results.len(), 64, "{results:?}");
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.key, i as u32, "emission is not key-sorted: {results:?}");
    }
}

/// `net::codec`: frame bytes are a pure function of slice *content* —
/// two maps holding the same keys and bundles encode identically no
/// matter what insertion/removal history shaped their bucket layout.
/// (Fault placement and per-node byte counts depend on frame bytes, so
/// hash-ordered encoding would make chaos runs irreproducible.)
#[test]
fn slice_frame_bytes_are_insertion_order_independent() {
    use desis::core::engine::slice::{SessionGap, SliceData};

    fn bundle(v: f64) -> OperatorBundle {
        let mut b = OperatorBundle::new(AggFunction::Sum.operators());
        b.update(v);
        b.seal();
        b
    }
    fn slice_with(data: SliceData) -> SealedSlice {
        SealedSlice {
            id: 7,
            start_ts: 0,
            end_ts: 1_000,
            data,
            ends: vec![WindowEnd {
                query: 1,
                first_slice: 7,
                last_slice: 7,
                start_ts: 0,
                end_ts: 1_000,
            }],
            session_gaps: vec![SessionGap {
                query: 1,
                gap_start: 900,
                gap_end: 1_000,
            }],
            low_watermark: 7,
            low_watermark_ts: 500,
            trace: None,
        }
    }

    // Same logical content, three different map histories: ascending
    // insertion, descending insertion, and descending after a batch of
    // inserted-then-removed dummies (perturbs capacity/bucket layout).
    let mut ascending = SliceData::new(1);
    for k in 0..32u32 {
        ascending.per_selection[0].insert(k, bundle(f64::from(k)));
    }
    let mut descending = SliceData::new(1);
    for k in (0..32u32).rev() {
        descending.per_selection[0].insert(k, bundle(f64::from(k)));
    }
    let mut churned = SliceData::new(1);
    for k in 1_000..1_200u32 {
        churned.per_selection[0].insert(k, bundle(0.0));
    }
    for k in 1_000..1_200u32 {
        churned.per_selection[0].remove(&k);
    }
    for k in (0..32u32).rev() {
        churned.per_selection[0].insert(k, bundle(f64::from(k)));
    }

    let encode = |data: SliceData| {
        CodecKind::Binary.encode(&Message::Slice {
            group: 0,
            origin: 3,
            coverage: 1,
            partial: slice_with(data),
        })
    };
    let reference = encode(ascending);
    assert_eq!(reference, encode(descending), "insertion order leaked");
    assert_eq!(reference, encode(churned), "bucket history leaked");
}

/// `net::cluster` (`ClusterReport`): `bytes_by_node` iterates in node-id
/// order and the whole report is identical across two runs of the same
/// plan — byte counts included, which also pins the intermediate/root
/// frame emission order (`net::node` B-tree groups).
#[test]
fn cluster_report_is_node_ordered_and_run_twice_identical() {
    let queries = vec![
        Query::new(1, WindowSpec::tumbling_time(500).unwrap(), AggFunction::Sum),
        Query::new(2, WindowSpec::session(300).unwrap(), AggFunction::Count),
    ];
    let feeds: Vec<Vec<Event>> = (0..2u64)
        .map(|i| {
            DataGenerator::new(DataGenConfig {
                keys: 8,
                events_per_second: 1_000,
                seed: 40 + i,
                ..Default::default()
            })
            .take(4_000)
            .collect()
        })
        .collect();
    let run = || {
        let cfg = ClusterConfig::new(
            DistributedSystem::Desis,
            queries.clone(),
            Topology::three_tier(1, 2),
        );
        run_cluster(cfg, feeds.clone()).unwrap()
    };
    let a = run();
    let b = run();
    assert!(!a.results.is_empty());
    let nodes: Vec<NodeId> = a.bytes_by_node.keys().copied().collect();
    let mut sorted = nodes.clone();
    sorted.sort_unstable();
    assert_eq!(nodes, sorted, "bytes_by_node not in node order");
    assert_eq!(a.results, b.results, "results differ across runs");
    assert_eq!(
        a.bytes_by_node, b.bytes_by_node,
        "per-node byte counts differ across runs: frame bytes are not \
         content-deterministic"
    );
}

/// `net::merge` (`UnfixedRootMerger` B-tree queues): session windows
/// merged at the root across children emit identically (results *and*
/// bytes) across two runs of the same plan.
#[test]
fn unfixed_root_merge_is_run_twice_identical() {
    let queries = vec![Query::new(
        1,
        WindowSpec::session(400).unwrap(),
        AggFunction::Max,
    )];
    let feeds: Vec<Vec<Event>> = (0..3u64)
        .map(|i| {
            DataGenerator::new(DataGenConfig {
                keys: 6,
                events_per_second: 1_000,
                bursts: Some(desis::gen::BurstConfig {
                    burst_ms: 800,
                    gap_ms: 600,
                }),
                seed: 70 + i,
                ..Default::default()
            })
            .take(3_000)
            .collect()
        })
        .collect();
    let run = || {
        let cfg = ClusterConfig::new(DistributedSystem::Desis, queries.clone(), Topology::star(3));
        run_cluster(cfg, feeds.clone()).unwrap()
    };
    let a = run();
    let b = run();
    assert!(!a.results.is_empty());
    assert_eq!(a.results, b.results, "session results differ across runs");
    assert_eq!(a.bytes_by_node, b.bytes_by_node);
}

// ---------------------------------------------------------------------
// Hostile frames: input from outside the process must never panic the
// root.
// ---------------------------------------------------------------------

/// `net::codec` accepts any selection count up to its cap and nothing
/// compares it with the group's, so a checksum-valid slice frame can
/// declare *zero* selections. The slice-store kernel reads selections
/// with `get`: the frame is an empty contribution, not an
/// index-out-of-bounds panic, and honest slices after it still produce
/// their results. Drives `RootWorker::on_message` with such a frame
/// (carrying `ends`) for the one-query group of `query` — or, with
/// `stray_group`, for a group id the root never registered.
fn short_frame_then_honest_stream(query: Query, ends: Vec<WindowEnd>, stray_group: Option<u32>) {
    use desis::core::engine::slice::SliceData;
    use desis::net::node::{analyze_for, RootWorker};

    let queries = vec![query];
    let groups = analyze_for(DistributedSystem::Desis, queries.clone()).unwrap();
    assert_eq!(groups.len(), 1);
    let group = groups[0].id;
    let mut root =
        RootWorker::new(DistributedSystem::Desis, &groups, &queries, 1, vec![1]).unwrap();

    let hostile = Message::Slice {
        group: stray_group.unwrap_or(group),
        origin: 1,
        coverage: 1,
        partial: SealedSlice {
            id: 0,
            start_ts: 0,
            end_ts: 1_000,
            data: SliceData::new(0),
            ends,
            session_gaps: Vec::new(),
            low_watermark: 0,
            low_watermark_ts: 0,
            trace: None,
        },
    };
    let frame = CodecKind::Binary.encode(&hostile);
    let decoded = CodecKind::Binary.decode(&frame).expect("frame is valid");
    assert_eq!(decoded, hostile, "the codec must accept the short frame");
    root.on_message(1, decoded);
    root.on_message(1, Message::Watermark(1_500));
    assert!(root.drain_results().is_empty(), "no data, no result");

    let mut slicer = GroupSlicer::new(groups[0].clone());
    let mut slices = Vec::new();
    slicer.on_event(&Event::new(2_100, 7, 5.0), &mut slices);
    slicer.on_watermark(10_000, &mut slices);
    for partial in slices.drain(..) {
        root.on_message(
            1,
            Message::Slice {
                group,
                origin: 1,
                coverage: 1,
                partial,
            },
        );
    }
    root.on_message(1, Message::Watermark(10_000));
    root.on_message(1, Message::Flush);
    let results = root.drain_results();
    assert_eq!(results.len(), 1, "{results:?}");
    assert_eq!(results[0].key, 7);
    assert_eq!(results[0].values, vec![Some(5.0)]);
}

/// Aligned group (`AlignedSliceMerger` → `TimeAssembler`): the tumbling
/// window [0, 1000) ends with the zero-selection slice.
#[test]
fn zero_selection_slice_frame_does_not_panic_an_aligned_root_group() {
    let query = Query::new(
        1,
        WindowSpec::tumbling_time(1_000).unwrap(),
        AggFunction::Sum,
    );
    short_frame_then_honest_stream(query, Vec::new(), None);
}

/// Session group (`UnfixedRootMerger`): the zero-selection slice claims
/// to close a session of the query.
#[test]
fn zero_selection_slice_frame_does_not_panic_a_session_root_group() {
    let query = Query::new(1, WindowSpec::session(500).unwrap(), AggFunction::Sum);
    let end = WindowEnd {
        query: 1,
        first_slice: 0,
        last_slice: 0,
        start_ts: 0,
        end_ts: 1_000,
    };
    short_frame_then_honest_stream(query, vec![end], None);
}

/// A checksum-valid slice frame can name a group the root never
/// registered (or one it re-slices from raw events). The root used to
/// hit `debug_assert!(false, "slice for raw/unknown group")` — a panic in
/// every debug and test build, a silent drop in release. It is dropped
/// and counted (`net.root.unroutable_msgs`), and the honest stream after
/// it still produces its result.
#[test]
fn slice_frame_for_an_unknown_group_does_not_panic_the_root() {
    let query = Query::new(
        1,
        WindowSpec::tumbling_time(1_000).unwrap(),
        AggFunction::Sum,
    );
    short_frame_then_honest_stream(query, Vec::new(), Some(999));
}

/// A checksum-valid Disco frame can carry a window partial for a query
/// nobody installed. `WindowPartialMerger::on_partial` used to pend and
/// complete it, and `finalize` then hit `debug_assert!(false, "unknown
/// query")`. The partial is rejected before it is pended; the honest
/// partials after it still finalize.
#[test]
fn window_partial_for_an_unknown_query_does_not_panic_a_disco_root() {
    use desis::net::node::{analyze_for, LocalWorker, RootWorker};

    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(1_000).unwrap(),
        AggFunction::Sum,
    )];
    let groups = analyze_for(DistributedSystem::Disco, queries.clone()).unwrap();
    let mut root =
        RootWorker::new(DistributedSystem::Disco, &groups, &queries, 1, vec![1]).unwrap();

    let hostile = Message::WindowPartials {
        origin: 1,
        coverage: 1,
        partials: vec![WindowPartial {
            query: 77,
            start_ts: 0,
            end_ts: 1_000,
            data: Vec::new(),
        }],
    };
    let frame = CodecKind::Text.encode(&hostile);
    let decoded = CodecKind::Text.decode(&frame).expect("frame is valid");
    assert_eq!(decoded, hostile);
    root.on_message(1, decoded);
    assert!(root.drain_results().is_empty());

    let mut local = LocalWorker::new(1, DistributedSystem::Disco, &groups, 64, 1_000);
    let (mut tx, rx, _) = desis::net::link::link(CodecKind::Text, 64, None);
    assert!(local.on_event(&Event::new(100, 7, 5.0), &mut tx));
    assert!(local.finish(2_000, &mut tx));
    drop(tx);
    while let Some(msg) = rx.recv() {
        root.on_message(1, msg.expect("clean frame"));
    }
    let results: Vec<_> = root
        .drain_results()
        .into_iter()
        .filter(|r| r.values != vec![None])
        .collect();
    assert_eq!(results.len(), 1, "{results:?}");
    assert_eq!(results[0].key, 7);
    assert_eq!(results[0].values, vec![Some(5.0)]);
}

// ---------------------------------------------------------------------
// Idle local in a mixed group.
// ---------------------------------------------------------------------

/// A tumbling query that shares its group with a session query merges
/// per window at the root. Local 2 never sees an event, so its slicer
/// seals nothing — only its watermarks say time passed. The root used to
/// hold the tumbling window `[0, 100)` for a second contribution that
/// could not come and dropped it silently; it must leave once the merged
/// watermark passes its end, like the session does at flush.
#[test]
fn idle_local_does_not_swallow_a_mixed_groups_tumbling_window() {
    use desis::net::node::{analyze_for, RootWorker};

    let queries = vec![
        Query::new(1, WindowSpec::session(100).unwrap(), AggFunction::Sum),
        Query::new(2, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum),
    ];
    let events = [Event::new(0, 0, 1.0), Event::new(50, 0, 2.0)];
    let groups = analyze_for(DistributedSystem::Desis, queries.clone()).unwrap();
    assert_eq!(groups.len(), 1);
    assert!(groups[0].has_unfixed_windows());
    let group = groups[0].id;
    let mut root =
        RootWorker::new(DistributedSystem::Desis, &groups, &queries, 2, vec![1, 2]).unwrap();

    let mut busy = GroupSlicer::new(groups[0].clone());
    let mut slices = Vec::new();
    for ev in &events {
        busy.on_event(ev, &mut slices);
    }
    busy.on_watermark(1_000, &mut slices);
    let mut idle = GroupSlicer::new(groups[0].clone());
    let mut nothing = Vec::new();
    idle.on_watermark(1_000, &mut nothing);
    assert!(nothing.is_empty(), "an idle slicer seals no slice");

    for partial in slices {
        let msg = Message::Slice {
            group,
            origin: 1,
            coverage: 1,
            partial,
        };
        root.on_message(1, msg);
    }
    for child in [1, 2] {
        root.on_message(child, Message::Watermark(1_000));
    }
    for child in [1, 2] {
        root.on_message(child, Message::Flush);
    }
    let reference = run_engine(queries, &events, 1_000);
    assert_eq!(reference.len(), 2, "{reference:?}");
    assert_eq!(canon(root.drain_results()), reference);
}

/// Timestamps at the top of the `u64` range: the punctuation after the
/// last representable one does not exist, so the windows holding the last
/// events never fire — on every engine, without wrapping to a tiny
/// punctuation (release builds used to walk ~10^18 boundaries from there)
/// or overflowing (debug builds used to panic in `time.rs`).
#[test]
fn timestamps_near_u64_max_neither_hang_nor_panic() {
    const MAX: Timestamp = Timestamp::MAX; // ends in …615
    let queries = || {
        vec![
            Query::new(1, WindowSpec::tumbling_time(10).unwrap(), AggFunction::Sum),
            Query::new(
                2,
                WindowSpec::sliding_time(20, 10).unwrap(),
                AggFunction::Count,
            ),
            Query::new(3, WindowSpec::session(3).unwrap(), AggFunction::Max),
        ]
    };
    let events = [
        Event::new(MAX - 25, 0, 1.0),
        Event::new(MAX - 15, 0, 2.0),
        Event::new(MAX - 5, 0, 4.0),
        Event::new(MAX, 0, 8.0),
    ];
    let reference = run_engine(queries(), &events, MAX);
    // The last representable boundary is …610: tumbling […590, …600) and
    // […600, …610), sliding […580, …600) and […590, …610), and all four
    // sessions (the last one's gap end saturates onto the final watermark).
    let tumbling: Vec<_> = reference.iter().filter(|r| r.query == 1).collect();
    assert_eq!(tumbling.len(), 2, "{reference:?}");
    assert_eq!(tumbling[1].window_end, MAX - 5);
    assert_eq!(tumbling[1].values, vec![Some(2.0)]);
    assert_eq!(reference.iter().filter(|r| r.query == 2).count(), 2);
    assert_eq!(reference.iter().filter(|r| r.query == 3).count(), 4);

    let parallel = canon(run_parallel_engine(queries(), &events, 2, MAX));
    assert_eq!(parallel, reference);

    let cfg = ClusterConfig::new(DistributedSystem::Desis, queries(), Topology::star(1));
    let report = run_cluster(cfg, vec![events.to_vec()]).unwrap();
    assert_eq!(canon(report.results), reference);
}

/// Paper Section 4.3 / Figure 13a, counted: some sixty correlated
/// windows over sort-based partials cost the engine at most half the
/// bundle merges of putting every window end together by itself, because
/// windows that end at one slice are nested suffixes of the store and
/// each starts from the next shorter one. The reference is the kernel's
/// own oracle — one `SliceStore::merge_range` per window end over the
/// same slices — so the ratio cannot drift back unnoticed (ROADMAP item
/// 1), and the results are still the naive baseline's.
#[test]
fn correlated_sort_windows_take_half_the_merges_of_a_scan_per_window() {
    use desis::core::engine::merge::{query_infos, KeyedBundles, SliceRange, SliceStore};
    use desis::core::engine::{GroupSlicer, QueryAnalyzer};

    // One 500 ms grid: thirty tumbling lengths and thirty longer sliding
    // ones, no two alike, steps of 1, 2, 3 and 5 ticks.
    const TICK: u64 = 500;
    let functions = [
        AggFunction::Median,
        AggFunction::Quantile(0.9),
        AggFunction::Sum,
    ];
    let queries: Vec<Query> = (1..=60u64)
        .map(|id| {
            let window = if id <= 30 {
                WindowSpec::tumbling_time(id * TICK)
            } else {
                let step = [1, 2, 3, 5][(id % 4) as usize];
                WindowSpec::sliding_time(id * TICK, step * TICK)
            };
            Query::new(id, window.unwrap(), functions[(id % 3) as usize])
        })
        .collect();
    // 40 s of events, 64 keys in rotation (a key comes up every 1.28 s,
    // so slices hold some keys and miss others), whole values: medians
    // and sums are exact in every system.
    let events: Vec<Event> = (0..2_000u64)
        .map(|i| Event::new(i * 20, (i % 64) as Key, ((i * 7919) % 101) as f64))
        .collect();
    let final_wm = 40_000;

    let mut engine = AggregationEngine::new(queries.clone()).unwrap();
    for ev in &events {
        engine.on_event(ev);
    }
    engine.on_watermark(final_wm);
    let results = canon(engine.drain_results());
    let merges = engine.metrics().merges;

    let mut groups = QueryAnalyzer::default().analyze(queries.clone()).unwrap();
    assert_eq!(groups.len(), 1, "one query-group, so one store");
    let group = groups.remove(0);
    let infos: std::collections::BTreeMap<_, _> = query_infos(&group).collect();
    let mut slicer = GroupSlicer::new(group);
    let mut slices = Vec::new();
    for ev in &events {
        slicer.on_event(ev, &mut slices);
    }
    slicer.on_watermark(final_wm, &mut slices);
    let mut store = SliceStore::default();
    let (mut scan_merges, mut window_ends) = (0, 0);
    for slice in slices {
        store.push(slice.id, slice.start_ts, slice.end_ts, slice.data);
        for end in &slice.ends {
            let range = SliceRange::Ids(end.first_slice, end.last_slice);
            let selection = infos[&end.query].selection;
            scan_merges += store.merge_range(range, selection, &mut KeyedBundles::default());
            window_ends += 1;
        }
        store.gc_ids(slice.low_watermark);
    }
    assert!(window_ends > 500, "{window_ends} window ends");
    assert!(
        2 * merges <= scan_merges,
        "{merges} merges against {scan_merges} for one scan per window end"
    );

    // The most naive baseline: a buffer per window, aggregated at its end.
    let mut naive = SystemKind::CeBuffer.build(queries).unwrap();
    let mut expected = Vec::new();
    for ev in &events {
        naive.on_event(ev);
        expected.extend(naive.drain_results());
    }
    naive.on_watermark(final_wm);
    expected.extend(naive.drain_results());
    assert_eq!(results, canon(expected));
}

/// Paper Section 3.2, runtime removal: one retirement rule on all three
/// engines. `tumbling(1000)` + `sliding(2000, 500)` Sum, one event per
/// millisecond for 8 s over four keys, the sliding query removed before
/// the event at 3250 with **no** watermark in front of the removal.
/// Immediate: its windows ending at or before 3249 emit (last end 3000);
/// draining: so do the windows that started by then (last end 5000);
/// nothing later. The sequential engine is the oracle — for the cluster
/// it is told `on_watermark(T - 1)` before the removal and the script
/// says `T`. Before the rule lived in one terminal the sharded engine
/// emitted nothing for the query in either mode (the collector dropped
/// it together with the slices still in flight) and the root kept
/// assembling until its next watermark (last ends 4000 and 6000).
///
/// A paced cluster is a live source and heartbeats through the gaps of
/// its feed (the window boundaries and grid points inside them): with the
/// stream silent from 2900 to 4100 the removal lands inside a gap, after
/// the heartbeat at 3000 and before the one at 3500, and the answer is
/// still the sequential engine's over the same stream.
#[test]
fn remove_query_gives_one_answer_on_all_three_engines() {
    const T: Timestamp = 3_250;
    let queries = || {
        vec![
            Query::new(
                1,
                WindowSpec::tumbling_time(1_000).unwrap(),
                AggFunction::Sum,
            ),
            Query::new(
                2,
                WindowSpec::sliding_time(2_000, 500).unwrap(),
                AggFunction::Sum,
            ),
        ]
    };
    let events: Vec<Event> = (0..8_000u64)
        .map(|ts| Event::new(ts, (ts % 4) as Key, (ts % 13) as f64))
        .collect();
    let (before, after) = events.split_at(T as usize);
    let gapped: Vec<Event> = events
        .iter()
        .filter(|ev| !(2_900..4_100).contains(&ev.ts))
        .copied()
        .collect();
    let final_wm = 12_000;

    for (immediate, results, last_end) in [(true, 12, 3_000), (false, 28, 5_000)] {
        let sequential_over = |events: &[Event], watermark_first: bool| {
            let mut engine = AggregationEngine::new(queries()).unwrap();
            let (before, after) = events.split_at(events.partition_point(|ev| ev.ts < T));
            before.iter().for_each(|ev| engine.on_event(ev));
            if watermark_first {
                engine.on_watermark(T - 1);
            }
            engine.remove_query(2, immediate).unwrap();
            after.iter().for_each(|ev| engine.on_event(ev));
            engine.on_watermark(final_wm);
            canon(engine.drain_results())
        };
        let sequential = |watermark_first: bool| sequential_over(&events, watermark_first);
        let oracle = sequential(false);
        let removed: Vec<_> = oracle.iter().filter(|r| r.query == 2).collect();
        assert_eq!(removed.len(), results, "immediate={immediate}");
        assert_eq!(removed.iter().map(|r| r.window_end).max(), Some(last_end));
        assert_eq!(
            sequential(true),
            oracle,
            "a watermark at T - 1 changes nothing"
        );

        for shards in [1, 2, 4, 7] {
            let mut engine = ParallelEngine::new(queries(), shards).unwrap();
            before.iter().for_each(|ev| engine.on_event(ev));
            engine.remove_query(2, immediate);
            after.iter().for_each(|ev| engine.on_event(ev));
            engine.on_watermark(final_wm);
            engine.finish();
            assert_eq!(
                canon(engine.drain_results()),
                oracle,
                "immediate={immediate} shards={shards}"
            );
        }

        let gapped_oracle = sequential_over(&gapped, true);
        let removed = gapped_oracle.iter().filter(|r| r.query == 2);
        assert_eq!(removed.map(|r| r.window_end).max(), Some(last_end));
        // Unpaced over the dense stream; paced (8 s of event time in
        // 20 ms) over the gapped one.
        let cases = [
            (&events, &oracle, None),
            (&gapped, &gapped_oracle, Some(400.0)),
        ];
        for (stream, oracle, pace_speedup) in cases {
            for topology in [Topology::star(2), Topology::three_tier(1, 2)] {
                let mut cfg = ClusterConfig::new(DistributedSystem::Desis, queries(), topology);
                cfg.script = vec![(T, ClusterCommand::RemoveQuery { id: 2, immediate })];
                cfg.pace_speedup = pace_speedup;
                // Keys 0 and 2 on one local, 1 and 3 on the other.
                let report = run_cluster(cfg, shard_by_key(stream, 2)).unwrap();
                let heartbeats = report.metrics.counters["cluster.heartbeats"];
                assert_eq!(heartbeats >= 4, pace_speedup.is_some());
                assert_eq!(
                    &canon(report.results),
                    oracle,
                    "immediate={immediate} paced={}",
                    pace_speedup.is_some()
                );
            }
        }
    }
}
