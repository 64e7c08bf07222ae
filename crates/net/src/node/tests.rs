//! Unit tests of the node workers: each role driven by hand-built
//! messages over standalone links, runtime group installation and query
//! removal, and the child clock.

#![cfg(test)]

use super::*;
use crate::codec::CodecKind;
use crate::link::link;
use desis_core::aggregate::AggFunction;
use desis_core::window::WindowSpec;

#[test]
fn local_worker_ships_slices_not_events() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(100).unwrap(),
        AggFunction::Average,
    )];
    let groups = analyze_for(DistributedSystem::Desis, queries).unwrap();
    let mut local = LocalWorker::new(3, DistributedSystem::Desis, &groups, 64, 1_000);
    let (mut tx, rx, stats) = link(CodecKind::Binary, 4096, None);
    for i in 0..1_000u64 {
        assert!(local.on_event(&Event::new(i, 0, 1.0), &mut tx));
    }
    assert!(local.finish(1_000, &mut tx));
    drop(tx);
    let mut slices = 0;
    let mut raw = 0;
    while let Some(msg) = rx.recv() {
        match msg.unwrap() {
            Message::Slice { .. } => slices += 1,
            Message::Events(_) => raw += 1,
            _ => {}
        }
    }
    assert!(slices >= 10, "{slices}");
    assert_eq!(raw, 0);
    // Partial results are tiny compared to 1000 raw events.
    assert!(stats.bytes() < 10_000, "{} bytes", stats.bytes());
    assert_eq!(local.metrics().events, 1_000);
}

#[test]
fn local_worker_forwards_raw_for_count_groups() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_count(10).unwrap(),
        AggFunction::Sum,
    )];
    let groups = analyze_for(DistributedSystem::Desis, queries).unwrap();
    let mut local = LocalWorker::new(0, DistributedSystem::Desis, &groups, 16, 1_000);
    let (mut tx, rx, _) = link(CodecKind::Binary, 4096, None);
    for i in 0..100u64 {
        assert!(local.on_event(&Event::new(i, 0, 1.0), &mut tx));
    }
    assert!(local.finish(1_000, &mut tx));
    drop(tx);
    let mut raw_events = 0;
    while let Some(msg) = rx.recv() {
        if let Message::Events(events) = msg.unwrap() {
            raw_events += events.len();
        }
    }
    assert_eq!(raw_events, 100);
}

/// A local's next heartbeat is the earliest of its slicers' pending
/// punctuations and the next grid point, strictly after what it vouched
/// for; a watermark never takes that back, and `finish` starts from it.
#[test]
fn local_heartbeats_follow_punctuations_and_the_grid_and_never_go_back() {
    let queries = vec![
        Query::new(1, WindowSpec::tumbling_time(400).unwrap(), AggFunction::Sum),
        Query::new(2, WindowSpec::session(150).unwrap(), AggFunction::Sum),
        // Raw-shipped: only the root slices it, so it rides the grid.
        Query::new(3, WindowSpec::tumbling_count(10).unwrap(), AggFunction::Sum),
    ];
    let groups = analyze_for(DistributedSystem::Desis, queries).unwrap();
    let mut local = LocalWorker::new(1, DistributedSystem::Desis, &groups, 64, 1_000);
    let (mut tx, rx, _) = link(CodecKind::Binary, 4096, None);
    assert_eq!(local.next_heartbeat(), None, "no stream, no clock");
    assert!(local.on_event(&Event::new(130, 0, 1.0), &mut tx));
    let mut beats = Vec::new();
    while let Some(t) = local.next_heartbeat().filter(|t| *t < 2_100) {
        beats.push(t);
        assert!(local.on_watermark(t, &mut tx));
    }
    assert_eq!(beats, [280, 400, 800, 1_000, 1_200, 1_600, 2_000]);
    // Late news changes nothing: the node stands by 2 000.
    assert!(local.on_watermark(1_234, &mut tx));
    assert_eq!(local.next_heartbeat(), Some(2_400));
    assert!(local.finish(500, &mut tx));
    drop(tx);
    let mut watermarks = Vec::new();
    while let Some(msg) = rx.recv() {
        if let Message::Watermark(ts) = msg.unwrap() {
            watermarks.push(ts);
        }
    }
    beats.extend([2_000, 2_500]);
    assert_eq!(watermarks, beats);
}

#[test]
fn intermediate_merges_before_forwarding() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(100).unwrap(),
        AggFunction::Sum,
    )];
    let groups = analyze_for(DistributedSystem::Desis, queries).unwrap();
    let gid = groups[0].id;
    let (mut up_tx, up_rx, _) = link(CodecKind::Binary, 4096, None);
    let mut inter = IntermediateWorker::new(9, DistributedSystem::Desis, &groups, 2, vec![1, 2]);
    // Two children each deliver the slice [0,100).
    let mk_partial = |value: f64| {
        let mut slicer = GroupSlicer::new(groups[0].clone());
        let mut out = Vec::new();
        slicer.on_event(&Event::new(0, 0, value), &mut out);
        slicer.on_watermark(100, &mut out);
        out.remove(0)
    };
    let m1 = Message::Slice {
        group: gid,
        origin: 1,
        coverage: 1,
        partial: mk_partial(2.0),
    };
    let m2 = Message::Slice {
        group: gid,
        origin: 2,
        coverage: 1,
        partial: mk_partial(3.0),
    };
    assert!(inter.on_message(1, m1, &mut up_tx));
    assert!(inter.on_message(2, m2, &mut up_tx));
    assert!(inter.on_message(1, Message::Flush, &mut up_tx));
    assert!(!inter.finished());
    assert!(inter.on_message(2, Message::Flush, &mut up_tx));
    assert!(inter.finished());
    drop(up_tx);
    let mut merged_slices = 0;
    while let Some(msg) = up_rx.recv() {
        if let Message::Slice {
            coverage, partial, ..
        } = msg.unwrap()
        {
            merged_slices += 1;
            assert_eq!(coverage, 2);
            let sum: f64 = partial.data.per_selection[0]
                .values()
                .filter_map(|b| b.finalize(&AggFunction::Sum))
                .sum();
            assert_eq!(sum, 5.0);
        }
    }
    assert_eq!(merged_slices, 1);
}

#[test]
fn intermediate_watermark_completes_idle_child_slices() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(100).unwrap(),
        AggFunction::Sum,
    )];
    let groups = analyze_for(DistributedSystem::Desis, queries).unwrap();
    let gid = groups[0].id;
    let (mut up_tx, up_rx, _) = link(CodecKind::Binary, 4096, None);
    let mut inter = IntermediateWorker::new(9, DistributedSystem::Desis, &groups, 2, vec![1, 2]);
    let mk_partial = |value: f64| {
        let mut slicer = GroupSlicer::new(groups[0].clone());
        let mut out = Vec::new();
        slicer.on_event(&Event::new(0, 0, value), &mut out);
        slicer.on_watermark(100, &mut out);
        out.remove(0)
    };
    // Only child 1 has data; child 2 is idle but watermarks.
    assert!(inter.on_message(
        1,
        Message::Slice {
            group: gid,
            origin: 1,
            coverage: 1,
            partial: mk_partial(2.0),
        },
        &mut up_tx,
    ));
    assert!(inter.on_message(1, Message::Watermark(100), &mut up_tx));
    assert!(inter.on_message(2, Message::Watermark(100), &mut up_tx));
    drop(up_tx);
    let mut merged = 0;
    while let Some(msg) = up_rx.recv() {
        if let Message::Slice { partial, .. } = msg.unwrap() {
            merged += 1;
            assert_eq!(partial.end_ts, 100);
        }
    }
    assert_eq!(merged, 1);
}

#[test]
fn root_worker_assembles_fixed_windows() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(100).unwrap(),
        AggFunction::Average,
    )];
    let groups = analyze_for(DistributedSystem::Desis, queries.clone()).unwrap();
    let gid = groups[0].id;
    let mut root =
        RootWorker::new(DistributedSystem::Desis, &groups, &queries, 2, vec![0, 1]).unwrap();
    for child in 0..2u32 {
        let mut slicer = GroupSlicer::new(groups[0].clone());
        let mut out = Vec::new();
        slicer.on_event(&Event::new(10, 0, (child + 1) as f64 * 10.0), &mut out);
        slicer.on_watermark(100, &mut out);
        for partial in out {
            root.on_message(
                child,
                Message::Slice {
                    group: gid,
                    origin: child,
                    coverage: 1,
                    partial,
                },
            );
        }
        root.on_message(child, Message::Flush);
    }
    assert!(root.finished());
    let results = root.drain_results();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].values, vec![Some(15.0)]);
}

#[test]
fn centralized_root_processes_raw_stream() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(100).unwrap(),
        AggFunction::Sum,
    )];
    let system = DistributedSystem::Centralized(desis_baselines::SystemKind::Scotty);
    let groups = analyze_for(system, queries.clone()).unwrap();
    let mut root = RootWorker::new(system, &groups, &queries, 2, vec![0, 1]).unwrap();
    root.on_message(0, Message::Events(vec![Event::new(0, 0, 1.0)]));
    root.on_message(1, Message::Events(vec![Event::new(50, 0, 2.0)]));
    root.on_message(0, Message::Watermark(500));
    root.on_message(1, Message::Watermark(500));
    root.on_message(0, Message::Flush);
    root.on_message(1, Message::Flush);
    let results = root.drain_results();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].values, vec![Some(3.0)]);
    assert_eq!(root.raw_events_processed(), 2);
}

#[test]
fn local_worker_add_group_starts_slicing_new_query() {
    let initial = vec![Query::new(
        1,
        WindowSpec::tumbling_time(100).unwrap(),
        AggFunction::Sum,
    )];
    let groups = analyze_for(DistributedSystem::Desis, initial).unwrap();
    let mut local = LocalWorker::new(0, DistributedSystem::Desis, &groups, 64, 10_000);
    let (mut tx, rx, _) = link(CodecKind::Binary, 1024, None);
    for ts in 0..150u64 {
        assert!(local.on_event(&Event::new(ts, 0, 1.0), &mut tx));
    }
    // Install a second query mid-stream.
    let mut added = analyze_for(
        DistributedSystem::Desis,
        vec![Query::new(
            2,
            WindowSpec::tumbling_time(50).unwrap(),
            AggFunction::Count,
        )],
    )
    .unwrap();
    added[0].id = 1;
    local.add_group(&added[0]);
    for ts in 150..400u64 {
        assert!(local.on_event(&Event::new(ts, 0, 1.0), &mut tx));
    }
    assert!(local.finish(1_000, &mut tx));
    drop(tx);
    let mut group_ids = std::collections::HashSet::new();
    while let Some(msg) = rx.recv() {
        if let Message::Slice { group, .. } = msg.unwrap() {
            group_ids.insert(group);
        }
    }
    assert!(group_ids.contains(&0));
    assert!(group_ids.contains(&1), "added group must produce slices");
}

#[test]
fn local_worker_remove_query_stops_its_windows() {
    let queries = vec![
        Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum),
        Query::new(2, WindowSpec::session(50).unwrap(), AggFunction::Count),
    ];
    let groups = analyze_for(DistributedSystem::Desis, queries).unwrap();
    let mut local = LocalWorker::new(0, DistributedSystem::Desis, &groups, 64, 10_000);
    let (mut tx, rx, _) = link(CodecKind::Binary, 1024, None);
    for ts in 0..120u64 {
        assert!(local.on_event(&Event::new(ts, 0, 1.0), &mut tx));
    }
    assert!(local.remove_query(2, true));
    assert!(!local.remove_query(2, true), "already removed");
    assert!(local.finish(1_000, &mut tx));
    drop(tx);
    let mut session_gaps = 0;
    while let Some(msg) = rx.recv() {
        if let Message::Slice { partial, .. } = msg.unwrap() {
            session_gaps += partial.session_gaps.len();
        }
    }
    // The session was dropped before its gap could fire.
    assert_eq!(session_gaps, 0);
}

/// A removal at `at` waits until event time is strictly past `at`: a
/// watermark *at* `at` says what lies below it has been sent, and the
/// higher child's raw events of that millisecond are still held behind
/// the lower child, which may add to it.
#[test]
fn root_applies_a_removal_after_the_held_events_of_its_millisecond() {
    const AT: Timestamp = 99;
    let queries = vec![Query::new(
        1,
        WindowSpec::sliding_count(4, 1).unwrap(),
        AggFunction::Sum,
    )];
    let groups = analyze_for(DistributedSystem::Desis, queries.clone()).unwrap();
    // One event per child and millisecond, up to `AT` and from `AT + 1`.
    let stream = |child: u32, span: std::ops::RangeInclusive<Timestamp>| -> Vec<Event> {
        span.map(|ts| Event::new(ts, child, (ts * 2 + u64::from(child)) as f64))
            .collect()
    };
    for immediate in [true, false] {
        let mut oracle = desis_core::engine::AggregationEngine::new(queries.clone()).unwrap();
        let merged = |span: std::ops::RangeInclusive<Timestamp>| {
            span.flat_map(|ts| [0, 1].map(|child| stream(child, ts..=ts)[0]))
        };
        merged(90..=AT).for_each(|ev| oracle.on_event(&ev));
        oracle.on_watermark(AT);
        oracle.remove_query(1, immediate).unwrap();
        merged(AT + 1..=110).for_each(|ev| oracle.on_event(&ev));
        oracle.on_watermark(1_000);
        let mut expected = oracle.drain_results();
        desis_core::query::sort_results(&mut expected);

        let mut root =
            RootWorker::new(DistributedSystem::Desis, &groups, &queries, 2, vec![0, 1]).unwrap();
        root.remove_query(1, AT, immediate);
        for child in [0, 1] {
            root.on_message(child, Message::Events(stream(child, 90..=AT)));
        }
        // Both children vouch *for* `AT`: the root's clock stands there
        // with child 1's event of that millisecond still queued.
        for child in [0, 1] {
            root.on_message(child, Message::Watermark(AT));
        }
        for child in [0, 1] {
            root.on_message(child, Message::Events(stream(child, AT + 1..=110)));
            root.on_message(child, Message::Watermark(1_000));
            root.on_message(child, Message::Flush);
        }
        assert!(root.finished());
        let mut results = root.drain_results();
        desis_core::query::sort_results(&mut results);
        assert_eq!(results, expected, "immediate={immediate}");
    }
}

#[test]
fn disco_local_ships_window_partials() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(100).unwrap(),
        AggFunction::Average,
    )];
    let groups = analyze_for(DistributedSystem::Disco, queries).unwrap();
    let mut local = LocalWorker::new(4, DistributedSystem::Disco, &groups, 64, 10_000);
    let (mut tx, rx, _) = link(CodecKind::Text, 1024, None);
    for ts in 0..500u64 {
        assert!(local.on_event(&Event::new(ts, 0, 1.0), &mut tx));
    }
    assert!(local.finish(1_000, &mut tx));
    drop(tx);
    let mut non_empty = 0;
    let mut total = 0;
    while let Some(msg) = rx.recv() {
        if let Message::WindowPartials {
            partials: p,
            origin,
            ..
        } = msg.unwrap()
        {
            assert_eq!(origin, 4);
            total += p.len();
            non_empty += p.iter().filter(|w| !w.data.is_empty()).count();
        }
    }
    // Windows [0,100) .. [400,500) carry data; the flush horizon also
    // closes empty windows (shipped for root-side coverage counting).
    assert_eq!(non_empty, 5);
    assert!(total >= non_empty);
}

#[test]
fn child_clock_effective_semantics() {
    let mut clock = ChildClock::new(vec![1, 2, 3]);
    assert_eq!(clock.effective(), 0);
    clock.on_watermark(1, 100);
    clock.on_watermark(2, 200);
    // Child 3 never reported: effective stays 0.
    assert_eq!(clock.effective(), 0);
    clock.on_watermark(3, 50);
    assert_eq!(clock.effective(), 50);
    // A flushed child stops holding the clock back.
    clock.on_flush(3);
    assert_eq!(clock.effective(), 100);
    clock.on_flush(1);
    clock.on_flush(2);
    assert!(clock.all_flushed());
    // All flushed: the maximum final watermark applies.
    assert_eq!(clock.effective(), 200);
}

/// Checksum-valid messages a node cannot route are dropped and counted;
/// the one exception is a slice of a group an intermediate never heard
/// of, which it forwards untouched (runtime-added groups rely on it).
#[test]
fn unroutable_messages_are_counted_and_unknown_slices_pass_intermediates() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(100).unwrap(),
        AggFunction::Sum,
    )];
    let stray_slice = |group: GroupId| {
        let mut slicer = GroupSlicer::new(
            analyze_for(DistributedSystem::Desis, queries.clone())
                .unwrap()
                .remove(0),
        );
        let mut out = Vec::new();
        slicer.on_event(&Event::new(0, 0, 1.0), &mut out);
        slicer.on_watermark(100, &mut out);
        Message::Slice {
            group,
            origin: 1,
            coverage: 1,
            partial: out.remove(0),
        }
    };
    let stray_partials = |query| Message::WindowPartials {
        origin: 1,
        coverage: 1,
        partials: vec![WindowPartial {
            query,
            start_ts: 0,
            end_ts: 100,
            data: Vec::new(),
        }],
    };

    let groups = analyze_for(DistributedSystem::Desis, queries.clone()).unwrap();
    let mut root =
        RootWorker::new(DistributedSystem::Desis, &groups, &queries, 1, vec![1]).unwrap();
    root.on_message(1, stray_slice(999));
    root.on_message(1, stray_partials(1));
    root.on_message(1, Message::Events(vec![Event::new(0, 0, 1.0)]));
    assert_eq!(root.unroutable(), 3);
    assert!(root.drain_results().is_empty());

    let (mut tx, rx, _) = link(CodecKind::Binary, 64, None);
    let mut inter = IntermediateWorker::new(9, DistributedSystem::Desis, &groups, 1, vec![1]);
    assert!(inter.on_message(1, stray_slice(999), &mut tx));
    assert_eq!(inter.unroutable(), 0);
    assert!(matches!(
        rx.recv().unwrap().unwrap(),
        Message::Slice {
            group: 999,
            origin: 1,
            coverage: 1,
            ..
        }
    ));
    assert!(inter.on_message(1, stray_partials(1), &mut tx));
    assert_eq!(inter.unroutable(), 1);

    let groups = analyze_for(DistributedSystem::Disco, queries).unwrap();
    let mut inter = IntermediateWorker::new(9, DistributedSystem::Disco, &groups, 1, vec![1]);
    assert!(inter.on_message(1, stray_partials(77), &mut tx));
    assert_eq!(inter.unroutable(), 1);
    assert_eq!(inter.pending_merges(), 0, "rejected before it was pended");
    assert!(inter.on_message(1, stray_partials(1), &mut tx));
    assert_eq!(inter.unroutable(), 1);
    assert!(matches!(
        rx.recv().unwrap().unwrap(),
        Message::WindowPartials { .. }
    ));
}
