//! Same-millisecond events on several children reach the root in one
//! order — `(timestamp, child, position in the child's stream)` — however
//! the children's batches are cut and whichever arrives first. Count
//! windows close on the n-th event, so their results depend on it.

use desis_core::aggregate::AggFunction;
use desis_core::engine::AggregationEngine;
use desis_core::event::Event;
use desis_core::query::Query;
use desis_core::window::WindowSpec;
use desis_net::cluster::shard_by_key;
use desis_net::merge::EventMerger;
use desis_net::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// One message of a child's stream.
#[derive(Debug, Clone)]
enum Sent {
    Batch(Vec<Event>),
    Watermark(u64),
}

/// Feeds `streams[c][next[c]..]` to `merger` in every possible arrival
/// order, draining after every message as a node does, and checks the
/// total output once all children flushed.
fn every_interleaving(
    ids: &[NodeId],
    streams: &[Vec<Sent>],
    next: &mut Vec<usize>,
    arrived: &mut Vec<usize>,
    expected: &[Event],
    cases: &mut u64,
) {
    let mut done = true;
    for c in 0..streams.len() {
        if next[c] < streams[c].len() {
            done = false;
            next[c] += 1;
            arrived.push(c);
            every_interleaving(ids, streams, next, arrived, expected, cases);
            arrived.pop();
            next[c] -= 1;
        }
    }
    if !done {
        return;
    }
    *cases += 1;
    let mut merger = EventMerger::new(ids.len());
    let mut out = Vec::new();
    let mut position = vec![0; streams.len()];
    for &c in arrived.iter() {
        match &streams[c][position[c]] {
            Sent::Batch(events) => merger.on_events(ids[c], events.clone()),
            Sent::Watermark(ts) => merger.on_watermark(ids[c], *ts),
        }
        position[c] += 1;
        merger.drain_ready(&mut out);
    }
    for &id in ids {
        merger.on_flush(id);
        merger.drain_ready(&mut out);
    }
    assert!(merger.finished());
    assert_eq!(out, expected, "arrival order {arrived:?} of {streams:?}");
}

#[test]
fn every_batch_split_and_arrival_order_merges_into_one_sequence() {
    let mut rng = SmallRng::seed_from_u64(24);
    let mut cases = 0;
    // Child ids are neither dense nor in stream order: ties go by id.
    for (ids, per_child, rounds) in [(vec![9, 4], 4usize, 8), (vec![5, 8, 2], 3usize, 3)] {
        for _ in 0..rounds {
            // A few milliseconds, most of them shared.
            let events: Vec<Vec<Event>> = ids
                .iter()
                .map(|&id| {
                    let mut ts = 10;
                    (0..per_child)
                        .map(|pos| {
                            ts += rng.gen_range(0..3u64) / 2;
                            Event::new(ts, id, pos as f64)
                        })
                        .collect()
                })
                .collect();
            let mut expected: Vec<Event> = events.iter().flatten().copied().collect();
            expected.sort_by_key(|ev| (ev.ts, ev.key));

            // Every way to cut each child's stream into batches; after a
            // batch a child may also send a watermark from inside the
            // batch's last millisecond.
            for cuts in 0..1u32 << ((per_child - 1) * ids.len()) {
                let streams: Vec<Vec<Sent>> = events
                    .iter()
                    .enumerate()
                    .map(|(c, events)| {
                        let mut stream = Vec::new();
                        let mut batch = Vec::new();
                        for (pos, ev) in events.iter().enumerate() {
                            batch.push(*ev);
                            let bit = c * (per_child - 1) + pos;
                            if pos + 1 == per_child || cuts >> bit & 1 == 1 {
                                stream.push(Sent::Batch(std::mem::take(&mut batch)));
                                if rng.gen_bool(0.25) {
                                    stream.push(Sent::Watermark(ev.ts));
                                }
                            }
                        }
                        stream
                    })
                    .collect();
                let mut next = vec![0; ids.len()];
                every_interleaving(
                    &ids,
                    &streams,
                    &mut next,
                    &mut Vec::new(),
                    &expected,
                    &mut cases,
                );
            }
        }
    }
    assert!(cases > 100_000, "{cases} cases");
}

/// A count window over keys that live on different locals, every
/// millisecond on both: the cluster gives the sequential engine's answer
/// over the stream merged by `(timestamp, local)`, on a star and through
/// an intermediate, every time.
#[test]
fn count_windows_over_shared_milliseconds_match_the_sequential_engine() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_count(7).unwrap(),
        AggFunction::Sum,
    )];
    // Four events per millisecond, keys 0 and 2 on one local, 1 and 3 on
    // the other; values make every window's sum depend on its members.
    let events: Vec<Event> = (0..6_000u64)
        .map(|i| Event::new(i / 4, (i % 4) as u32, (i * i % 1_009) as f64))
        .collect();
    let feeds = shard_by_key(&events, 2);
    let mut merged: Vec<(usize, Event)> = feeds
        .iter()
        .enumerate()
        .flat_map(|(local, feed)| feed.iter().map(move |ev| (local, *ev)))
        .collect();
    merged.sort_by_key(|(local, ev)| (ev.ts, *local));
    let mut engine = AggregationEngine::new(queries.clone()).unwrap();
    merged.iter().for_each(|(_, ev)| engine.on_event(ev));
    engine.on_watermark(10_000);
    let mut expected = engine.drain_results();
    desis_core::query::sort_results(&mut expected);
    assert_eq!(expected.len() as u64, 6_000 / 7 * 4);

    for topology in [Topology::star(2), Topology::three_tier(1, 2)] {
        for batch_size in [5, 64, 512] {
            let mut cfg =
                ClusterConfig::new(DistributedSystem::Desis, queries.clone(), topology.clone());
            // Batches end inside milliseconds.
            cfg.batch_size = batch_size;
            let report = run_cluster(cfg, feeds.clone()).unwrap();
            assert_eq!(report.root_raw_events, 6_000);
            assert_eq!(report.results, expected, "batch size {batch_size}");
        }
    }
}

/// A scripted removal at `T` takes effect after every event of
/// millisecond `T − 1`, also the higher local's, which the root holds
/// until the lower local has vouched past that millisecond: a sliding
/// count window that such an event closes (immediate) or opens (draining)
/// is the sequential engine's.
#[test]
fn a_removal_on_a_shared_millisecond_matches_the_sequential_engine() {
    const T: u64 = 777;
    let queries = vec![
        Query::new(
            1,
            WindowSpec::sliding_count(9, 2).unwrap(),
            AggFunction::Sum,
        ),
        Query::new(2, WindowSpec::tumbling_count(5).unwrap(), AggFunction::Sum),
        Query::new(3, WindowSpec::session(20).unwrap(), AggFunction::Count),
    ];
    // Four events per millisecond, two on each local; nothing in the 100
    // milliseconds from the removal on, so a paced local's clock stands
    // at T − 1 for a while: the root has both watermarks at T − 1 long
    // before the lower local vouches past it.
    let events: Vec<Event> = (0..6_000u64)
        .map(|i| Event::new(i / 4, (i % 4) as u32, (i * i % 1_009) as f64))
        .filter(|ev| !(T..T + 100).contains(&ev.ts))
        .collect();
    let feeds = shard_by_key(&events, 2);
    let mut merged: Vec<(usize, Event)> = feeds
        .iter()
        .enumerate()
        .flat_map(|(local, feed)| feed.iter().map(move |ev| (local, *ev)))
        .collect();
    merged.sort_by_key(|(local, ev)| (ev.ts, *local));
    for immediate in [true, false] {
        let mut engine = AggregationEngine::new(queries.clone()).unwrap();
        let (before, after) = merged.split_at(merged.partition_point(|(_, ev)| ev.ts < T));
        before.iter().for_each(|(_, ev)| engine.on_event(ev));
        engine.on_watermark(T - 1);
        for id in [1, 3] {
            engine.remove_query(id, immediate).unwrap();
        }
        after.iter().for_each(|(_, ev)| engine.on_event(ev));
        engine.on_watermark(10_000);
        let mut expected = engine.drain_results();
        desis_core::query::sort_results(&mut expected);

        for topology in [Topology::star(2), Topology::three_tier(1, 2)] {
            for (batch_size, pace_speedup) in [(3, None), (64, None), (64, Some(5.0))] {
                let mut cfg =
                    ClusterConfig::new(DistributedSystem::Desis, queries.clone(), topology.clone());
                cfg.batch_size = batch_size;
                cfg.pace_speedup = pace_speedup;
                cfg.script = [1, 3]
                    .map(|id| (T, ClusterCommand::RemoveQuery { id, immediate }))
                    .to_vec();
                let report = run_cluster(cfg, feeds.clone()).unwrap();
                assert_eq!(
                    report.results, expected,
                    "immediate={immediate}, batch size {batch_size}, pace {pace_speedup:?}"
                );
            }
        }
    }
}
