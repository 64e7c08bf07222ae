//! Randomized property tests on the core invariants:
//!
//! * slicing correctness — the slicing engine and the naive per-window
//!   baseline agree on every result for arbitrary query mixes and streams;
//! * operator algebra — merges are associative/commutative and match
//!   single-pass aggregation under any split of the input;
//! * slice structure — slices partition the stream and windows are exact
//!   unions of slices;
//! * codec — wire round-trips are lossless for arbitrary messages.
//!
//! Cases are drawn from a seeded generator (`rand` shim, deterministic
//! per seed) and every assertion message carries the failing case's seed,
//! so a red run can be replayed exactly. Minimized failures graduate to
//! named regression tests in `tests/end_to_end.rs` / unit tests.

use desis::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs `cases` generated cases, seeding each deterministically.
fn for_cases(cases: u64, mut body: impl FnMut(u64, &mut SmallRng)) {
    for case in 0..cases {
        // Decorrelate case streams: consecutive ints make poor seeds for
        // eyeballing, and a fixed offset keeps suites independent.
        let seed = 0xD515_0000 + case;
        let mut rng = SmallRng::seed_from_u64(seed);
        body(seed, &mut rng);
    }
}

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

fn arb_function(rng: &mut SmallRng) -> AggFunction {
    match rng.gen_range(0u32..7) {
        0 => AggFunction::Sum,
        1 => AggFunction::Count,
        2 => AggFunction::Average,
        3 => AggFunction::Min,
        4 => AggFunction::Max,
        5 => AggFunction::Median,
        _ => AggFunction::Quantile(f64::from(rng.gen_range(1u32..100)) / 100.0),
    }
}

fn arb_window(rng: &mut SmallRng) -> WindowSpec {
    match rng.gen_range(0u32..5) {
        0 => WindowSpec::tumbling_time(rng.gen_range(50u64..500)).unwrap(),
        1 => {
            let slide = rng.gen_range(25u64..100);
            let k = rng.gen_range(2u64..6);
            WindowSpec::sliding_time(k * slide, slide).unwrap()
        }
        2 => WindowSpec::session(rng.gen_range(30u64..200)).unwrap(),
        3 => WindowSpec::tumbling_count(rng.gen_range(5u64..50)).unwrap(),
        _ => {
            let slide = rng.gen_range(3u64..15);
            let k = rng.gen_range(2u64..5);
            WindowSpec::sliding_count(k * slide, slide).unwrap()
        }
    }
}

fn arb_queries(rng: &mut SmallRng, max: usize) -> Vec<Query> {
    let n = rng.gen_range(1..=max);
    (0..n)
        .map(|i| {
            let w = arb_window(rng);
            let f = arb_function(rng);
            Query::new(i as u64 + 1, w, f)
        })
        .collect()
}

/// Streams as (delta_ts, key, value) draws: deltas keep time monotone.
fn arb_events(rng: &mut SmallRng, max: usize) -> Vec<Event> {
    let n = rng.gen_range(1..=max);
    let mut ts = 0u64;
    (0..n)
        .map(|_| {
            ts += rng.gen_range(0u64..40);
            Event::new(
                ts,
                rng.gen_range(0u32..3),
                f64::from(rng.gen_range(-100i32..100)),
            )
        })
        .collect()
}

/// Query mixes that force every window class into one run: at least
/// one fixed-time, one session, one count, and one user-defined window,
/// plus random extras drawn from the general pool.
fn arb_mixed_queries(rng: &mut SmallRng) -> Vec<Query> {
    let count_filter = if rng.gen_bool(0.5) {
        Predicate::ValueAbove(0.0)
    } else {
        Predicate::True
    };
    let mut queries = vec![
        Query::new(
            1,
            WindowSpec::tumbling_time(rng.gen_range(100u64..400)).unwrap(),
            arb_function(rng),
        ),
        Query::new(
            2,
            WindowSpec::session(rng.gen_range(40u64..200)).unwrap(),
            arb_function(rng),
        ),
        Query::new(
            3,
            WindowSpec::tumbling_count(rng.gen_range(5u64..40)).unwrap(),
            arb_function(rng),
        )
        .filtered(count_filter),
        Query::new(
            4,
            WindowSpec::user_defined(rng.gen_range(0u32..2)),
            arb_function(rng),
        ),
    ];
    for extra in 0..rng.gen_range(0usize..3) {
        queries.push(Query::new(
            5 + extra as u64,
            arb_window(rng),
            arb_function(rng),
        ));
    }
    queries
}

/// Streams carrying broadcastable markers: ordinary draws interleaved
/// with Start/End markers on the channels `arb_mixed_queries` listens
/// on, so user-defined windows actually open and close.
fn arb_marked_events(rng: &mut SmallRng, max: usize) -> Vec<Event> {
    use desis::core::event::{Marker, MarkerKind};
    let n = rng.gen_range(32..=max);
    let mut ts = 0u64;
    (0..n)
        .map(|_| {
            ts += rng.gen_range(0u64..40);
            let key = rng.gen_range(0u32..3);
            let value = f64::from(rng.gen_range(-100i32..100));
            if rng.gen_bool(0.1) {
                let marker = Marker {
                    channel: rng.gen_range(0u32..2),
                    kind: if rng.gen_bool(0.5) {
                        MarkerKind::Start
                    } else {
                        MarkerKind::End
                    },
                };
                Event::with_marker(ts, key, value, marker)
            } else {
                Event::new(ts, key, value)
            }
        })
        .collect()
}

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

fn run_kind(kind: SystemKind, queries: Vec<Query>, events: &[Event]) -> Vec<QueryResult> {
    let mut p = kind.build(queries).expect("valid queries");
    for ev in events {
        p.on_event(ev);
    }
    let last = events.last().map_or(0, |e| e.ts);
    p.on_watermark(last + 10_000);
    canon(p.drain_results())
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

/// Same windows and keys, values equal to 1e-9 (float sums associate
/// differently in the two systems).
fn assert_close(got: &[QueryResult], want: &[QueryResult], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(
            (a.query, a.key, a.window_start, a.window_end),
            (b.query, b.key, b.window_start, b.window_end),
            "{context}"
        );
        for (x, y) in a.values.iter().zip(&b.values) {
            match (x, y) {
                (Some(x), Some(y)) => {
                    assert!(
                        (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
                        "{context}: {x} vs {y} for query {} window [{}, {})",
                        a.query,
                        a.window_start,
                        a.window_end
                    );
                }
                (x, y) => assert_eq!(x, y, "{context}"),
            }
        }
    }
}

/// Desis' shared slicing must agree with the naive per-window baseline
/// for arbitrary query mixes and irregular streams.
#[test]
fn slicing_matches_naive_windows() {
    for_cases(64, |seed, rng| {
        let queries = arb_queries(rng, 5);
        let events = arb_events(rng, 400);
        let desis = run_kind(SystemKind::Desis, queries.clone(), &events);
        let naive = run_kind(SystemKind::DeBucket, queries.clone(), &events);
        assert_close(&desis, &naive, &format!("seed {seed}: {queries:?}"));
    });
}

/// Overlapping windows are assembled from suffix aggregates — two-stack
/// caches over constant-size partials, newest-to-oldest chains where a
/// Median or Quantile puts sort-based partials beside the sums — which
/// associate slice partials differently from a pass over the window:
/// with fractional values the engine agrees with the naive baseline to
/// 1e-9, while the sharded engine — the same store kernel over the same
/// slices on its collector — still reproduces the sequential engine bit
/// for bit.
#[test]
fn sliding_windows_over_fractional_values_agree_across_engines() {
    let functions = [
        AggFunction::Sum,
        AggFunction::Average,
        AggFunction::Min,
        AggFunction::Max,
        AggFunction::Variance,
        AggFunction::Median,
        AggFunction::Quantile(0.9),
    ];
    let sorts = |q: &Query| {
        let sorted = AggFunction::Median.operators();
        q.functions.iter().any(|f| f.operators() == sorted)
    };
    let (mut results, mut sums_beside_sorts) = (0, 0);
    for_cases(24, |seed, rng| {
        let queries: Vec<Query> = (1..=rng.gen_range(1u64..5))
            .map(|id| {
                let step = rng.gen_range(1u64..4) * 50;
                let window = WindowSpec::sliding_time(step * rng.gen_range(2u64..33), step);
                let function = functions[rng.gen_range(0..functions.len())];
                Query::new(id, window.unwrap(), function)
            })
            .collect();
        let mut events = arb_events(rng, 600);
        for ev in &mut events {
            ev.value = rng.gen_range(-50.0f64..50.0);
        }
        let context = format!("seed {seed}: {queries:?}");
        let sequential = run_sequential(queries.clone(), &events);
        let naive = run_kind(SystemKind::DeBucket, queries.clone(), &events);
        assert_close(&sequential, &naive, &context);
        for shards in [1usize, 2, 4] {
            let parallel = run_parallel(queries.clone(), &events, shards, None);
            assert_eq!(parallel, sequential, "{context}, {shards} shards");
        }
        results += sequential.len();
        let sorted = queries.iter().filter(|q| sorts(q)).count();
        sums_beside_sorts += usize::from(sorted > 0 && sorted < queries.len());
    });
    assert!(results > 0, "no case closed a window");
    assert!(sums_beside_sorts > 0, "no case chained a rounding sum");
}

/// Merging operator partials is order-insensitive and matches the
/// single-pass aggregate for any 3-way split of the values.
#[test]
fn operator_merge_is_split_invariant() {
    for_cases(64, |seed, rng| {
        let n = rng.gen_range(1usize..200);
        let values: Vec<f64> = (0..n)
            .map(|_| f64::from(rng.gen_range(-1_000i32..1_000)))
            .collect();
        let a = rng.gen_range(0usize..200).min(values.len());
        let b = rng.gen_range(0usize..200).min(values.len()).max(a);
        let func = arb_function(rng);
        let set = func.operators();
        let fold = |chunk: &[f64]| {
            let mut bundle = OperatorBundle::new(set);
            for v in chunk {
                bundle.update(*v);
            }
            bundle.seal();
            bundle
        };
        let mut whole = fold(&values);
        whole.seal();

        // Split (left-to-right merge).
        let mut merged = fold(&values[..a]);
        merged.merge(&fold(&values[a..b]));
        merged.merge(&fold(&values[b..]));

        // Reversed merge order.
        let mut reversed = fold(&values[b..]);
        reversed.merge(&fold(&values[a..b]));
        reversed.merge(&fold(&values[..a]));

        let expect = whole.finalize(&func);
        for candidate in [merged.finalize(&func), reversed.finalize(&func)] {
            match (expect, candidate) {
                (Some(x), Some(y)) => {
                    // min/max/median/quantile are exact; sums accumulate
                    // rounding differences under reordering.
                    assert!(
                        (x - y).abs() <= 1e-6 * (1.0 + x.abs()),
                        "seed {seed}: {x} vs {y} under {func:?}"
                    );
                }
                (x, y) => assert_eq!(x, y, "seed {seed}: {func:?}"),
            }
        }
    });
}

/// Quantiles always lie within [min, max] of the input.
#[test]
fn quantiles_are_bounded() {
    for_cases(64, |seed, rng| {
        let n = rng.gen_range(1usize..300);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e6f64..1e6)).collect();
        let func = AggFunction::Quantile(f64::from(rng.gen_range(1u32..1000)) / 1000.0);
        let mut bundle = OperatorBundle::new(func.operators());
        for v in &values {
            bundle.update(*v);
        }
        bundle.seal();
        let q = bundle.finalize(&func).expect("non-empty");
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            q >= min && q <= max,
            "seed {seed}: {q} outside [{min}, {max}] for {func:?}"
        );
    });
}

/// Slices partition the stream: consecutive, non-overlapping, and every
/// window's slice range is well-formed.
#[test]
fn slices_partition_the_stream() {
    use desis::core::engine::{GroupSlicer, QueryAnalyzer};
    for_cases(64, |seed, rng| {
        let queries = arb_queries(rng, 4);
        let events = arb_events(rng, 300);
        let groups = QueryAnalyzer::default().analyze(queries).unwrap();
        for group in groups {
            let mut slicer = GroupSlicer::new(group);
            let mut slices = Vec::new();
            for ev in &events {
                slicer.on_event(ev, &mut slices);
            }
            slicer.on_watermark(events.last().map_or(0, |e| e.ts) + 10_000, &mut slices);
            // Ids are consecutive from 0; ranges are ordered and abut.
            for (i, s) in slices.iter().enumerate() {
                assert_eq!(s.id, i as u64, "seed {seed}");
                assert!(s.start_ts <= s.end_ts, "seed {seed}");
                for end in &s.ends {
                    assert!(end.first_slice <= end.last_slice, "seed {seed}");
                    assert!(end.last_slice <= s.id, "seed {seed}");
                }
            }
            for pair in slices.windows(2) {
                assert!(
                    pair[0].end_ts <= pair[1].start_ts + 1,
                    "seed {seed}: slices overlap: {:?} then {:?}",
                    (pair[0].start_ts, pair[0].end_ts),
                    (pair[1].start_ts, pair[1].end_ts)
                );
            }
        }
    });
}

/// Wire round-trip is lossless for arbitrary event batches in both
/// codecs.
#[test]
fn codec_roundtrips_event_batches() {
    use desis::net::codec::CodecKind;
    use desis::net::message::Message;
    for_cases(64, |seed, rng| {
        let n = rng.gen_range(0usize..100);
        let events: Vec<Event> = (0..n)
            .map(|_| {
                Event::new(
                    rng.gen_range(0u64..u64::MAX / 2),
                    rng.gen_range(0u32..1000),
                    rng.gen_range(-1e9f64..1e9),
                )
            })
            .collect();
        let msg = Message::Events(events);
        for codec in [CodecKind::Binary, CodecKind::Text] {
            let frame = codec.encode(&msg);
            let back = codec.decode(&frame).expect("roundtrip");
            assert_eq!(back, msg, "seed {seed}: {codec:?}");
        }
    });
}

/// `to_dsl` followed by `parse_query` reproduces the query exactly.
#[test]
fn dsl_round_trips_arbitrary_queries() {
    use desis::core::dsl::{parse_query, to_dsl};
    for_cases(128, |seed, rng| {
        let window = arb_window(rng);
        let n_funcs = rng.gen_range(1usize..4);
        let funcs: Vec<AggFunction> = (0..n_funcs).map(|_| arb_function(rng)).collect();
        let key = rng.gen_range(0u32..100);
        let lo = f64::from(rng.gen_range(-1000i32..1000));
        let span = f64::from(rng.gen_range(0i32..1000));
        let predicate = match rng.gen_range(0u8..5) {
            0 => Predicate::True,
            1 => Predicate::KeyEquals(key),
            2 => Predicate::ValueAbove(lo),
            3 => Predicate::ValueBelow(lo),
            _ => Predicate::ValueBetween(lo, lo + span),
        };
        let query = Query::with_functions(9, window, funcs).filtered(predicate);
        let text = to_dsl(&query);
        let reparsed = parse_query(9, &text).expect("formatted query parses");
        assert_eq!(query, reparsed, "seed {seed}: {text}");
    });
}

/// The reorder buffer restores any boundedly-disordered stream.
#[test]
fn reorder_buffer_restores_bounded_disorder() {
    use desis::core::engine::ReorderBuffer;
    for_cases(128, |seed, rng| {
        // Build a disordered stream with bounded displacement.
        let n = rng.gen_range(1usize..300);
        let mut ts = 100u64;
        let mut events = Vec::new();
        for _ in 0..n {
            ts += rng.gen_range(0u64..30);
            let jitter = rng.gen_range(0u64..20);
            events.push(Event::new(ts.saturating_sub(jitter.min(20)), 0, 1.0));
        }
        let mut buf = ReorderBuffer::new(60);
        let mut out = Vec::new();
        let mut dropped = 0u64;
        for ev in &events {
            if !buf.push(*ev, &mut out) {
                dropped += 1;
            }
        }
        buf.flush(&mut out);
        assert_eq!(dropped, buf.late_dropped(), "seed {seed}");
        assert_eq!(out.len() + dropped as usize, events.len(), "seed {seed}");
        for pair in out.windows(2) {
            assert!(pair[0].ts <= pair[1].ts, "seed {seed}");
        }
        // Displacement is at most 20+29 < 60, so nothing may be dropped.
        assert_eq!(dropped, 0, "seed {seed}");
    });
}

/// Builds an arbitrary slice-partial message with sealed bundles,
/// delta-encodable window ends, and session gaps.
fn arb_slice_message(rng: &mut SmallRng) -> desis::net::message::Message {
    use desis::core::engine::{SealedSlice, SessionGap, SliceData, WindowEnd};
    use desis::net::message::Message;
    let arb_bundle = |rng: &mut SmallRng| {
        let n_funcs = rng.gen_range(1usize..4);
        let set = (0..n_funcs)
            .map(|_| arb_function(rng).operators())
            .fold(OperatorSet::EMPTY, |a, b| a | b)
            .subsume_sorts();
        let mut bundle = OperatorBundle::new(set);
        for _ in 0..rng.gen_range(0usize..30) {
            bundle.update(rng.gen_range(-1e6f64..1e6));
        }
        bundle.seal();
        bundle
    };
    let id = rng.gen_range(0u64..1_000);
    let start = rng.gen_range(0u64..1_000_000);
    let end_ts = start + rng.gen_range(0u64..10_000);
    let selections = rng.gen_range(1usize..3);
    let mut slice_data = SliceData::new(selections);
    for sel in 0..selections {
        for _ in 0..rng.gen_range(0usize..8) {
            let key = rng.gen_range(0u32..50);
            let bundle = arb_bundle(rng);
            slice_data.per_selection[sel].insert(key, bundle);
        }
    }
    let ends = (0..rng.gen_range(0usize..5))
        .map(|_| {
            let query = rng.gen_range(0u64..100);
            let len_slices = rng.gen_range(0u64..20);
            let back = rng.gen_range(0u64..5_000);
            let wlen = rng.gen_range(0u64..5_000);
            let last_slice = id.saturating_sub(back % (id + 1));
            let w_end = end_ts.saturating_sub(back);
            WindowEnd {
                query,
                first_slice: last_slice.saturating_sub(len_slices),
                last_slice,
                start_ts: w_end.saturating_sub(wlen),
                end_ts: w_end,
            }
        })
        .collect();
    let session_gaps = (0..rng.gen_range(0usize..3))
        .map(|_| {
            let query = rng.gen_range(0u64..100);
            let back = rng.gen_range(0u64..5_000);
            let glen = rng.gen_range(0u64..5_000);
            let gap_end = end_ts.saturating_sub(back);
            SessionGap {
                query,
                gap_start: gap_end.saturating_sub(glen),
                gap_end,
            }
        })
        .collect();
    Message::Slice {
        group: (id % 7) as u32,
        origin: (id % 11) as u32,
        coverage: 1 + (id % 3) as u32,
        partial: SealedSlice {
            id,
            start_ts: start,
            end_ts,
            data: slice_data,
            ends,
            session_gaps,
            low_watermark: id.saturating_sub(2),
            low_watermark_ts: start.saturating_sub(10),
            trace: if rng.gen_bool(0.5) {
                Some(TraceId::from_u64(rng.gen()))
            } else {
                None
            },
        },
    }
}

/// Slice partials — including delta-encoded window ends and session gaps
/// — survive both wire formats bit-exactly.
#[test]
fn codec_roundtrips_arbitrary_slice_partials() {
    use desis::net::codec::CodecKind;
    for_cases(96, |seed, rng| {
        let msg = arb_slice_message(rng);
        for codec in [CodecKind::Binary, CodecKind::Text] {
            let frame = codec.encode(&msg);
            let back = codec.decode(&frame).expect("roundtrip");
            assert_eq!(back, msg, "seed {seed}: {codec:?}");
        }
    });
}

/// Long-running sliding windows must not accumulate slices: the
/// assembler's GC keeps retained partials bounded by the window span.
#[test]
fn memory_stays_bounded_over_long_streams() {
    use desis::core::engine::{Assembler, GroupSlicer, QueryAnalyzer};
    let queries = vec![
        Query::new(
            1,
            WindowSpec::sliding_time(5_000, 500).unwrap(),
            AggFunction::Average,
        ),
        Query::new(
            2,
            WindowSpec::tumbling_time(1_000).unwrap(),
            AggFunction::Max,
        ),
    ];
    let mut groups = QueryAnalyzer::default().analyze(queries).unwrap();
    let group = groups.remove(0);
    let mut slicer = GroupSlicer::new(group.clone());
    let mut assembler = Assembler::new(&group);
    let mut slices = Vec::new();
    let mut results = Vec::new();
    let mut max_retained = 0;
    for ts in (0..2_000_000u64).step_by(20) {
        slicer.on_event(&Event::new(ts, (ts % 4) as u32, 1.0), &mut slices);
        for s in slices.drain(..) {
            assembler.on_slice(s, &mut results);
        }
        max_retained = max_retained.max(assembler.retained_slices());
        results.clear();
    }
    // 5 s window / 500 ms slices -> at most ~11 live slices, ever.
    assert!(max_retained <= 12, "retained {max_retained} slices");
}

// ---------------------------------------------------------------------
// Parallel engine differentials (PR 5).
// ---------------------------------------------------------------------

/// Feeds a [`ParallelEngine`] the stream with periodic watermark
/// barriers, then a final watermark + finish; returns the canonicalized
/// results. `lateness` sizes the reorder buffers for disordered inputs
/// (watermarks are then withheld until end-of-stream so nothing is
/// dropped by the barrier itself).
fn run_parallel(
    queries: Vec<Query>,
    events: &[Event],
    shards: usize,
    lateness: Option<u64>,
) -> Vec<QueryResult> {
    let mut cfg = ParallelConfig::new(shards);
    cfg.lateness = lateness;
    let mut engine = ParallelEngine::with_config(queries, cfg).expect("valid queries");
    let last = events.iter().map(|e| e.ts).max().unwrap_or(0);
    let mut out = Vec::new();
    let mut next_wm = 200u64;
    for ev in events {
        engine.on_event(ev);
        if lateness.is_none() && ev.ts >= next_wm {
            engine.on_watermark(ev.ts);
            out.extend(engine.drain_results());
            next_wm = ev.ts + 200;
        }
    }
    engine.on_watermark(last + 10_000);
    engine.finish();
    out.extend(engine.drain_results());
    assert_eq!(engine.late_dropped(), 0, "bounded disorder must not drop");
    canon(out)
}

/// Sequential reference: the classic [`AggregationEngine`] over the same
/// stream.
fn run_sequential(queries: Vec<Query>, events: &[Event]) -> Vec<QueryResult> {
    let mut engine = desis::core::engine::AggregationEngine::new(queries).expect("valid queries");
    for ev in events {
        engine.on_event(ev);
    }
    engine.on_watermark(events.iter().map(|e| e.ts).max().unwrap_or(0) + 10_000);
    canon(engine.drain_results())
}

/// The parallel engine is shard-count invariant: for arbitrary query
/// mixes (fixed, session, and count windows; decomposable and
/// sort-based functions) and arbitrary streams, every shard count
/// produces *exactly* the sequential engine's results — and both agree
/// with the naive per-window baseline.
///
/// Exactness holds because the generated values are integers: f64 sums
/// of integers below 2^53 are associative, so re-associating slice
/// merges across shards cannot change any result bit.
#[test]
fn parallel_engine_matches_sequential_across_shard_counts() {
    let mut fixed_merges = 0;
    for_cases(32, |seed, rng| {
        let queries = arb_queries(rng, 5);
        let events = arb_events(rng, 400);
        let sequential = run_sequential(queries.clone(), &events);
        let naive = run_kind(SystemKind::DeBucket, queries.clone(), &events);
        assert_eq!(sequential.len(), naive.len(), "seed {seed}: {queries:?}");
        for shards in [1usize, 2, 4, 7] {
            let parallel = run_parallel(queries.clone(), &events, shards, None);
            assert_eq!(
                parallel, sequential,
                "seed {seed}, {shards} shards: {queries:?}"
            );
        }
        // One meaning of `EngineMetrics::merges`: both engines group the
        // fixed-time queries identically, so with one shard the collector
        // performs exactly the sequential assembler's bundle-into-bundle
        // merges (a key's first partial is a clone, not a merge).
        let fixed: Vec<Query> = queries
            .into_iter()
            .filter(|q| q.window.has_precomputable_puncts())
            .collect();
        let last = events.iter().map(|e| e.ts).max().unwrap_or(0);
        let mut seq = AggregationEngine::new(fixed.clone()).expect("valid queries");
        let mut par = ParallelEngine::new(fixed, 1).expect("valid queries");
        for ev in &events {
            seq.on_event(ev);
            par.on_event(ev);
        }
        seq.on_watermark(last + 10_000);
        par.on_watermark(last + 10_000);
        par.finish();
        assert_eq!(par.drain_results(), seq.drain_results(), "seed {seed}");
        assert_eq!(par.metrics().merges, seq.metrics().merges, "seed {seed}");
        fixed_merges += seq.metrics().merges;
    });
    assert!(fixed_merges > 0, "no case merged anything");
}

/// Repeating a sharded run reproduces the drained result stream
/// byte-for-byte — not just as a set: every intermediate drain is
/// canonically ordered, so run-to-run output is identical.
#[test]
fn parallel_engine_is_reproducible_run_to_run() {
    for_cases(16, |seed, rng| {
        let queries = arb_queries(rng, 4);
        let events = arb_events(rng, 300);
        let run = |queries: Vec<Query>| {
            let mut engine = ParallelEngine::new(queries, 4).expect("valid queries");
            let mut drains = Vec::new();
            for (i, ev) in events.iter().enumerate() {
                engine.on_event(ev);
                if i % 64 == 63 {
                    engine.on_watermark(ev.ts);
                    drains.push(engine.drain_results());
                }
            }
            engine.on_watermark(events.last().map_or(0, |e| e.ts) + 10_000);
            engine.finish();
            drains.push(engine.drain_results());
            drains
        };
        let first = run(queries.clone());
        let second = run(queries);
        assert_eq!(first, second, "seed {seed}");
        for drain in &first {
            for pair in drain.windows(2) {
                assert!(
                    (pair[0].query, pair[0].window_end, pair[0].key)
                        <= (pair[1].query, pair[1].window_end, pair[1].key),
                    "seed {seed}: drain not canonically ordered"
                );
            }
        }
    });
}

/// Out-of-order streams with bounded displacement, fed through the
/// parallel engine's reorder buffers, match the sequential engine over
/// the time-sorted stream — at every shard count, with zero drops.
#[test]
fn parallel_engine_restores_bounded_disorder() {
    for_cases(24, |seed, rng| {
        let queries = arb_queries(rng, 4);
        let mut events = arb_events(rng, 300);
        // Bounded jitter: pull each timestamp back by < 40; displacement
        // stays under the lateness budget of 100.
        for ev in &mut events {
            ev.ts = ev.ts.saturating_sub(rng.gen_range(0u64..40));
        }
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| e.ts);
        let sequential = run_sequential(queries.clone(), &sorted);
        for shards in [1usize, 2, 4, 7] {
            let parallel = run_parallel(queries.clone(), &events, shards, Some(100));
            assert_eq!(
                parallel, sequential,
                "seed {seed}, {shards} shards: {queries:?}"
            );
        }
    });
}

/// Mixed workloads — fixed, session, count, and user-defined windows in
/// one run over marker-carrying streams — are shard-count invariant:
/// every shard count reproduces the sequential engine byte-for-byte,
/// and both agree with the naive per-window baseline's window shapes.
/// This is the differential that certifies no query class falls back to
/// a pinned sequential pipeline.
#[test]
fn parallel_engine_matches_sequential_on_mixed_unfixed_workloads() {
    for_cases(24, |seed, rng| {
        let queries = arb_mixed_queries(rng);
        let events = arb_marked_events(rng, 400);
        let sequential = run_sequential(queries.clone(), &events);
        let naive = run_kind(SystemKind::DeBucket, queries.clone(), &events);
        assert_eq!(sequential.len(), naive.len(), "seed {seed}: {queries:?}");
        for (a, b) in sequential.iter().zip(&naive) {
            assert_eq!(
                (a.query, a.key, a.window_start, a.window_end),
                (b.query, b.key, b.window_start, b.window_end),
                "seed {seed}"
            );
        }
        for shards in [1usize, 2, 4, 7] {
            let parallel = run_parallel(queries.clone(), &events, shards, None);
            assert_eq!(
                parallel, sequential,
                "seed {seed}, {shards} shards: {queries:?}"
            );
        }
    });
}

/// Mixed workloads under bounded disorder: marker-carrying streams with
/// bounded displacement, restored by the shard reorder buffers, match
/// the sequential engine over the time-sorted stream at every shard
/// count with zero drops.
#[test]
fn mixed_unfixed_workloads_restore_bounded_disorder() {
    for_cases(16, |seed, rng| {
        let queries = arb_mixed_queries(rng);
        let mut events = arb_marked_events(rng, 300);
        for ev in &mut events {
            ev.ts = ev.ts.saturating_sub(rng.gen_range(0u64..40));
        }
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| e.ts);
        let sequential = run_sequential(queries.clone(), &sorted);
        for shards in [1usize, 2, 4, 7] {
            let parallel = run_parallel(queries.clone(), &events, shards, Some(100));
            assert_eq!(
                parallel, sequential,
                "seed {seed}, {shards} shards: {queries:?}"
            );
        }
    });
}

/// Decoding corrupted frames must fail gracefully (error, never panic,
/// never runaway allocation).
#[test]
fn codec_survives_corrupted_frames() {
    use desis::net::codec::CodecKind;
    for_cases(128, |_seed, rng| {
        let msg = arb_slice_message(rng);
        let n_flips = rng.gen_range(1usize..8);
        let flips: Vec<(usize, u8)> = (0..n_flips)
            .map(|_| (rng.gen_range(0usize..4096), rng.gen_range(0u8..255)))
            .collect();
        let truncate_to = rng.gen_range(0usize..4096);
        for codec in [CodecKind::Binary, CodecKind::Text] {
            let mut frame = codec.encode(&msg);
            for (pos, xor) in &flips {
                if !frame.is_empty() {
                    let i = pos % frame.len();
                    frame[i] ^= xor | 1;
                }
            }
            frame.truncate(truncate_to.min(frame.len()));
            // Must not panic; Ok (a different but valid message) or Err
            // are both acceptable.
            let _ = codec.decode(&frame);
        }
    });
}
