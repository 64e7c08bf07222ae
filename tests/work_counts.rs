//! Exact work counts of the sequential engine: heap allocations and
//! requested heap bytes per result, bundle merges per result, results
//! per event, and the slicers' operator updates (`calculations`) and
//! sealed slices, over fixed small inputs shaped like the four workloads of
//! the repo benchmark (`many_queries`: 1 000 tumbling/sliding queries
//! over all eleven functions, 64 keys; `slide_wide`: four sliding
//! queries, 256 keys; `ingest_dense`: 16 tumbling queries in four
//! predicate classes, 16 keys, 100 events/ms; `mixed_unfixed`: session,
//! count, user-defined, tumbling and sliding-quantile queries on a
//! bursty, displaced stream behind a `ReorderBuffer`).
//!
//! Wall-clock rates drift from run to run and box to box; these counts
//! do not, so a change that claims to save allocations or merges pins
//! what it saved here. The shapes are copied as constants, not taken
//! from `benchmark/`, which is its own workspace.
//!
//! Allocations are counted per thread by a counting global allocator:
//! each `alloc`, `alloc_zeroed` and `realloc` call made by the test
//! thread between the first event and the last drain, and the bytes each
//! asked for (`realloc`: the new size). Building the engine and the input
//! is not counted.
//!
//! Each sequential row also pins the most slice partials the engine's
//! assemblers retained at any drain (the `engine.assembler.retained_slices`
//! gauge, read outside the counted allocations).
//!
//! Every shape also runs through the sharded engine at 1 and 2 shards,
//! fed like the sequential engine: results, merges, the slicers'
//! calculations and slices (read after `finish`, when every shard has
//! reported) and a results digest are exact there. Every shape also runs through an unpaced `star(2)`
//! Desis cluster, as the benchmark's cluster sample does (`ingest_dense`
//! on a prefix, `mixed_unfixed` in timestamp order, since a local has no
//! reorder stage): results, frames and wire bytes are exact there too.
//! Shard and node threads allocate where the test thread cannot count
//! them, so sharded and cluster rows have no allocation columns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use desis::core::aggregate::AggFunction;
use desis::core::engine::{AggregationEngine, ParallelConfig, ParallelEngine, ReorderBuffer};
use desis::core::event::{Event, EventBatch, Marker, MarkerKind};
use desis::core::obs::names;
use desis::core::predicate::Predicate;
use desis::core::query::{Query, QueryResult};
use desis::core::time::Timestamp;
use desis::core::window::WindowSpec;
use desis::net::cluster::{run_cluster, ClusterConfig};
use desis::net::node::DistributedSystem;
use desis::net::topology::Topology;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down still frees and allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocation calls and requested bytes of this thread so far.
fn allocated() -> (u64, u64) {
    (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

// SAFETY: every call is forwarded to `System` unchanged; counting
// touches only const-initialized thread-local `Cell`s, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// SplitMix64, the generator the benchmark draws its workloads with.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Events handed to the engine per batch (the benchmark's batch).
const BATCH: usize = 4096;

/// How the benchmark's sequential sample feeds a shape.
#[derive(Debug, Clone, Copy)]
struct Feed {
    /// A watermark and a drain after every this many batches, and after
    /// the last.
    wm_batches: usize,
    /// Allowed lateness: `Some` puts a `ReorderBuffer` in front of the
    /// engine and holds every watermark back by it.
    lateness: Option<u64>,
}

/// In order, a watermark after every batch.
const EVERY_BATCH: Feed = Feed {
    wm_batches: 1,
    lateness: None,
};

/// `per_ms` events per millisecond for `span_ms` milliseconds, keys in a
/// rotation over a seeded permutation of `0..keys` shifted by one each
/// cycle, values drawn by `value`.
fn dense_stream(
    rng: &mut Rng,
    span_ms: u64,
    per_ms: u64,
    keys: u32,
    value: impl Fn(&mut Rng) -> f64,
) -> Vec<Event> {
    let mut labels: Vec<u32> = (0..keys).collect();
    for i in (1..labels.len()).rev() {
        labels.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let n = u64::from(keys);
    (0..span_ms * per_ms)
        .map(|i| {
            let key = labels[((i + i / n) % n) as usize];
            Event::new(i / per_ms, key, value(rng))
        })
        .collect()
}

/// 1 000 queries, half tumbling half sliding, lengths and steps multiples
/// of 500 ms in [0.5 s, 30 s], function uniform over all eleven.
fn many_queries() -> Vec<Query> {
    let mut rng = Rng(0x05ee_d0fd_e515);
    (1..=1_000u64)
        .map(|id| {
            let length = 500 * (1 + rng.below(60));
            let spec = if id % 2 == 0 {
                WindowSpec::tumbling_time(length)
            } else {
                WindowSpec::sliding_time(length, 500 * (1 + rng.below(length / 500)))
            };
            let function = match rng.below(11) {
                0 => AggFunction::Sum,
                1 => AggFunction::Count,
                2 => AggFunction::Average,
                3 => AggFunction::Product,
                4 => AggFunction::GeometricMean,
                5 => AggFunction::Min,
                6 => AggFunction::Max,
                7 => AggFunction::Median,
                8 => AggFunction::Quantile([0.25, 0.75, 0.9, 0.99][rng.below(4) as usize]),
                9 => AggFunction::Variance,
                _ => AggFunction::StdDev,
            };
            Query::new(id, spec.unwrap(), function)
        })
        .collect()
}

/// Four sliding queries re-merging 20–40 slices every 100 ms.
fn slide_wide() -> Vec<Query> {
    let sliding = |id, length, function| {
        Query::new(id, WindowSpec::sliding_time(length, 100).unwrap(), function)
    };
    vec![
        sliding(1, 4_000, AggFunction::Sum),
        sliding(2, 4_000, AggFunction::Average),
        sliding(3, 4_000, AggFunction::Max),
        sliding(4, 2_000, AggFunction::Min),
    ]
}

/// 16 tumbling-time queries: four (function, length) pairs × four
/// selection classes whose predicates partially overlap (four
/// query-groups).
fn ingest_dense() -> Vec<Query> {
    let shapes = [
        (AggFunction::Sum, 1_000),
        (AggFunction::Average, 2_000),
        (AggFunction::Max, 5_000),
        (AggFunction::Variance, 500),
    ];
    let classes = [
        Predicate::True,
        Predicate::ValueAbove(200.0),
        Predicate::ValueBelow(700.0),
        Predicate::ValueAbove(450.0),
    ];
    let mut queries = Vec::new();
    for predicate in classes {
        for (function, length) in shapes {
            let id = queries.len() as u64 + 1;
            let spec = WindowSpec::tumbling_time(length).unwrap();
            queries.push(Query::new(id, spec, function).filtered(predicate));
        }
    }
    queries
}

/// Marker channel of the user-defined window query.
const UD_CHANNEL: u32 = 5;

/// One query of every window class the fixed-window shapes leave out.
fn mixed_unfixed() -> Vec<Query> {
    vec![
        Query::new(1, WindowSpec::session(2_000).unwrap(), AggFunction::Max),
        Query::new(2, WindowSpec::session(2_000).unwrap(), AggFunction::Median),
        Query::new(
            3,
            WindowSpec::tumbling_count(1_000).unwrap(),
            AggFunction::Sum,
        )
        .filtered(Predicate::ValueAbove(500.0)),
        // Every data event and no marker event (`MARKER_VALUE`).
        Query::new(
            4,
            WindowSpec::user_defined(UD_CHANNEL),
            AggFunction::Average,
        )
        .filtered(Predicate::ValueAbove(-0.5)),
        Query::new(
            5,
            WindowSpec::tumbling_time(1_000).unwrap(),
            AggFunction::Sum,
        ),
        Query::new(
            6,
            WindowSpec::sliding_time(2_000, 500).unwrap(),
            AggFunction::Quantile(0.9),
        ),
    ]
}

/// Bursts of the `mixed_unfixed` stream.
const MIXED_BURSTS: u64 = 6;
/// Events per burst (at 10 events/ms: 500 ms).
const MIXED_BURST_EVENTS: u64 = 5_000;
/// Events per millisecond inside a burst.
const MIXED_PER_MS: u64 = 10;
/// Burst plus the (on average) 5 s gap that closes every session.
const MIXED_PERIOD_MS: u64 = 5_500;
/// What each gap adds to 5 s.
const MIXED_GAP_OFFSETS_MS: [i64; MIXED_BURSTS as usize] = [370, -370, -210, 210, 90, -90];
/// A Start or End marker pair every this many events.
const MIXED_MARKER_EVERY: u64 = 1_777;
/// Largest displacement, inside the 250 ms lateness bound.
const MIXED_MAX_DELAY_MS: u64 = 200;
/// Value of marker events: both predicates reject it.
const MARKER_VALUE: f64 = -1.0;

/// The `mixed_unfixed` stream in arrival order: 64 Zipf(1.1) keys,
/// bursts of 10 events/ms separated by gaps of 5 s ± 0.4 s, a Start or
/// End marker pair (two identical events) every 1 777 events, and 5% of
/// events arriving up to 200 ms of event time late.
fn mixed_stream(rng: &mut Rng) -> Vec<Event> {
    let weights: Vec<f64> = (1..=64).map(|r| f64::from(r).powf(-1.1)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    let mut ordered = Vec::with_capacity((MIXED_BURSTS * MIXED_BURST_EVENTS) as usize);
    let mut burst_start = 0;
    for burst in 0..MIXED_BURSTS {
        let start = burst_start;
        burst_start = (burst_start + MIXED_PERIOD_MS)
            .saturating_add_signed(MIXED_GAP_OFFSETS_MS[burst as usize]);
        for i in 0..MIXED_BURST_EVENTS {
            let u = rng.unit();
            let key = cdf.partition_point(|c| *c <= u).min(cdf.len() - 1) as u32;
            let value = rng.below(1000) as f64;
            ordered.push(Event::new(start + i / MIXED_PER_MS, key, value));
        }
    }
    let mut markers = 0u64;
    let mut due = MIXED_MARKER_EVERY as usize;
    while due < ordered.len() {
        // The pair takes the last event of a millisecond and the first of
        // the next (never across a burst boundary).
        let mut pos = due.next_multiple_of(MIXED_PER_MS as usize);
        if pos.is_multiple_of(MIXED_BURST_EVENTS as usize) {
            pos += MIXED_PER_MS as usize;
        }
        if pos >= ordered.len() {
            break;
        }
        let kind = if markers.is_multiple_of(2) {
            MarkerKind::Start
        } else {
            MarkerKind::End
        };
        markers += 1;
        let marker = Marker {
            channel: UD_CHANNEL,
            kind,
        };
        let prev = ordered[pos - 1];
        let first = Event::with_marker(prev.ts, prev.key, MARKER_VALUE, marker);
        ordered[pos - 1] = first;
        ordered[pos] = first;
        due += MIXED_MARKER_EVERY as usize;
    }
    // (arrival time, displaced, position): stable order of arrival.
    let mut arrival: Vec<(Timestamp, bool, usize)> = ordered
        .iter()
        .enumerate()
        .map(|(pos, ev)| {
            // Markers stay put: a displaced event would part the pair.
            let displaced = ev.marker.is_none() && rng.below(20) == 0;
            let delay = if displaced {
                1 + rng.below(MIXED_MAX_DELAY_MS)
            } else {
                0
            };
            (ev.ts + delay, displaced, pos)
        })
        .collect();
    arrival.sort();
    arrival
        .into_iter()
        .map(|(_, _, pos)| ordered[pos])
        .collect()
}

/// What one run of the sequential engine did.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counts {
    events: u64,
    results: u64,
    merges: u64,
    /// Operator updates the slicers executed (`slicer.calculations`).
    calculations: u64,
    /// Slices the slicers sealed.
    slices: u64,
    allocations: u64,
    /// Heap bytes those allocations asked for.
    bytes: u64,
    /// Most slice partials the assemblers retained at any drain.
    retained_slices_max: i64,
    /// FNV-1a over every result in drain order (query, key, window,
    /// value bits): equal counts with different answers do not pass.
    digest: u64,
}

/// Folds `words` into the FNV-1a hash `h`, byte by byte.
fn fnv(h: u64, words: &[u64]) -> u64 {
    words.iter().flat_map(|w| w.to_le_bytes()).fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds one result (query, key, window, value bits) into `h`.
fn fnv_result(mut h: u64, r: &QueryResult) -> u64 {
    h = fnv(
        h,
        &[r.query, u64::from(r.key), r.window_start, r.window_end],
    );
    for value in &r.values {
        h = fnv(h, &[value.map_or(u64::MAX, f64::to_bits)]);
    }
    h
}

/// FNV-1a offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

impl Counts {
    fn per_result(&self, n: u64) -> f64 {
        n as f64 / self.results as f64
    }
}

/// Feeds `events` in batches of [`BATCH`] — through a `ReorderBuffer`
/// when the feed allows lateness — with a watermark at the highest
/// timestamp seen, less the lateness, and a drain at the feed's cadence
/// (the benchmark's timed sequential sample: no flush at the end).
fn run(queries: &[Query], events: &[Event], feed: Feed) -> Counts {
    let mut engine = AggregationEngine::new(queries.to_vec()).unwrap();
    let mut reorder = feed.lateness.map(ReorderBuffer::new);
    let (mut results, mut digest) = (0, FNV_BASIS);
    let (mut max_ts, mut ordered) = (0, Vec::new());
    let batches = events.len().div_ceil(BATCH);
    let (mut retained_slices_max, mut uncounted) = (0, (0, 0));
    let before = allocated();
    for (i, batch) in events.chunks(BATCH).enumerate() {
        max_ts = batch.iter().fold(max_ts, |m, ev| m.max(ev.ts));
        match &mut reorder {
            None => batch.iter().for_each(|ev| engine.on_event(ev)),
            Some(rb) => {
                for ev in batch {
                    rb.push(*ev, &mut ordered);
                }
                ordered.drain(..).for_each(|ev| engine.on_event(&ev));
            }
        }
        if (i + 1) % feed.wm_batches != 0 && i + 1 != batches {
            continue;
        }
        let wm = max_ts.saturating_sub(feed.lateness.unwrap_or(0));
        if let Some(rb) = &mut reorder {
            rb.advance(wm, &mut ordered);
            ordered.drain(..).for_each(|ev| engine.on_event(&ev));
        }
        engine.on_watermark(wm);
        for r in engine.drain_results() {
            digest = fnv_result(digest, &r);
            results += 1;
        }
        // Publishing the gauge allocates: not the engine's work.
        let paused = allocated();
        engine.metrics();
        let retained = engine
            .registry()
            .gauge(names::ENGINE_ASSEMBLER_RETAINED_SLICES);
        retained_slices_max = retained_slices_max.max(retained.get());
        let resumed = allocated();
        uncounted = (
            uncounted.0 + resumed.0 - paused.0,
            uncounted.1 + resumed.1 - paused.1,
        );
    }
    let after = allocated();
    let metrics = engine.metrics();
    assert_eq!(metrics.results, results);
    assert_eq!(reorder.map_or(0, |rb| rb.late_dropped()), 0);
    Counts {
        events: events.len() as u64,
        results,
        merges: metrics.merges,
        calculations: metrics.calculations,
        slices: metrics.slices,
        allocations: after.0 - before.0 - uncounted.0,
        bytes: after.1 - before.1 - uncounted.1,
        retained_slices_max,
        digest,
    }
}

/// Runs the shape twice (the counts must not move) and checks them.
fn assert_counts(queries: &[Query], events: &[Event], feed: Feed, want: Counts) {
    let counts = run(queries, events, feed);
    assert_eq!(
        run(queries, events, feed),
        counts,
        "a second run counted otherwise"
    );
    println!(
        "{counts:?}: {:.3} allocations/result, {:.1} bytes/result, {:.4} merges/result, \
         {:.3} results/event",
        counts.per_result(counts.allocations),
        counts.per_result(counts.bytes),
        counts.per_result(counts.merges),
        counts.results as f64 / counts.events as f64,
    );
    assert_eq!(counts, want);
}

/// What one run of the sharded engine did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardedCounts {
    shards: usize,
    results: u64,
    merges: u64,
    /// Operator updates of every shard's and the driver's slicers, read
    /// after `finish` (shards report their slicers' metrics on exit).
    calculations: u64,
    /// Slices those slicers sealed: each shard seals its own.
    slices: u64,
    /// FNV-1a over every result in drain order.
    digest: u64,
}

/// Feeds `events` to a sharded engine of `shards` workers in batches of
/// [`BATCH`], with the watermarks and drains of [`run`] and the feed's
/// lateness handled at the engine's inlet.
fn run_sharded(queries: &[Query], events: &[Event], feed: Feed, shards: usize) -> ShardedCounts {
    let mut cfg = ParallelConfig::new(shards);
    cfg.lateness = feed.lateness;
    let mut engine = ParallelEngine::with_config(queries.to_vec(), cfg).unwrap();
    let (mut results, mut digest, mut max_ts) = (0, FNV_BASIS, 0);
    let batches = events.len().div_ceil(BATCH);
    for (i, batch) in events.chunks(BATCH).enumerate() {
        max_ts = batch.iter().fold(max_ts, |m, ev| m.max(ev.ts));
        engine.on_batch(&EventBatch::from(batch.to_vec()));
        if (i + 1) % feed.wm_batches != 0 && i + 1 != batches {
            continue;
        }
        engine.on_watermark(max_ts.saturating_sub(feed.lateness.unwrap_or(0)));
        for r in engine.drain_results() {
            digest = fnv_result(digest, &r);
            results += 1;
        }
    }
    assert_eq!(engine.late_dropped(), 0);
    let merges = engine.metrics().merges;
    engine.finish();
    let metrics = engine.metrics();
    ShardedCounts {
        shards,
        results,
        merges,
        calculations: metrics.calculations,
        slices: metrics.slices,
        digest,
    }
}

/// Runs the shape through the sharded engine at 1 and 2 shards, each
/// twice (the counts must not move), and checks them.
fn assert_sharded_counts(
    queries: &[Query],
    events: &[Event],
    feed: Feed,
    want: [ShardedCounts; 2],
) {
    for want in want {
        let counts = run_sharded(queries, events, feed, want.shards);
        assert_eq!(
            run_sharded(queries, events, feed, want.shards),
            counts,
            "a second sharded run counted otherwise"
        );
        println!(
            "{counts:?}: {:.4} merges/result",
            counts.merges as f64 / counts.results as f64
        );
        assert_eq!(counts, want);
    }
}

/// What one unpaced `star(2)` cluster run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClusterCounts {
    events: u64,
    results: u64,
    /// Frames sent over all links.
    frames: u64,
    /// Payload bytes sent over all links.
    wire_bytes: u64,
    /// FNV-1a over every result in report order.
    digest: u64,
}

/// Runs the timestamp-ordered `events` through an unpaced `star(2)` Desis
/// cluster, split as the benchmark splits them: event `e` on local
/// `e.ts % 2`, except that the second marker of a pair (same event,
/// directly after the first) goes to the other local, so each local sees
/// every window boundary. The one non-default setting is the
/// benchmark's: a 60 s `nack_grace`, so that no lingering sender re-sends
/// its last frame while the root still works and frames do not depend on
/// timing.
fn run_star2(queries: &[Query], events: &[Event]) -> ClusterCounts {
    let mut feeds = vec![Vec::new(), Vec::new()];
    let mut previous: Option<&Event> = None;
    for ev in events {
        let mut local = (ev.ts % 2) as usize;
        if ev.marker.is_some() && previous == Some(ev) {
            local = 1 - local;
        }
        feeds[local].push(*ev);
        previous = Some(ev);
    }
    let mut cfg = ClusterConfig::new(
        DistributedSystem::Desis,
        queries.to_vec(),
        Topology::star(2),
    );
    cfg.recovery.nack_grace = std::time::Duration::from_secs(60);
    let report = run_cluster(cfg, feeds).unwrap();
    assert!(report.lost_children.is_empty());
    let counters = &report.metrics.counters;
    let frames = (0..report.topology.len() as u32)
        .filter_map(|node| counters.get(&desis::core::obs::names::egress_msgs(node)))
        .sum();
    ClusterCounts {
        events: report.events,
        results: report.results.len() as u64,
        frames,
        wire_bytes: report.total_bytes(),
        digest: report.results.iter().fold(FNV_BASIS, fnv_result),
    }
}

/// Runs the shape through the cluster twice (the counts must not move)
/// and checks them.
fn assert_cluster_counts(queries: &[Query], events: &[Event], want: ClusterCounts) {
    let counts = run_star2(queries, events);
    assert_eq!(
        run_star2(queries, events),
        counts,
        "a second cluster run counted otherwise"
    );
    println!(
        "{counts:?}: {:.3} results/event, {:.2} frames/kevent, {:.2} wire bytes/event",
        counts.results as f64 / counts.events as f64,
        counts.frames as f64 * 1e3 / counts.events as f64,
        counts.wire_bytes as f64 / counts.events as f64,
    );
    assert_eq!(counts, want);
}

/// The `many_queries` stream: 1 event/ms over 64 keys for 16 s, values
/// 1, 2 or 4.
fn many_queries_events() -> Vec<Event> {
    dense_stream(&mut Rng(1), 16_000, 1, 64, |rng| {
        [1.0, 2.0, 4.0][rng.below(3) as usize]
    })
}

/// The `slide_wide` stream: 2 events/ms over 256 keys for 20 s.
fn slide_wide_events() -> Vec<Event> {
    dense_stream(&mut Rng(1), 20_000, 2, 256, |rng| rng.below(1000) as f64)
}

/// The `ingest_dense` stream: 100 events/ms over 16 keys for 5.5 s.
fn ingest_dense_events() -> Vec<Event> {
    dense_stream(&mut Rng(1), 5_500, 100, 16, |rng| rng.below(1000) as f64)
}

/// `ingest_dense` drains every 24 batches.
const INGEST_DENSE_FEED: Feed = Feed {
    wm_batches: 24,
    lateness: None,
};

/// `mixed_unfixed` is displaced: 250 ms of lateness.
const MIXED_UNFIXED_FEED: Feed = Feed {
    wm_batches: 1,
    lateness: Some(250),
};

#[test]
fn many_queries_shape_counts() {
    let want = Counts {
        events: 16_000,
        results: 175_808,
        merges: 29_760,
        calculations: 80_000,
        slices: 31,
        allocations: 194_388,
        bytes: 28_874_952,
        retained_slices_max: 31,
        digest: 0xbefd_96eb_f344_dddf,
    };
    assert_counts(&many_queries(), &many_queries_events(), EVERY_BATCH, want);
}

#[test]
fn slide_wide_shape_counts() {
    let want = Counts {
        events: 40_000,
        results: 168_960,
        merges: 176_823,
        calculations: 120_000,
        slices: 199,
        allocations: 171_871,
        bytes: 56_651_876,
        retained_slices_max: 39,
        digest: 0xf993_3e43_3303_e028,
    };
    assert_counts(&slide_wide(), &slide_wide_events(), EVERY_BATCH, want);
}

#[test]
fn ingest_dense_shape_counts() {
    let want = Counts {
        events: 550_000,
        results: 1_152,
        merges: 1_280,
        calculations: 6_706_764,
        slices: 40,
        allocations: 1_649,
        bytes: 479_904,
        retained_slices_max: 36,
        digest: 0x5f09_6b70_a0da_0a55,
    };
    assert_counts(
        &ingest_dense(),
        &ingest_dense_events(),
        INGEST_DENSE_FEED,
        want,
    );
}

#[test]
fn mixed_unfixed_shape_counts() {
    let want = Counts {
        events: 30_000,
        results: 3_508,
        merges: 512,
        calculations: 123_687,
        slices: 88,
        allocations: 8_219,
        bytes: 4_284_160,
        retained_slices_max: 3,
        digest: 0x28e6_adaa_cfd1_3651,
    };
    let events = mixed_stream(&mut Rng(1));
    assert_counts(&mixed_unfixed(), &events, MIXED_UNFIXED_FEED, want);
}

/// A sharded row: `shards`, results, merges, `(calculations, slices)`,
/// digest.
fn sharded(
    shards: usize,
    results: u64,
    merges: u64,
    (calculations, slices): (u64, u64),
    digest: u64,
) -> ShardedCounts {
    ShardedCounts {
        shards,
        results,
        merges,
        calculations,
        slices,
        digest,
    }
}

#[test]
fn many_queries_shape_sharded_counts() {
    let want = [
        sharded(1, 175_808, 29_760, (80_000, 31), 0xbefd_96eb_f344_dddf),
        sharded(2, 175_808, 29_760, (80_000, 62), 0xbefd_96eb_f344_dddf),
    ];
    assert_sharded_counts(&many_queries(), &many_queries_events(), EVERY_BATCH, want);
}

#[test]
fn slide_wide_shape_sharded_counts() {
    let want = [
        sharded(1, 168_960, 176_823, (120_000, 199), 0xf993_3e43_3303_e028),
        sharded(2, 168_960, 176_823, (120_000, 398), 0xf993_3e43_3303_e028),
    ];
    assert_sharded_counts(&slide_wide(), &slide_wide_events(), EVERY_BATCH, want);
}

#[test]
fn ingest_dense_shape_sharded_counts() {
    let want = [
        sharded(1, 1_152, 1_280, (6_706_764, 40), 0x5f09_6b70_a0da_0a55),
        sharded(2, 1_152, 1_280, (6_706_764, 80), 0x5f09_6b70_a0da_0a55),
    ];
    let events = ingest_dense_events();
    assert_sharded_counts(&ingest_dense(), &events, INGEST_DENSE_FEED, want);
}

#[test]
fn mixed_unfixed_shape_sharded_counts() {
    let want = [
        sharded(1, 3_508, 384, (164_953, 92), 0x28e6_adaa_cfd1_3651),
        sharded(2, 3_508, 384, (164_953, 169), 0x28e6_adaa_cfd1_3651),
    ];
    let events = mixed_stream(&mut Rng(1));
    assert_sharded_counts(&mixed_unfixed(), &events, MIXED_UNFIXED_FEED, want);
}

#[test]
fn many_queries_shape_cluster_counts() {
    let mut rng = Rng(1);
    let events = dense_stream(&mut rng, 8_000, 1, 64, |rng| {
        [1.0, 2.0, 4.0][rng.below(3) as usize]
    });
    let want = ClusterCounts {
        events: 8_000,
        results: 171_904,
        frames: 328,
        wire_bytes: 171_662,
        digest: 0xb2a4_06cc_09da_5fc3,
    };
    assert_cluster_counts(&many_queries(), &events, want);
}

#[test]
fn slide_wide_shape_cluster_counts() {
    let mut rng = Rng(1);
    let events = dense_stream(&mut rng, 10_000, 2, 256, |rng| rng.below(1000) as f64);
    let want = ClusterCounts {
        events: 20_000,
        results: 102_176,
        frames: 321,
        wire_bytes: 578_479,
        digest: 0x65a6_b2ac_947f_1cbd,
    };
    assert_cluster_counts(&slide_wide(), &events, want);
}

#[test]
fn ingest_dense_shape_cluster_counts() {
    let mut rng = Rng(1);
    let events = dense_stream(&mut rng, 2_500, 100, 16, |rng| rng.below(1000) as f64);
    let want = ClusterCounts {
        events: 250_000,
        results: 704,
        frames: 140,
        wire_bytes: 27_476,
        digest: 0x940e_9742_8143_5a0b,
    };
    assert_cluster_counts(&ingest_dense(), &events, want);
}

#[test]
fn mixed_unfixed_shape_cluster_counts() {
    // A local has no reorder stage: the cluster is fed the displaced
    // stream in timestamp order (stable, so a marker pair stays a pair).
    let mut events = mixed_stream(&mut Rng(1));
    events.sort_by_key(|ev| ev.ts);
    let want = ClusterCounts {
        events: 30_000,
        results: 4_271,
        frames: 324,
        wire_bytes: 676_053,
        digest: 0x4d98_2500_0ae9_1615,
    };
    assert_cluster_counts(&mixed_unfixed(), &events, want);
}
