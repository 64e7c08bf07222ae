//! Exact work counts of the sequential engine: heap allocations per
//! result, bundle merges per result and results per event, over fixed
//! small inputs shaped like two workloads of the repo benchmark
//! (`many_queries`: 1 000 tumbling/sliding queries over all eleven
//! functions, 64 keys; `slide_wide`: four sliding queries, 256 keys).
//!
//! Wall-clock rates drift from run to run and box to box; these counts
//! do not, so a change that claims to save allocations or merges pins
//! what it saved here. The shapes are copied as constants, not taken
//! from `benchmark/`, which is its own workspace.
//!
//! Allocations are counted per thread by a counting global allocator:
//! each `alloc`, `alloc_zeroed` and `realloc` call made by the test
//! thread between the first event and the last drain. Building the
//! engine and the input is not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use desis::core::aggregate::AggFunction;
use desis::core::engine::AggregationEngine;
use desis::core::event::Event;
use desis::core::query::Query;
use desis::core::window::WindowSpec;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down still frees and allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded to `System` unchanged; counting
// touches only a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
}

/// Events handed over between two watermarks (the benchmark's batch).
const BATCH: usize = 4096;

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

/// What one run of the sequential engine did.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counts {
    events: u64,
    results: u64,
    merges: u64,
    allocations: u64,
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

impl Counts {
    fn per_result(&self, n: u64) -> f64 {
        n as f64 / self.results as f64
    }
}

/// Feeds `events` in batches of [`BATCH`], a watermark at the highest
/// timestamp seen and a drain after each batch (the benchmark's timed
/// sequential sample: no flush at the end).
fn run(queries: &[Query], events: &[Event]) -> Counts {
    let mut engine = AggregationEngine::new(queries.to_vec()).unwrap();
    let (mut results, mut digest) = (0, 0xcbf2_9ce4_8422_2325);
    let before = allocations();
    for batch in events.chunks(BATCH) {
        for ev in batch {
            engine.on_event(ev);
        }
        engine.on_watermark(batch.last().map_or(0, |ev| ev.ts));
        for r in engine.drain_results() {
            let id = [r.query, u64::from(r.key), r.window_start, r.window_end];
            digest = fnv(digest, &id);
            for value in &r.values {
                digest = fnv(digest, &[value.map_or(u64::MAX, f64::to_bits)]);
            }
            results += 1;
        }
    }
    let allocations = allocations() - before;
    assert_eq!(engine.metrics().results, results);
    Counts {
        events: events.len() as u64,
        results,
        merges: engine.metrics().merges,
        allocations,
        digest,
    }
}

/// Runs the shape twice (the counts must not move) and checks them.
fn assert_counts(queries: &[Query], events: &[Event], want: Counts) {
    let counts = run(queries, events);
    assert_eq!(
        run(queries, events),
        counts,
        "a second run counted otherwise"
    );
    println!(
        "{counts:?}: {:.3} allocations/result, {:.4} merges/result, {:.3} results/event",
        counts.per_result(counts.allocations),
        counts.per_result(counts.merges),
        counts.results as f64 / counts.events as f64,
    );
    assert_eq!(counts, want);
}

#[test]
fn many_queries_shape_counts() {
    let mut rng = Rng(1);
    let events = dense_stream(&mut rng, 16_000, 1, 64, |rng| {
        [1.0, 2.0, 4.0][rng.below(3) as usize]
    });
    let want = Counts {
        events: 16_000,
        results: 175_808,
        merges: 29_760,
        allocations: 194_399,
        digest: 0xbefd_96eb_f344_dddf,
    };
    assert_counts(&many_queries(), &events, want);
}

#[test]
fn slide_wide_shape_counts() {
    let mut rng = Rng(1);
    let events = dense_stream(&mut rng, 20_000, 2, 256, |rng| rng.below(1000) as f64);
    let want = Counts {
        events: 40_000,
        results: 168_960,
        merges: 176_823,
        allocations: 171_871,
        digest: 0xf993_3e43_3303_e028,
    };
    assert_counts(&slide_wide(), &events, want);
}
