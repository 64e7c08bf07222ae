//! The four workloads: standing queries, a seeded input stream, and the
//! frozen sizes of every sample.
//!
//! The query sets are constants of the benchmark — every run, whatever
//! its seed, measures the same standing queries — and `--seed` drives
//! the data: keys, values and which events arrive displaced. The program
//! under test only ever sees the generated events.
//!
//! Streams are periodic. One *lap* (≤ 1 MiB of [`Event`]s) is generated
//! from the seed before anything is timed and replayed with a per-lap
//! timestamp offset, so timed regions do no input work beyond one copy
//! and one add per event, and the input stays cache-resident instead of
//! competing with the program for memory bandwidth.

use desis_core::aggregate::AggFunction;
use desis_core::event::{Event, Marker, MarkerKind};
use desis_core::predicate::Predicate;
use desis_core::query::Query;
use desis_core::time::Timestamp;
use desis_core::window::WindowSpec;

/// Events handed to the sharded engine per `on_batch` call, and the
/// chunk size of every other feed loop.
pub const BATCH: usize = 4096;

/// Local nodes of the `star(2)` cluster; event `e` belongs to local
/// `e.ts % LOCALS` (see [`Workload::feeds`]): each local observes every
/// other millisecond of the stream, all keys. (Not `key % LOCALS`: the root's `EventMerger` takes
/// the last timestamp of a raw-event batch as that child's progress, so
/// events of one millisecond that sit on two children reach
/// count-measured windows in an order that depends on which batch
/// arrives first. With a millisecond never shared, every run — one node
/// or a cluster — sees count windows fill in the same order.)
pub const LOCALS: usize = 2;

/// Marker channel of the user-defined window query.
const UD_CHANNEL: u32 = 5;

/// Seed of the `many_queries` query set (a constant: see module docs).
const QUERY_SEED: u64 = 0x05ee_d0fd_e515;

/// SplitMix64: small, seedable, and good enough to draw workloads from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: unbiased enough for n << 2^64.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How a workload's keys are drawn.
#[derive(Debug, Clone)]
enum Keys {
    /// Every key equally often, in a fixed rotation over seeded labels
    /// (shifted by one each cycle so that no key is tied to one local):
    /// how many keys a slice holds — and with it every count and byte on
    /// the wire — is then the same for every seed, while which label sits
    /// where is not.
    Rotation(Vec<u32>),
    /// Zipf, as the cumulative distribution over ranks; key = popularity
    /// rank, so the per-shard load split is the same for every seed.
    Zipf(Vec<f64>),
}

impl Keys {
    /// A rotation over a seeded permutation of `0..n`.
    fn rotation(rng: &mut Rng, n: u32) -> Self {
        let mut labels: Vec<u32> = (0..n).collect();
        for i in (1..labels.len()).rev() {
            labels.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Keys::Rotation(labels)
    }

    /// Zipf with the given exponent over ranks `0..n`.
    fn zipf(n: u32, exponent: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| f64::from(r).powf(-exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Keys::Zipf(
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        )
    }

    /// The key of the `index`-th event of a lap.
    fn draw(&self, rng: &mut Rng, index: u64) -> u32 {
        match self {
            Keys::Rotation(labels) => {
                let n = labels.len() as u64;
                labels[((index + index / n) % n) as usize]
            }
            Keys::Zipf(cdf) => {
                let u = rng.unit();
                cdf.partition_point(|c| *c <= u).min(cdf.len() - 1) as u32
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Values {
    /// Whole numbers in `0..n`: every sum is exact in `f64`, so results
    /// are bit-identical however partials are associated.
    Whole(u32),
    /// One of 1, 2, 4: as above, and products stay exact powers of two
    /// (`many_queries` runs Product and GeometricMean).
    PowersOfTwo,
}

impl Values {
    fn draw(self, rng: &mut Rng) -> f64 {
        match self {
            Values::Whole(n) => rng.below(u64::from(n)) as f64,
            Values::PowersOfTwo => [1.0, 2.0, 4.0][rng.below(3) as usize],
        }
    }
}

/// Frozen sizes: sized once so that a sample takes 0.15–0.3 s at the
/// commit that introduced the benchmark, never adjusted by elapsed time.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Events per `seq_events_per_s` sample.
    pub seq_events: u64,
    /// Events per `sharded_events_per_s` sample.
    pub sharded_events: u64,
    /// Events per saturated `star(2)` cluster run.
    pub cluster_events: u64,
    /// Events per paced `three_tier(1, 1)` run.
    pub latency_events: u64,
    /// `pace_speedup` of the paced runs: ≈ 40% of the saturated rate.
    pub pace_speedup: f64,
    /// Events of the correctness-gate prefix.
    pub gate_events: u64,
    /// Events of the traced chain replay.
    pub trace_events: u64,
    /// Watermark + drain every this many batches of [`BATCH`] events.
    pub wm_batches: u64,
}

impl Sizes {
    /// The same code paths with tiny counts (`--smoke`).
    fn smoke(self) -> Self {
        let shrink = |n: u64, floor: u64| (n / 24).max(floor);
        Self {
            seq_events: shrink(self.seq_events, 8_192),
            sharded_events: shrink(self.sharded_events, 8_192),
            cluster_events: shrink(self.cluster_events, 4_096),
            latency_events: shrink(self.latency_events, 4_096),
            gate_events: shrink(self.gate_events, 2_048),
            trace_events: shrink(self.trace_events, 2_048),
            ..self
        }
    }
}

/// One workload, ready to run.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The standing queries.
    pub queries: Vec<Query>,
    /// One lap of the stream, in arrival order.
    pub lap: Vec<Event>,
    /// Event time one lap covers.
    pub lap_span_ms: u64,
    /// Allowed lateness: `Some` on the one workload that arrives out of
    /// order (reorder buffer in front of the engines).
    pub lateness: Option<u64>,
    /// Frozen sample sizes.
    pub sizes: Sizes,
}

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "ingest_dense",
    "slide_wide",
    "mixed_unfixed",
    "many_queries",
];

impl Workload {
    /// Builds workload `name` for `seed`; `None` for an unknown name.
    pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Self> {
        // Each workload draws from its own stream of the seed.
        let salt = name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
        let mut rng = Rng::new(seed ^ salt);
        let mut w = match name {
            "ingest_dense" => Self {
                name: "ingest_dense",
                queries: ingest_dense_queries(),
                lap: dense_lap(&mut rng, 320, 100, 16, Values::Whole(1000)),
                lap_span_ms: 320,
                lateness: None,
                sizes: Sizes {
                    seq_events: 1_280_000,
                    sharded_events: 1_280_000,
                    cluster_events: 1_280_000,
                    latency_events: 1_200_000,
                    pace_speedup: 36.0,
                    gate_events: 640_000,
                    trace_events: 1_280_000,
                    wm_batches: 24,
                },
            },
            "slide_wide" => Self {
                name: "slide_wide",
                queries: slide_wide_queries(),
                lap: dense_lap(&mut rng, 16_000, 2, 256, Values::Whole(1000)),
                lap_span_ms: 16_000,
                lateness: None,
                sizes: Sizes {
                    seq_events: 80_000,
                    sharded_events: 80_000,
                    cluster_events: 56_000,
                    latency_events: 24_000,
                    pace_speedup: 70.0,
                    gate_events: 32_000,
                    trace_events: 64_000,
                    wm_batches: 1,
                },
            },
            "mixed_unfixed" => Self {
                name: "mixed_unfixed",
                queries: mixed_unfixed_queries(),
                lap: mixed_lap(&mut rng),
                lap_span_ms: MIXED_BURSTS * MIXED_PERIOD_MS,
                lateness: Some(250),
                sizes: Sizes {
                    seq_events: 360_000,
                    sharded_events: 360_000,
                    cluster_events: 300_000,
                    latency_events: 30_000,
                    pace_speedup: 64.0,
                    gate_events: 60_000,
                    trace_events: 120_000,
                    wm_batches: 1,
                },
            },
            "many_queries" => Self {
                name: "many_queries",
                queries: many_queries_queries(),
                lap: dense_lap(&mut rng, 30_000, 1, 64, Values::PowersOfTwo),
                lap_span_ms: 30_000,
                lateness: None,
                sizes: Sizes {
                    seq_events: 16_000,
                    sharded_events: 16_000,
                    cluster_events: 10_000,
                    latency_events: 8_000,
                    pace_speedup: 26.0,
                    gate_events: 3_000,
                    trace_events: 12_000,
                    wm_batches: 1,
                },
            },
            _ => return None,
        };
        if smoke {
            w.sizes = w.sizes.smoke();
        }
        Some(w)
    }

    /// Event `index` of the endless stream (arrival order).
    #[cfg(test)]
    pub fn event_at(&self, index: u64) -> Event {
        let lap = self.lap.len() as u64;
        let mut ev = self.lap[(index % lap) as usize];
        ev.ts += index / lap * self.lap_span_ms;
        ev
    }

    /// Appends events `from..to` of the stream to `out`.
    #[inline]
    pub fn fill(&self, from: u64, to: u64, out: &mut Vec<Event>) {
        let lap = self.lap.len() as u64;
        let mut index = from;
        while index < to {
            let offset = index / lap * self.lap_span_ms;
            let start = (index % lap) as usize;
            let take = ((to - index) as usize).min(self.lap.len() - start);
            out.extend(self.lap[start..start + take].iter().map(|ev| Event {
                ts: ev.ts + offset,
                ..*ev
            }));
            index += take as u64;
        }
    }

    /// The first `n` events in arrival order.
    pub fn arrival_prefix(&self, n: u64) -> Vec<Event> {
        let mut out = Vec::with_capacity(n as usize);
        self.fill(0, n, &mut out);
        out
    }

    /// The first `n` events in timestamp order — what a reorder buffer
    /// releases (stable: ties keep arrival order), and what the cluster
    /// is fed, since `desis-net` has no reorder stage.
    pub fn ordered_prefix(&self, n: u64) -> Vec<Event> {
        let mut out = self.arrival_prefix(n);
        if self.lateness.is_some() {
            out.sort_by_key(|ev| ev.ts);
        }
        out
    }

    /// Splits a timestamp-ordered stream into one feed per local node:
    /// event `e` goes to local `e.ts % LOCALS`, except that the second
    /// marker of a pair (same timestamp, directly after the first) goes
    /// to the other local, so each local sees every window boundary.
    pub fn feeds(ordered: &[Event]) -> Vec<Vec<Event>> {
        let mut feeds = vec![Vec::new(); LOCALS];
        let mut previous: Option<&Event> = None;
        for ev in ordered {
            let mut local = ev.ts as usize % LOCALS;
            if ev.marker.is_some() && previous == Some(ev) {
                local = (local + 1) % LOCALS;
            }
            feeds[local].push(*ev);
            previous = Some(ev);
        }
        feeds
    }

    /// A watermark that is safe once the highest timestamp seen is
    /// `max_ts`: nothing at or below it is still to come.
    #[inline]
    pub fn watermark_after(&self, max_ts: Timestamp) -> Timestamp {
        max_ts.saturating_sub(self.lateness.unwrap_or(0))
    }

    /// Event time appended after the last event of a checked run so that
    /// every open window fires: the longest window or session gap, plus
    /// slack beyond the lateness bound. (Count and user-defined windows
    /// close on data, never on time.)
    pub fn flush_horizon_ms(&self) -> u64 {
        use desis_core::window::{Measure, WindowKind};
        let longest = self
            .queries
            .iter()
            .map(|q| match (q.window.kind, q.window.measure) {
                (WindowKind::Tumbling { length }, Measure::Time)
                | (WindowKind::Sliding { length, .. }, Measure::Time) => length,
                (WindowKind::Session { gap }, _) => gap,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        longest + 2_000
    }

    /// Rounds `n` events up to whole laps when the stream is disordered:
    /// a lap ends in a gap longer than the lateness bound, so at a lap
    /// boundary nothing is in flight and every engine has seen the same
    /// events.
    pub fn whole_laps(&self, n: u64) -> u64 {
        if self.lateness.is_none() {
            return n;
        }
        let lap = self.lap.len() as u64;
        n.div_ceil(lap) * lap
    }
}

fn window(spec: Result<WindowSpec, desis_core::DesisError>) -> WindowSpec {
    spec.expect("benchmark window specs are valid constants")
}

/// 16 tumbling-time queries: four (function, length) pairs × four
/// selection classes whose predicates partially overlap, so the analyzer
/// must keep them in four query-groups.
fn ingest_dense_queries() -> Vec<Query> {
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
            queries.push(
                Query::new(id, window(WindowSpec::tumbling_time(length)), function)
                    .filtered(predicate),
            );
        }
    }
    queries
}

/// Four sliding-time queries re-merging 20–40 slices × up to 256 keys
/// every 100 ms: two invertible functions, two not.
fn slide_wide_queries() -> Vec<Query> {
    vec![
        Query::new(
            1,
            window(WindowSpec::sliding_time(4_000, 100)),
            AggFunction::Sum,
        ),
        Query::new(
            2,
            window(WindowSpec::sliding_time(4_000, 100)),
            AggFunction::Average,
        ),
        Query::new(
            3,
            window(WindowSpec::sliding_time(4_000, 100)),
            AggFunction::Max,
        ),
        Query::new(
            4,
            window(WindowSpec::sliding_time(2_000, 100)),
            AggFunction::Min,
        ),
    ]
}

/// One query of every window class the fixed-window workloads leave out.
fn mixed_unfixed_queries() -> Vec<Query> {
    vec![
        Query::new(1, window(WindowSpec::session(2_000)), AggFunction::Max),
        Query::new(2, window(WindowSpec::session(2_000)), AggFunction::Median),
        Query::new(
            3,
            window(WindowSpec::tumbling_count(1_000)),
            AggFunction::Sum,
        )
        .filtered(Predicate::ValueAbove(500.0)),
        // Selects every data event and no marker event (`MARKER_VALUE`);
        // see `mixed_lap` for why.
        Query::new(
            4,
            WindowSpec::user_defined(UD_CHANNEL),
            AggFunction::Average,
        )
        .filtered(Predicate::ValueAbove(-0.5)),
        Query::new(
            5,
            window(WindowSpec::tumbling_time(1_000)),
            AggFunction::Sum,
        ),
        Query::new(
            6,
            window(WindowSpec::sliding_time(2_000, 500)),
            AggFunction::Quantile(0.9),
        ),
    ]
}

/// 1 000 queries, half tumbling half sliding, lengths and steps multiples
/// of 500 ms in [0.5 s, 30 s], function uniform over all eleven
/// [`AggFunction`]s, no predicates: one query-group, one slicer.
fn many_queries_queries() -> Vec<Query> {
    let mut rng = Rng::new(QUERY_SEED);
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
            Query::new(id, window(spec), function)
        })
        .collect()
}

/// An in-order lap of `span_ms` milliseconds with `per_ms` events each,
/// over `keys` uniformly used keys.
fn dense_lap(rng: &mut Rng, span_ms: u64, per_ms: u64, keys: u32, values: Values) -> Vec<Event> {
    let keys = Keys::rotation(rng, keys);
    (0..span_ms * per_ms)
        .map(|i| Event::new(i / per_ms, keys.draw(rng, i), values.draw(rng)))
        .collect()
}

/// Bursts per lap of `mixed_unfixed`.
const MIXED_BURSTS: u64 = 6;
/// Events per burst (at 10 events/ms: 500 ms).
const MIXED_BURST_EVENTS: u64 = 5_000;
/// Events per millisecond inside a burst.
const MIXED_PER_MS: u64 = 10;
/// Burst plus the (on average) 5 s gap that closes every session.
const MIXED_PERIOD_MS: u64 = 5_500;
/// What each gap of a lap adds to 5 s (cancelling out over the lap).
/// Results that wait for the stream to resume (sessions, windows ending
/// inside a gap) are late by the gap; with equal gaps their latencies
/// pile up on a few values 500 ms of event time apart, and the median
/// latency jumps from pile to pile with the smallest change in result
/// counts. Unequal gaps spread the piles out. The offsets are constants,
/// not seeded: where bursts sit relative to the window grid decides how
/// many windows hold data, so seeded gaps would make result and frame
/// counts differ from seed to seed.
const MIXED_GAP_OFFSETS_MS: [i64; MIXED_BURSTS as usize] = [370, -370, -210, 210, 90, -90];
/// A Start or End marker pair every this many events.
const MIXED_MARKER_EVERY: u64 = 1_777;
/// Largest displacement; the lateness bound (250 ms) covers it.
const MIXED_MAX_DELAY_MS: u64 = 200;

/// Value of marker-carrying events: below the data range `0..1000`, so
/// the predicates of the count query and of the user-defined window
/// query both reject it.
pub const MARKER_VALUE: f64 = -1.0;

/// The `mixed_unfixed` lap in arrival order: 64 Zipf(1.1) keys, bursts of
/// 10 events/ms separated by gaps of 5 s ± 0.4 s, a Start or End marker pair every
/// 1 777 events, and 5% of events arriving up to 200 ms of event time
/// late.
///
/// Markers come in pairs of identical events at the end of one
/// millisecond, one for each local (see [`Workload::feeds`]). A cluster
/// closes user-defined windows per local stream and merges the k-th
/// window of every child, so each local needs its own markers; with the
/// pair adjacent and simultaneous, every local's window holds exactly its
/// share of the one window a single node sees, with the same bounds. The
/// marker events carry [`MARKER_VALUE`], which the user-defined query's
/// predicate rejects — whether the second End marker falls inside the
/// window (it does on its own local, not on a single node) then cannot
/// matter — and which the count query's predicate rejects too, so the
/// one timestamp two locals share never reaches a count window.
fn mixed_lap(rng: &mut Rng) -> Vec<Event> {
    let keys = Keys::zipf(64, 1.1);
    let values = Values::Whole(1000);
    let mut ordered: Vec<Event> = Vec::with_capacity((MIXED_BURSTS * MIXED_BURST_EVENTS) as usize);
    let mut burst_start = 0;
    for burst in 0..MIXED_BURSTS {
        let start = burst_start;
        burst_start = (burst_start + MIXED_PERIOD_MS)
            .saturating_add_signed(MIXED_GAP_OFFSETS_MS[burst as usize]);
        for i in 0..MIXED_BURST_EVENTS {
            let ts = start + i / MIXED_PER_MS;
            let key = keys.draw(rng, burst * MIXED_BURST_EVENTS + i);
            ordered.push(Event::new(ts, key, values.draw(rng)));
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
        let first = Event::with_marker(
            ordered[pos - 1].ts,
            ordered[pos - 1].key,
            MARKER_VALUE,
            Marker {
                channel: UD_CHANNEL,
                kind,
            },
        );
        ordered[pos - 1] = first;
        ordered[pos] = first;
        due += MIXED_MARKER_EVERY as usize;
    }
    debug_assert_eq!(markers % 2, 0, "a lap must close the windows it opens");
    // (arrival time, displaced, position): stable order of arrival.
    let mut arrival: Vec<(Timestamp, bool, usize)> = ordered
        .iter()
        .enumerate()
        .map(|(pos, ev)| {
            // Markers stay put: a displaced event re-enters at the end of
            // its millisecond, which would part the pair.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_fit_the_budget_and_stay_inside_their_span() {
        for name in NAMES {
            let w = Workload::build(name, 7, false).unwrap();
            assert!(
                w.lap.len() * std::mem::size_of::<Event>() <= 1 << 20,
                "{name}: lap over 1 MiB"
            );
            let ordered = w.ordered_prefix(w.lap.len() as u64);
            assert!(ordered.windows(2).all(|p| p[0].ts <= p[1].ts), "{name}");
            assert!(ordered.last().unwrap().ts < w.lap_span_ms);
            let feeds = Workload::feeds(&ordered);
            assert_eq!(feeds.len(), LOCALS);
            for (local, feed) in feeds.iter().enumerate() {
                assert!(!feed.is_empty(), "{name}");
                assert!(feed
                    .iter()
                    .all(|ev| ev.marker.is_some() || ev.ts as usize % LOCALS == local));
            }
            assert_eq!(feeds.iter().map(Vec::len).sum::<usize>(), ordered.len());
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs_same_queries() {
        for name in NAMES {
            let a = Workload::build(name, 11, false).unwrap();
            let b = Workload::build(name, 11, false).unwrap();
            let c = Workload::build(name, 12, false).unwrap();
            assert_eq!(a.lap, b.lap, "{name}");
            assert_eq!(a.queries, b.queries, "{name}");
            assert_ne!(a.lap, c.lap, "{name}");
            assert_eq!(a.queries, c.queries, "{name}");
            assert_eq!(a.lap.len(), c.lap.len(), "{name}");
            assert_eq!(a.lap_span_ms, c.lap_span_ms, "{name}");
        }
        assert!(Workload::build("nope", 1, false).is_none());
    }

    #[test]
    fn stream_repeats_the_lap_with_a_time_offset() {
        let w = Workload::build("slide_wide", 3, false).unwrap();
        let lap = w.lap.len() as u64;
        let mut got = Vec::new();
        w.fill(lap - 2, 2 * lap + 3, &mut got);
        assert_eq!(got.len() as u64, lap + 5);
        for (i, ev) in got.iter().enumerate() {
            assert_eq!(*ev, w.event_at(lap - 2 + i as u64));
        }
        assert_eq!(w.event_at(lap).ts, w.lap[0].ts + w.lap_span_ms);
        assert_eq!(w.event_at(2 * lap + 1).key, w.lap[1].key);
        assert!(got.windows(2).all(|p| p[0].ts <= p[1].ts));
    }

    #[test]
    fn query_sets_have_the_documented_shapes() {
        let dense = ingest_dense_queries();
        assert_eq!(dense.len(), 16);
        let many = many_queries_queries();
        assert_eq!(many.len(), 1_000);
        let sliding = many
            .iter()
            .filter(|q| {
                matches!(
                    q.window.kind,
                    desis_core::window::WindowKind::Sliding { .. }
                )
            })
            .count();
        assert_eq!(sliding, 500);
        for q in &many {
            q.validate().unwrap();
            assert_eq!(q.predicate, Predicate::True);
        }
        assert_eq!(mixed_unfixed_queries().len(), 6);
        assert_eq!(slide_wide_queries().len(), 4);
    }

    #[test]
    fn mixed_lap_displaces_about_five_percent_within_the_bound() {
        let w = Workload::build("mixed_unfixed", 5, false).unwrap();
        let mut max_seen = 0;
        let mut displaced = 0usize;
        let mut worst = 0;
        for ev in &w.lap {
            if ev.ts < max_seen {
                displaced += 1;
                worst = worst.max(max_seen - ev.ts);
            }
            max_seen = max_seen.max(ev.ts);
        }
        let share = displaced as f64 / w.lap.len() as f64;
        assert!((0.03..0.07).contains(&share), "displaced share {share}");
        assert!(worst <= MIXED_MAX_DELAY_MS, "worst displacement {worst}");
        assert!(worst < w.lateness.unwrap());
        let markers = w.lap.iter().filter(|ev| ev.marker.is_some()).count();
        assert_eq!(markers, 32, "16 marker pairs per lap");
        let ordered = w.ordered_prefix(w.lap.len() as u64);
        let marked: Vec<usize> = (0..ordered.len())
            .filter(|pos| ordered[*pos].marker.is_some())
            .collect();
        for pair in marked.chunks(2) {
            assert_eq!(pair[1], pair[0] + 1, "pair adjacent in the merged stream");
            assert_eq!(ordered[pair[0]], ordered[pair[1]], "pair identical");
            assert_eq!(ordered[pair[0]].value, MARKER_VALUE);
        }
        let feeds = Workload::feeds(&ordered);
        for feed in &feeds {
            assert_eq!(feed.iter().filter(|ev| ev.marker.is_some()).count(), 16);
        }
        // Whole laps only on the disordered stream.
        assert_eq!(w.whole_laps(1), w.lap.len() as u64);
        let in_order = Workload::build("slide_wide", 5, false).unwrap();
        assert_eq!(in_order.whole_laps(1234), 1234);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let Keys::Zipf(cdf) = Keys::zipf(64, 1.1) else {
            panic!("zipf keys");
        };
        assert!((cdf[63] - 1.0).abs() < 1e-9);
        assert!(cdf[0] > 0.2 && cdf[0] < 0.3);
        assert!(cdf.windows(2).all(|p| p[0] < p[1]));
    }
}
