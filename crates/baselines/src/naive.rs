//! The non-sharing baselines: **CeBuffer** and **DeBucket** (paper
//! Section 6.1.1).
//!
//! Both systems process every query individually: each query maintains its
//! own concurrent windows and every event is folded into *every* window it
//! belongs to. The two differ only in per-window state:
//!
//! * `CeBuffer` buffers raw events per window and recomputes each
//!   aggregation function over the whole buffer when the window fires —
//!   no incremental aggregation.
//! * `DeBucket` keeps one incremental accumulator per (window, key,
//!   function) bucket, but shares nothing between overlapping windows or
//!   queries.

use std::collections::BTreeMap;

use rustc_hash::FxHashMap;

use desis_core::aggregate::AggFunction;
use desis_core::event::{Event, Key};
use desis_core::metrics::EngineMetrics;
use desis_core::query::{Query, QueryResult};
use desis_core::time::Timestamp;
use desis_core::window::{Measure, WindowKind};

use crate::accum::{compute_from_values, FnAccum};
use crate::processor::Processor;

/// Per-window state of a naive system.
pub trait WindowState: Clone + Default {
    /// Folds one event in. `calcs` counts incremental function executions.
    fn add(&mut self, key: Key, value: f64, functions: &[AggFunction], calcs: &mut u64);

    /// Produces per-key results. `calcs` counts function executions
    /// performed at finalization (the CeBuffer full-buffer scan).
    fn finalize(&self, functions: &[AggFunction], calcs: &mut u64) -> Vec<(Key, Vec<Option<f64>>)>;
}

/// CeBuffer state: the raw event buffer of one window.
#[derive(Debug, Clone, Default)]
pub struct BufferState {
    events: Vec<(Key, f64)>,
}

impl WindowState for BufferState {
    #[inline]
    fn add(&mut self, key: Key, value: f64, _functions: &[AggFunction], _calcs: &mut u64) {
        // Buffering only; all computation happens when the window fires.
        self.events.push((key, value));
    }

    fn finalize(&self, functions: &[AggFunction], calcs: &mut u64) -> Vec<(Key, Vec<Option<f64>>)> {
        // Group the buffer by key, then evaluate every function over the
        // raw values — the full iteration the paper charges CeBuffer for.
        let mut by_key: FxHashMap<Key, Vec<f64>> = FxHashMap::default();
        for (key, value) in &self.events {
            by_key.entry(*key).or_default().push(*value);
        }
        by_key
            .into_iter()
            .map(|(key, values)| {
                let results = functions
                    .iter()
                    .map(|f| {
                        let (r, touched) = compute_from_values(f, &values);
                        *calcs += touched;
                        r
                    })
                    .collect();
                (key, results)
            })
            .collect()
    }
}

/// DeBucket state: per-key incremental accumulators, one per function.
#[derive(Debug, Clone, Default)]
pub struct BucketState {
    by_key: FxHashMap<Key, Vec<FnAccum>>,
}

impl WindowState for BucketState {
    #[inline]
    fn add(&mut self, key: Key, value: f64, functions: &[AggFunction], calcs: &mut u64) {
        let accums = self
            .by_key
            .entry(key)
            .or_insert_with(|| functions.iter().map(FnAccum::new).collect());
        for acc in accums.iter_mut() {
            acc.update(value);
            *calcs += 1;
        }
    }

    fn finalize(&self, functions: &[AggFunction], calcs: &mut u64) -> Vec<(Key, Vec<Option<f64>>)> {
        self.by_key
            .iter()
            .map(|(key, accums)| {
                let results = functions
                    .iter()
                    .zip(accums)
                    .map(|(f, acc)| {
                        *calcs += 1;
                        acc.result(f)
                    })
                    .collect();
                (*key, results)
            })
            .collect()
    }
}

/// An active fixed-size window (time- or count-measured).
#[derive(Debug, Clone)]
struct ActiveWindow<S> {
    /// Window end in the measure domain (ms or events).
    end: u64,
    /// Window start/end in event time, for the emitted result.
    start_ts: Timestamp,
    state: S,
}

/// Per-query window bookkeeping.
#[derive(Debug, Clone)]
struct NaiveQuery<S> {
    query: Query,
    /// Fixed windows keyed by start (measure domain); BTreeMap keeps them
    /// ordered so expiry pops from the front.
    fixed: BTreeMap<u64, ActiveWindow<S>>,
    /// Open session: (first_ts, last_ts, state).
    session: Option<(Timestamp, Timestamp, S)>,
    /// Open user-defined window: (start_ts, state).
    ud: Option<(Timestamp, S)>,
    /// Matched events so far (count measure).
    matched: u64,
}

impl<S> NaiveQuery<S> {
    fn new(query: Query) -> Self {
        Self {
            query,
            fixed: BTreeMap::new(),
            session: None,
            ud: None,
            matched: 0,
        }
    }
}

/// A naive per-query-window processor, generic over window state.
#[derive(Debug, Clone)]
pub struct NaiveProcessor<S> {
    name: &'static str,
    queries: Vec<NaiveQuery<S>>,
    results: Vec<QueryResult>,
    metrics: EngineMetrics,
}

/// The CeBuffer baseline.
pub type CeBuffer = NaiveProcessor<BufferState>;
/// The DeBucket baseline.
pub type DeBucket = NaiveProcessor<BucketState>;

impl CeBuffer {
    /// Creates a CeBuffer instance over `queries`.
    pub fn cebuffer(queries: Vec<Query>) -> Self {
        NaiveProcessor::new("CeBuffer", queries)
    }
}

impl DeBucket {
    /// Creates a DeBucket instance over `queries`.
    pub fn debucket(queries: Vec<Query>) -> Self {
        NaiveProcessor::new("DeBucket", queries)
    }
}

impl<S: WindowState> NaiveProcessor<S> {
    /// Creates a processor with the given display name.
    pub fn new(name: &'static str, queries: Vec<Query>) -> Self {
        for q in &queries {
            q.validate().expect("invalid query");
        }
        Self {
            name,
            queries: queries.into_iter().map(NaiveQuery::new).collect(),
            results: Vec::new(),
            metrics: EngineMetrics::default(),
        }
    }

    /// Total number of currently active windows (all queries).
    pub fn active_windows(&self) -> usize {
        self.queries
            .iter()
            .map(|q| q.fixed.len() + usize::from(q.session.is_some()) + usize::from(q.ud.is_some()))
            .sum()
    }

    fn finalize_window(
        query: &Query,
        state: &S,
        start_ts: Timestamp,
        end_ts: Timestamp,
        results: &mut Vec<QueryResult>,
        metrics: &mut EngineMetrics,
    ) {
        for (key, values) in state.finalize(&query.functions, &mut metrics.calculations) {
            results.push(QueryResult {
                query: query.id,
                key,
                window_start: start_ts,
                window_end: end_ts,
                values,
            });
            metrics.results += 1;
        }
        metrics.windows_closed += 1;
    }

    /// Closes every time-domain window that ends at or before `ts`.
    fn expire_time(&mut self, ts: Timestamp) {
        for nq in &mut self.queries {
            if nq.query.window.measure == Measure::Time && nq.query.window.is_fixed_size() {
                while let Some((&start, win)) = nq.fixed.iter().next() {
                    if win.end <= ts {
                        let win = nq.fixed.remove(&start).expect("checked");
                        Self::finalize_window(
                            &nq.query,
                            &win.state,
                            win.start_ts,
                            win.end,
                            &mut self.results,
                            &mut self.metrics,
                        );
                    } else {
                        break;
                    }
                }
            }
            if let Some(gap) = nq.query.window.session_gap() {
                let expired = matches!(&nq.session, Some((_, last, _)) if last + gap <= ts);
                if expired {
                    let (first, last, state) = nq.session.take().expect("checked");
                    Self::finalize_window(
                        &nq.query,
                        &state,
                        first,
                        last + gap,
                        &mut self.results,
                        &mut self.metrics,
                    );
                }
            }
        }
    }
}

impl<S: WindowState> Processor for NaiveProcessor<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_event(&mut self, ev: &Event) {
        self.metrics.events += 1;
        self.expire_time(ev.ts);
        let results = &mut self.results;
        let metrics = &mut self.metrics;
        for nq in &mut self.queries {
            let matches = nq.query.predicate.matches(ev);
            let functions = &nq.query.functions;
            match (nq.query.window.kind, nq.query.window.measure) {
                (WindowKind::Tumbling { length }, Measure::Time) => {
                    if matches {
                        let start = ev.ts / length * length;
                        let win = nq.fixed.entry(start).or_insert_with(|| {
                            metrics.slices += 1;
                            ActiveWindow {
                                end: start + length,
                                start_ts: start,
                                state: S::default(),
                            }
                        });
                        win.state
                            .add(ev.key, ev.value, functions, &mut metrics.calculations);
                    }
                }
                (WindowKind::Sliding { length, step }, Measure::Time) => {
                    if matches {
                        let k_min = if ev.ts < length {
                            0
                        } else {
                            (ev.ts - length) / step + 1
                        };
                        let k_max = ev.ts / step;
                        for k in k_min..=k_max {
                            let start = k * step;
                            let win = nq.fixed.entry(start).or_insert_with(|| {
                                metrics.slices += 1;
                                ActiveWindow {
                                    end: start + length,
                                    start_ts: start,
                                    state: S::default(),
                                }
                            });
                            win.state
                                .add(ev.key, ev.value, functions, &mut metrics.calculations);
                        }
                    }
                }
                (WindowKind::Session { .. }, _) => {
                    if matches {
                        match &mut nq.session {
                            Some((_, last, state)) => {
                                *last = ev.ts;
                                state.add(ev.key, ev.value, functions, &mut metrics.calculations);
                            }
                            None => {
                                metrics.slices += 1;
                                let mut state = S::default();
                                state.add(ev.key, ev.value, functions, &mut metrics.calculations);
                                nq.session = Some((ev.ts, ev.ts, state));
                            }
                        }
                    }
                }
                (WindowKind::UserDefined { channel }, _) => {
                    if ev.starts_channel(channel) && nq.ud.is_none() {
                        metrics.slices += 1;
                        nq.ud = Some((ev.ts, S::default()));
                    }
                    if matches {
                        if let Some((_, state)) = &mut nq.ud {
                            state.add(ev.key, ev.value, functions, &mut metrics.calculations);
                        }
                    }
                    if ev.ends_channel(channel) {
                        if let Some((start_ts, state)) = nq.ud.take() {
                            Self::finalize_window(
                                &nq.query, &state, start_ts, ev.ts, results, metrics,
                            );
                        }
                    }
                }
                (WindowKind::Tumbling { length }, Measure::Count) => {
                    if matches {
                        nq.matched += 1;
                        let start = (nq.matched - 1) / length * length;
                        let win = nq.fixed.entry(start).or_insert_with(|| {
                            metrics.slices += 1;
                            ActiveWindow {
                                end: start + length,
                                // Count windows report their extent in the
                                // count domain (matched-event offsets).
                                start_ts: start,
                                state: S::default(),
                            }
                        });
                        win.state
                            .add(ev.key, ev.value, functions, &mut metrics.calculations);
                        if nq.matched == start + length {
                            let win = nq.fixed.remove(&start).expect("just inserted");
                            Self::finalize_window(
                                &nq.query,
                                &win.state,
                                win.start_ts,
                                win.end,
                                results,
                                metrics,
                            );
                        }
                    }
                }
                (WindowKind::Sliding { length, step }, Measure::Count) => {
                    if matches {
                        nq.matched += 1;
                        let i = nq.matched - 1; // 0-based index of this event
                        let k_min = if i < length {
                            0
                        } else {
                            (i - length) / step + 1
                        };
                        let k_max = i / step;
                        for k in k_min..=k_max {
                            let start = k * step;
                            let win = nq.fixed.entry(start).or_insert_with(|| {
                                metrics.slices += 1;
                                ActiveWindow {
                                    end: start + length,
                                    start_ts: start,
                                    state: S::default(),
                                }
                            });
                            win.state
                                .add(ev.key, ev.value, functions, &mut metrics.calculations);
                        }
                        while let Some((&start, win)) = nq.fixed.iter().next() {
                            if win.end <= nq.matched {
                                let win = nq.fixed.remove(&start).expect("checked");
                                Self::finalize_window(
                                    &nq.query,
                                    &win.state,
                                    win.start_ts,
                                    win.end,
                                    results,
                                    metrics,
                                );
                            } else {
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    fn on_watermark(&mut self, ts: Timestamp) {
        self.expire_time(ts);
    }

    fn drain_results(&mut self) -> Vec<QueryResult> {
        std::mem::take(&mut self.results)
    }

    fn metrics(&self) -> EngineMetrics {
        self.metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desis_core::predicate::Predicate;
    use desis_core::window::WindowSpec;

    fn tumbling_avg() -> Vec<Query> {
        vec![Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Average,
        )]
    }

    fn run<P: Processor>(p: &mut P, events: &[Event], wm: Timestamp) -> Vec<QueryResult> {
        for ev in events {
            p.on_event(ev);
        }
        p.on_watermark(wm);
        let mut r = p.drain_results();
        r.sort_by_key(|a| (a.query, a.window_start, a.key));
        r
    }

    #[test]
    fn cebuffer_and_debucket_agree_on_tumbling_average() {
        let events = vec![
            Event::new(0, 1, 10.0),
            Event::new(10, 1, 20.0),
            Event::new(20, 2, 5.0),
            Event::new(150, 1, 7.0),
        ];
        let a = run(&mut CeBuffer::cebuffer(tumbling_avg()), &events, 300);
        let b = run(&mut DeBucket::debucket(tumbling_avg()), &events, 300);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].values, vec![Some(15.0)]);
    }

    #[test]
    fn cebuffer_counts_finalization_scans() {
        let mut ce = CeBuffer::cebuffer(tumbling_avg());
        let mut db = DeBucket::debucket(tumbling_avg());
        let events: Vec<Event> = (0..100).map(|i| Event::new(i, 0, 1.0)).collect();
        for ev in &events {
            ce.on_event(ev);
            db.on_event(ev);
        }
        // DeBucket calculates incrementally; CeBuffer has done nothing yet.
        assert_eq!(db.metrics().calculations, 100);
        assert_eq!(ce.metrics().calculations, 0);
        ce.on_watermark(100);
        db.on_watermark(100);
        assert_eq!(ce.metrics().calculations, 100); // full scan at the end
    }

    #[test]
    fn sliding_count_windows() {
        // length 4 step 2 over 8 events of value 1..=8.
        let q = Query::new(
            1,
            WindowSpec::sliding_count(4, 2).unwrap(),
            AggFunction::Sum,
        );
        let events: Vec<Event> = (0..8).map(|i| Event::new(i, 0, (i + 1) as f64)).collect();
        let r = run(&mut DeBucket::debucket(vec![q]), &events, 100);
        let sums: Vec<f64> = r.iter().map(|x| x.values[0].unwrap()).collect();
        // Windows [0,4)=1+2+3+4, [2,6)=3+4+5+6, [4,8)=5+6+7+8.
        assert_eq!(sums, vec![10.0, 18.0, 26.0]);
    }

    #[test]
    fn session_windows_match_paper_semantics() {
        let q = Query::new(1, WindowSpec::session(100).unwrap(), AggFunction::Count);
        let events = vec![
            Event::new(0, 0, 1.0),
            Event::new(50, 0, 1.0),
            Event::new(400, 0, 1.0),
        ];
        let r = run(&mut CeBuffer::cebuffer(vec![q]), &events, 1_000);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].window_start, 0);
        assert_eq!(r[0].window_end, 150);
        assert_eq!(r[0].values, vec![Some(2.0)]);
        assert_eq!(r[1].window_start, 400);
        assert_eq!(r[1].values, vec![Some(1.0)]);
    }

    #[test]
    fn user_defined_windows_via_markers() {
        use desis_core::event::{Marker, MarkerKind};
        let q = Query::new(1, WindowSpec::user_defined(2), AggFunction::Max);
        let events = vec![
            Event::new(0, 0, 99.0), // outside
            Event::with_marker(
                10,
                0,
                1.0,
                Marker {
                    channel: 2,
                    kind: MarkerKind::Start,
                },
            ),
            Event::new(20, 0, 7.0),
            Event::with_marker(
                30,
                0,
                3.0,
                Marker {
                    channel: 2,
                    kind: MarkerKind::End,
                },
            ),
        ];
        let r = run(&mut DeBucket::debucket(vec![q]), &events, 100);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].values, vec![Some(7.0)]);
        assert_eq!(r[0].window_start, 10);
        assert_eq!(r[0].window_end, 30);
    }

    #[test]
    fn predicate_filters_events() {
        let q = Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Count,
        )
        .filtered(Predicate::ValueAbove(5.0));
        let events = vec![
            Event::new(0, 0, 10.0),
            Event::new(10, 0, 1.0),
            Event::new(20, 0, 6.0),
        ];
        let r = run(&mut CeBuffer::cebuffer(vec![q]), &events, 100);
        assert_eq!(r[0].values, vec![Some(2.0)]);
    }

    #[test]
    fn window_count_metric_grows_with_queries() {
        // Figure 8b: DeBucket/CeBuffer produce one "slice" per window.
        let queries: Vec<Query> = (1..=5)
            .map(|i| {
                Query::new(
                    i,
                    WindowSpec::tumbling_time(i * 100).unwrap(),
                    AggFunction::Sum,
                )
            })
            .collect();
        let mut p = DeBucket::debucket(queries);
        for ts in 0..1_000u64 {
            p.on_event(&Event::new(ts, 0, 1.0));
        }
        p.on_watermark(1_000);
        // Query i (length i*100) creates ceil(1000/(i*100)) windows:
        // 10 + 5 + 4 + 3 + 2 = 24.
        assert_eq!(p.metrics().slices, 24);
    }

    #[test]
    fn active_windows_bounded_for_tumbling() {
        let mut p = DeBucket::debucket(tumbling_avg());
        for ts in 0..10_000u64 {
            p.on_event(&Event::new(ts, 0, 1.0));
        }
        assert_eq!(p.active_windows(), 1);
    }
}
