//! Window assembly from slice partials (paper Section 4.3).
//!
//! The assembler keeps the list of sealed-slice partial results. Whenever
//! a slice carries an end punctuation, it merges the partial results of
//! the window's slice range (for the terminated query's selection only),
//! finalizes each of the query's aggregation functions per key, and emits
//! [`QueryResult`]s. Partial results no longer referenced by any active
//! window are garbage collected using the slicer's low watermark.

use std::cmp::Reverse;

use rustc_hash::FxHashMap;

use crate::engine::group::QueryGroup;
use crate::engine::merge::{finalize_sorted, query_infos, QueryInfo, SliceRange, SliceStore};
use crate::engine::slice::{SealedSlice, WindowEnd};
use crate::obs::trace::{SpanKind, TraceRecorder};
use crate::query::{QueryId, QueryResult};

/// Assembles window results from sealed slices of one query-group.
#[derive(Debug, Clone)]
pub struct Assembler {
    queries: FxHashMap<QueryId, QueryInfo>,
    store: SliceStore,
    /// Number of results emitted (paper: result materialization dominates
    /// beyond 10k queries, Figure 13a).
    results_emitted: u64,
    /// Provenance span recorder; `None` (the default) disables tracing.
    tracer: Option<TraceRecorder>,
}

impl Assembler {
    /// Creates an assembler for `group`.
    pub fn new(group: &QueryGroup) -> Self {
        Self {
            queries: query_infos(group).collect(),
            store: SliceStore::default(),
            results_emitted: 0,
            tracer: None,
        }
    }

    /// Enables causal slice tracing: traced slices that terminate windows
    /// record `WindowAssembled`/`ResultEmitted` spans.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.tracer = Some(recorder);
    }

    /// Number of slice partials currently retained.
    pub fn retained_slices(&self) -> usize {
        self.store.len()
    }

    /// Bundles held by the store's suffix caches
    /// ([`SliceStore::cached_bundles`]).
    pub fn cached_bundles(&self) -> usize {
        self.store.cached_bundles()
    }

    /// The slice store, for the kernel's state-bound tests.
    #[cfg(test)]
    pub(super) fn store(&self) -> &SliceStore {
        &self.store
    }

    /// Total results emitted so far.
    pub fn results_emitted(&self) -> u64 {
        self.results_emitted
    }

    /// Total slice-partial merge operations performed so far.
    pub fn merges(&self) -> u64 {
        self.store.merges()
    }

    /// Ingests a sealed slice: stores its partials, assembles every window
    /// it terminates, then garbage-collects unreachable partials.
    ///
    /// Windows of different queries frequently cover the *same* slice
    /// range (e.g. a thousand equal-length tumbling windows with different
    /// functions, Figure 9c); the store merges each distinct
    /// `(selection, range)` once and shares it across queries. The
    /// windows are asked shortest first (latest first slice first), so a
    /// sort-based suffix chain costs its longest window
    /// ([`SliceStore::merged_range`]). A slice ends at most one window per
    /// query, so each query's results still leave in window-end order.
    pub fn on_slice(&mut self, slice: SealedSlice, out: &mut Vec<QueryResult>) {
        let low = slice.low_watermark;
        let trace = slice.trace;
        let mut ends = slice.ends;
        ends.sort_by_key(|end| Reverse(end.first_slice));
        self.store
            .push(slice.id, slice.start_ts, slice.end_ts, slice.data);
        for end in &ends {
            let before = out.len();
            self.assemble(end, out);
            if let (Some(rec), Some(id)) = (&mut self.tracer, trace) {
                if out.len() > before {
                    rec.record(id, SpanKind::WindowAssembled);
                    rec.record(id, SpanKind::ResultEmitted { query: end.query });
                }
            }
        }
        self.store.gc_ids(low);
    }

    /// Merges the partial results of `end`'s slice range and finalizes the
    /// query's functions per key.
    fn assemble(&mut self, end: &WindowEnd, out: &mut Vec<QueryResult>) {
        // Unknown ids are tolerated: in-flight ends of queries removed at
        // runtime (Section 3.2) may still arrive.
        let Some(info) = self.queries.get(&end.query) else {
            return;
        };
        let merged = self
            .store
            .merged_range(SliceRange::Ids(end.first_slice, end.last_slice), info);
        let before = out.len();
        finalize_sorted(
            end.query,
            &info.functions,
            merged,
            end.start_ts,
            end.end_ts,
            out,
        );
        self.results_emitted += (out.len() - before) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunction;
    use crate::engine::analyzer::QueryAnalyzer;
    use crate::engine::terminal::RawTerminal;
    use crate::event::Event;
    use crate::metrics::EngineMetrics;
    use crate::query::Query;
    use crate::time::Timestamp;
    use crate::window::WindowSpec;

    /// A slicer feeding an assembler over the one group of `queries`.
    fn terminal(queries: Vec<Query>) -> RawTerminal {
        let mut groups = QueryAnalyzer::default().analyze(queries).unwrap();
        assert_eq!(groups.len(), 1);
        RawTerminal::new(groups.remove(0))
    }

    /// End-to-end slicer + assembler over one group.
    fn run(queries: Vec<Query>, events: &[Event], final_wm: Timestamp) -> Vec<QueryResult> {
        let mut terminal = terminal(queries);
        let mut results = Vec::new();
        for ev in events {
            terminal.on_event(ev, &mut results);
        }
        terminal.on_watermark(final_wm, &mut results);
        results
    }

    #[test]
    fn tumbling_average_per_key() {
        let q = Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Average,
        );
        let events = vec![
            Event::new(0, 1, 10.0),
            Event::new(10, 1, 20.0),
            Event::new(20, 2, 100.0),
            Event::new(110, 1, 42.0),
        ];
        let mut results = run(vec![q], &events, 200);
        results.sort_by_key(|r| (r.window_start, r.key));
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].key, 1);
        assert_eq!(results[0].values, vec![Some(15.0)]);
        assert_eq!(results[1].key, 2);
        assert_eq!(results[1].values, vec![Some(100.0)]);
        assert_eq!(results[2].window_start, 100);
        assert_eq!(results[2].values, vec![Some(42.0)]);
    }

    #[test]
    fn sliding_windows_reuse_slice_partials() {
        let q = Query::new(
            1,
            WindowSpec::sliding_time(100, 50).unwrap(),
            AggFunction::Sum,
        );
        let events = vec![
            Event::new(0, 0, 1.0),
            Event::new(60, 0, 2.0),
            Event::new(120, 0, 4.0),
        ];
        let mut results = run(vec![q], &events, 300);
        results.sort_by_key(|r| r.window_start);
        // Windows: [0,100)=3, [50,150)=6, [100,200)=4, [150,250)=0(empty).
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].values, vec![Some(3.0)]);
        assert_eq!(results[1].values, vec![Some(6.0)]);
        assert_eq!(results[2].values, vec![Some(4.0)]);
    }

    #[test]
    fn figure4_workload_shares_one_sort() {
        // Qa tumbling max, Qb sliding quantile, Qc session median (Fig. 4).
        let qa = Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Max);
        let qb = Query::new(
            2,
            WindowSpec::sliding_time(100, 50).unwrap(),
            AggFunction::Quantile(0.5),
        );
        let qc = Query::new(3, WindowSpec::session(80).unwrap(), AggFunction::Median);
        let events = vec![
            Event::new(0, 0, 1.0),
            Event::new(20, 0, 5.0),
            Event::new(40, 0, 3.0),
            Event::new(60, 0, 2.0),
            Event::new(80, 0, 4.0),
        ];
        let results = run(vec![qa, qb, qc], &events, 1000);
        let max0 = results
            .iter()
            .find(|r| r.query == 1 && r.window_start == 0)
            .unwrap();
        assert_eq!(max0.values, vec![Some(5.0)]);
        let med_sliding = results
            .iter()
            .find(|r| r.query == 2 && r.window_start == 0)
            .unwrap();
        assert_eq!(med_sliding.values, vec![Some(3.0)]);
        // Session [0, 160): all five events, median 3.
        let session = results.iter().find(|r| r.query == 3).unwrap();
        assert_eq!(session.window_start, 0);
        assert_eq!(session.window_end, 160);
        assert_eq!(session.values, vec![Some(3.0)]);
    }

    #[test]
    fn empty_windows_emit_nothing() {
        let q = Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum);
        let events = vec![Event::new(0, 0, 1.0), Event::new(450, 0, 2.0)];
        let results = run(vec![q], &events, 500);
        // Windows [100,200)..[300,400) are empty.
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn gc_drops_unreachable_partials() {
        let q = Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum);
        let mut terminal = terminal(vec![q]);
        let mut results = Vec::new();
        for ts in (0..10_000).step_by(10) {
            terminal.on_event(&Event::new(ts, 0, 1.0), &mut results);
        }
        let (mut m, mut retained) = (EngineMetrics::default(), (0, 0));
        terminal.roll_up(&mut m, &mut retained);
        // Tumbling windows never need more than the current slice.
        assert!(retained.0 <= 1);
        assert_eq!(m.results, results.len() as u64);
    }

    #[test]
    fn multi_function_query_emits_all_values() {
        let q = Query::with_functions(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            vec![AggFunction::Min, AggFunction::Max, AggFunction::Average],
        );
        let events = vec![
            Event::new(0, 0, 1.0),
            Event::new(10, 0, 9.0),
            Event::new(20, 0, 5.0),
        ];
        let results = run(vec![q], &events, 100);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].values, vec![Some(1.0), Some(9.0), Some(5.0)]);
    }

    #[test]
    fn disjoint_selections_produce_individual_results() {
        use crate::predicate::Predicate;
        let fast = Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Count,
        )
        .filtered(Predicate::ValueAbove(80.0));
        let slow = Query::new(
            2,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Count,
        )
        .filtered(Predicate::ValueBelow(25.0));
        let events = vec![
            Event::new(0, 0, 90.0),
            Event::new(10, 0, 10.0),
            Event::new(20, 0, 50.0), // matches neither
            Event::new(30, 0, 95.0),
        ];
        let results = run(vec![fast, slow], &events, 100);
        let fast_r = results.iter().find(|r| r.query == 1).unwrap();
        let slow_r = results.iter().find(|r| r.query == 2).unwrap();
        assert_eq!(fast_r.values, vec![Some(2.0)]);
        assert_eq!(slow_r.values, vec![Some(1.0)]);
    }

    #[test]
    fn count_window_results() {
        let q = Query::new(
            1,
            WindowSpec::tumbling_count(3).unwrap(),
            AggFunction::Average,
        );
        let events: Vec<Event> = (0..9)
            .map(|i| Event::new(i as u64, 0, (i + 1) as f64))
            .collect();
        let results = run(vec![q], &events, 100);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].values, vec![Some(2.0)]); // avg(1,2,3)
        assert_eq!(results[1].values, vec![Some(5.0)]); // avg(4,5,6)
        assert_eq!(results[2].values, vec![Some(8.0)]); // avg(7,8,9)
    }
}
